/**
 * @file
 * Checkpointed replay tests (ctest label `replay`): value-semantics
 * snapshots must be bit-exact against fresh-from-reset replay at
 * every cycle, and ReplayEngine must return byte-identical
 * PlayResults to the sequential VectorPlayer for any worker count,
 * checkpoint stride and warm-row state — while actually avoiding
 * simulated cycles through the bug-free donor and the warm rows.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "harness/replay_engine.hh"
#include "harness/vector_player.hh"
#include "murphi/enumerator.hh"
#include "pp/isa.hh"
#include "support/status.hh"

namespace archval::harness
{
namespace
{

using rtl::BugId;
using rtl::BugSet;
using rtl::PpConfig;
using rtl::PpFsmModel;

class ReplayFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        config_ = new PpConfig(PpConfig::smallPreset());
        model_ = new PpFsmModel(*config_);
        murphi::Enumerator enumerator(*model_);
        graph_ = new graph::StateGraph(enumerator.runOrThrow());
        // Split the tour into many reset-rooted traces (the paper's
        // 10k-instruction limit, scaled down): the round-trip test is
        // O(n^2) in the shortest trace's cycle count.
        graph::TourOptions tour_options;
        tour_options.maxInstructionsPerTrace = 1'000;
        graph::TourGenerator tour_gen(*graph_, tour_options);
        tours_ = new graph::Tours(tour_gen.run());
        vecgen::VectorGenerator generator(*model_, 42);
        traces_ = new std::vector<vecgen::TestTrace>(
            generator.generateAll(*graph_, *tours_));
    }

    static void
    TearDownTestSuite()
    {
        delete traces_;
        delete tours_;
        delete graph_;
        delete model_;
        delete config_;
        traces_ = nullptr;
        tours_ = nullptr;
        graph_ = nullptr;
        model_ = nullptr;
        config_ = nullptr;
    }

    static PpConfig *config_;
    static PpFsmModel *model_;
    static graph::StateGraph *graph_;
    static graph::Tours *tours_;
    static std::vector<vecgen::TestTrace> *traces_;
};

PpConfig *ReplayFixture::config_ = nullptr;
PpFsmModel *ReplayFixture::model_ = nullptr;
graph::StateGraph *ReplayFixture::graph_ = nullptr;
graph::Tours *ReplayFixture::tours_ = nullptr;
std::vector<vecgen::TestTrace> *ReplayFixture::traces_ = nullptr;

/** Field-by-field PlayResult equality with a readable message. */
void
expectSameResult(const PlayResult &expected, const PlayResult &actual,
                 const std::string &what)
{
    EXPECT_EQ(expected.diverged, actual.diverged) << what;
    EXPECT_EQ(expected.diff, actual.diff) << what;
    EXPECT_EQ(expected.cycles, actual.cycles) << what;
    EXPECT_EQ(expected.instructions, actual.instructions) << what;
    EXPECT_EQ(expected.lockstepErrors, actual.lockstepErrors) << what;
    EXPECT_EQ(expected.drained, actual.drained) << what;
    EXPECT_EQ(expected.skipped, actual.skipped) << what;
}

TEST_F(ReplayFixture, PpCoreSnapshotRoundTripEqualsFreshReplay)
{
    // For the shortest tour trace: checkpoint a run at *every* cycle,
    // resume each checkpoint in a separate core, and require the
    // resumed run's outcome to be bit-identical to the uninterrupted
    // one — with and without an injected bug.
    const vecgen::TestTrace &trace = *std::min_element(
        traces_->begin(), traces_->end(),
        [](const auto &a, const auto &b) {
            return a.cycles.size() < b.cycles.size();
        });
    ASSERT_FALSE(trace.cycles.empty());
    const pp::ArchState spec = VectorPlayer::specState(*config_, trace);

    std::vector<BugSet> bug_sets(2);
    bug_sets[1].set(static_cast<size_t>(BugId::Bug3ConflictAddr));

    for (const BugSet &bugs : bug_sets) {
        VectorPlayer player(*config_);
        PlayResult fresh = player.play(trace, bugs);

        rtl::PpCore walker(*config_, rtl::CoreMode::Vector);
        VectorPlayer::primeCore(walker, trace, bugs);
        for (size_t c = 0; c <= trace.cycles.size(); ++c) {
            rtl::PpCore::Snapshot snap = walker.snapshot();
            EXPECT_EQ(snap.cycles(), c);
            EXPECT_GT(snap.bytes(), 0u);

            rtl::PpCore resumed(*config_, rtl::CoreMode::Vector);
            VectorPlayer::primeCore(resumed, trace, bugs);
            resumed.restore(snap);
            VectorPlayer::drive(resumed, trace, c,
                                trace.cycles.size());
            PlayResult result =
                VectorPlayer::finish(*config_, resumed, spec);
            expectSameResult(
                fresh, result,
                "checkpoint at cycle " + std::to_string(c) +
                    (bugs.any() ? " (bug3)" : " (bug-free)"));

            if (c < trace.cycles.size())
                VectorPlayer::drive(walker, trace, c, c + 1);
        }
    }
}

TEST_F(ReplayFixture, RefSimSnapshotRoundTrip)
{
    const vecgen::TestTrace &trace = traces_->front();
    const std::vector<uint32_t> retired = trace.retiredStream();
    pp::RefSim fresh(config_->machine);
    fresh.setStreamMode(true);
    fresh.loadProgram(retired);
    fresh.setInbox(trace.inbox);

    // Snapshot halfway, run both the original and a restored copy to
    // completion, and compare everything observable.
    uint64_t half = retired.size() / 2;
    fresh.run(half);
    pp::RefSim::Snapshot snap = fresh.snapshot();
    EXPECT_EQ(snap.instructionsRetired(), fresh.instructionsRetired());
    EXPECT_GT(snap.bytes(), 0u);
    fresh.run(retired.size() + 8);

    pp::RefSim resumed(config_->machine);
    resumed.restore(snap);
    resumed.run(retired.size() + 8);

    EXPECT_EQ(fresh.archState(), resumed.archState());
    EXPECT_EQ(fresh.pc(), resumed.pc());
    EXPECT_EQ(fresh.instructionsRetired(),
              resumed.instructionsRetired());
    EXPECT_EQ(fresh.stopReason(), resumed.stopReason());
}

TEST_F(ReplayFixture, EngineMatchesSequentialPlayerEverywhere)
{
    // The acceptance matrix: worker counts {1,2,8} x checkpoint
    // strides {0 (off), 64} x warm rows {none, cold, hot}, bug-free
    // and with a bug injected. Every cell must reproduce the
    // sequential player byte-for-byte.
    std::vector<BugSet> bug_sets(2);
    bug_sets[1].set(static_cast<size_t>(BugId::Bug5MembusGlitch));

    VectorPlayer player(*config_);
    std::vector<PlayResult> expected;
    for (const BugSet &bugs : bug_sets)
        for (const auto &trace : *traces_)
            expected.push_back(player.play(trace, bugs));

    for (size_t stride : {size_t{0}, size_t{64}}) {
        for (unsigned nw : {1u, 2u, 8u}) {
            const std::string what = "workers=" + std::to_string(nw) +
                                     " stride=" + std::to_string(stride);
            ReplayOptions options;
            options.numThreads = nw;
            options.checkpointStride = stride;
            auto play = [&](const std::string &pass,
                            WarmRows *warm = nullptr) {
                ReplayEngine engine(*config_, options);
                std::vector<PlayResult> actual =
                    engine.playAll(*traces_, bug_sets, nullptr, warm);
                EXPECT_EQ(actual.size(), expected.size());
                for (size_t i = 0;
                     i < expected.size() && i < actual.size(); ++i) {
                    expectSameResult(expected[i], actual[i],
                                     "job " + std::to_string(i) + " " +
                                         what + " " + pass);
                }
                EXPECT_EQ(engine.stats().jobs,
                          traces_->size() * bug_sets.size());
                return engine.stats();
            };

            const ReplayStats plain = play("no warm rows");
            if (stride == 0) {
                EXPECT_EQ(plain.strideCheckpoints, 0u) << what;
                EXPECT_EQ(plain.peakCacheBytes, 0u) << what;
                EXPECT_EQ(plain.strideHits, 0u) << what;
            }

            // A warm row keeps the donor's pins, never a chain: a
            // hot batch resumes every triggered job exactly where the
            // cold batch's donor pins put it.
            WarmRows warm(traces_->size());
            const ReplayStats cold = play("cold", &warm);
            const ReplayStats hot = play("hot", &warm);
            EXPECT_EQ(cold.strideHits, plain.strideHits) << what;
            EXPECT_EQ(cold.warmInserts, traces_->size()) << what;
            EXPECT_EQ(hot.warmHits, traces_->size()) << what;
            for (const auto &row : warm.rows()) {
                ASSERT_NE(row, nullptr) << what;
                EXPECT_LE(row->pins.size(), rtl::numBugs) << what;
            }
            EXPECT_EQ(hot.warmChainHits, cold.strideHits) << what;
            EXPECT_EQ(hot.warmResumeCycles, cold.strideResumeCycles)
                << what;
            if (stride > 0) {
                EXPECT_GT(hot.warmChainHits, 0u) << what;
            }
        }
    }
}

TEST_F(ReplayFixture, BugFreeDonorCopiesUntriggeredJobs)
{
    // The bug-set axis: every fault effect is strictly guarded by its
    // trigger conjunction, and PpCore records the first cycle each
    // conjunction held on the bug-free run. A (trace, bug) job whose
    // bug never triggered must copy the donor result without
    // simulating — and the engine's copy count must equal exactly the
    // number of such jobs, computed here independently.
    std::vector<BugSet> bug_sets(1 + rtl::numBugs);
    for (size_t b = 0; b < rtl::numBugs; ++b)
        bug_sets[1 + b].set(b);

    uint64_t expected_copies = 0;
    for (const auto &trace : *traces_) {
        rtl::PpCore core(*config_, rtl::CoreMode::Vector);
        VectorPlayer::primeCore(core, trace, BugSet{});
        VectorPlayer::drive(core, trace, 0, trace.cycles.size());
        VectorPlayer::finish(*config_, core,
                             VectorPlayer::specState(*config_, trace));
        for (size_t b = 0; b < rtl::numBugs; ++b) {
            if (core.bugFirstTrigger(static_cast<BugId>(b)) ==
                UINT64_MAX)
                ++expected_copies;
        }
    }
    ASSERT_GT(expected_copies, 0u)
        << "batch exercises every bug on every trace; the copy "
           "path is untestable at this scale";

    VectorPlayer player(*config_);
    std::vector<PlayResult> expected;
    for (const BugSet &bugs : bug_sets)
        for (const auto &trace : *traces_)
            expected.push_back(player.play(trace, bugs));

    for (unsigned nw : {1u, 2u, 8u}) {
        ReplayOptions options;
        options.numThreads = nw;
        ReplayEngine engine(*config_, options);
        std::vector<PlayResult> actual =
            engine.playAll(*traces_, bug_sets);
        ASSERT_EQ(actual.size(), expected.size());
        for (size_t i = 0; i < expected.size(); ++i) {
            expectSameResult(expected[i], actual[i],
                             "job " + std::to_string(i) +
                                 " workers=" + std::to_string(nw));
        }
        EXPECT_EQ(engine.stats().bugSetCopies, expected_copies)
            << "workers=" << nw;
    }
}

TEST_F(ReplayFixture, ForeignStimulusFallsBackNotCorrupts)
{
    // Same tours concretized under a different vecgen seed: forced
    // cycles match (they come from the edges), operand bytes do not.
    // A batch mixing both must still reproduce the sequential player
    // exactly.
    vecgen::VectorGenerator other(*model_, 1042);
    std::vector<vecgen::TestTrace> mixed = *traces_;
    std::vector<vecgen::TestTrace> foreign =
        other.generateAll(*graph_, *tours_);
    mixed.insert(mixed.end(), foreign.begin(), foreign.end());

    VectorPlayer player(*config_);
    ReplayEngine engine(*config_);
    std::vector<PlayResult> actual = engine.playAll(mixed);
    ASSERT_EQ(actual.size(), mixed.size());
    for (size_t i = 0; i < mixed.size(); ++i) {
        expectSameResult(player.play(mixed[i]), actual[i],
                         "mixed trace " + std::to_string(i));
    }
}

TEST_F(ReplayFixture, StopOnDivergenceMatchesSequentialBreak)
{
    // The early-exit mode must reproduce the sequential
    // play-until-divergence loop exactly: identical results up to
    // and including the first divergence, everything after skipped —
    // for any worker count.
    BugSet bugs;
    bugs.set(static_cast<size_t>(BugId::Bug3ConflictAddr));

    VectorPlayer player(*config_);
    std::vector<PlayResult> expected;
    size_t first_div = traces_->size();
    for (size_t t = 0; t < traces_->size(); ++t) {
        expected.push_back(player.play((*traces_)[t], bugs));
        if (expected.back().diverged) {
            first_div = t;
            break;
        }
    }
    ASSERT_LT(first_div, traces_->size()) << "bug3 not detected";

    for (unsigned nw : {1u, 2u, 8u}) {
        ReplayOptions options;
        options.numThreads = nw;
        options.stopOnDivergence = true;
        ReplayEngine engine(*config_, options);
        std::vector<PlayResult> actual = engine.playAll(*traces_, bugs);
        for (size_t t = 0; t < traces_->size(); ++t) {
            if (t <= first_div) {
                expectSameResult(expected[t], actual[t],
                                 "pre-divergence trace " +
                                     std::to_string(t) + " workers=" +
                                     std::to_string(nw));
            } else {
                EXPECT_TRUE(actual[t].skipped)
                    << "trace " << t << " workers=" << nw;
            }
        }
        EXPECT_EQ(engine.stats().jobsSkipped,
                  traces_->size() - first_div - 1);
    }
}

TEST_F(ReplayFixture, WarmInsertsCountOnlyStoredEntries)
{
    // Every trace's donor run is stored exactly once: a repeat batch
    // finds every trace warm and stores nothing new.
    WarmRows warm(traces_->size());
    std::vector<BugSet> bug_sets(2);
    bug_sets[1].set(static_cast<size_t>(BugId::Bug3ConflictAddr));
    ReplayEngine cold(*config_);
    cold.playAll(*traces_, bug_sets, nullptr, &warm);
    EXPECT_EQ(cold.stats().warmInserts, traces_->size());
    EXPECT_EQ(warm.puts(), traces_->size());
    ReplayEngine hot(*config_);
    hot.playAll(*traces_, bug_sets, nullptr, &warm);
    EXPECT_EQ(hot.stats().warmHits, traces_->size());
    EXPECT_EQ(hot.stats().warmInserts, 0u);
    EXPECT_EQ(warm.puts(), traces_->size());
}

/** @return the FatalError message @p play throws, or "" when it
 *  returns. */
template <class Play>
std::string
fatalMessage(Play &&play)
{
    try {
        play();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST_F(ReplayFixture, OutOfStepStimulusThrowsFatal)
{
    // Stimulus the core cannot follow is bad input, not a broken
    // core: a fetch stream whose classes disagree with the forced
    // fetch classes, and an inbox cut short of the SWITCHes that pop
    // it, must throw FatalError naming the cycle, from the sequential
    // player and from the engine at any worker count.
    const auto with_inbox = std::find_if(
        traces_->begin(), traces_->end(),
        [](const vecgen::TestTrace &trace) {
            return !trace.inbox.empty();
        });
    ASSERT_NE(with_inbox, traces_->end());
    const size_t t = static_cast<size_t>(with_inbox - traces_->begin());

    // A non-ALU word always leads its packet, so fetching a NOP in
    // its place breaks the stream's class check.
    vecgen::TestTrace stream = (*traces_)[t];
    auto word = std::find_if(
        stream.fetchStream.begin(), stream.fetchStream.end(),
        [](uint32_t w) {
            return pp::decode(w).cls() != pp::InstrClass::Alu;
        });
    ASSERT_NE(word, stream.fetchStream.end());
    *word = pp::encodeNop();

    vecgen::TestTrace inbox = (*traces_)[t];
    inbox.inbox.clear();

    for (const vecgen::TestTrace *damaged : {&stream, &inbox}) {
        const std::string what =
            damaged == &stream ? "fetch stream" : "inbox";
        VectorPlayer player(*config_);
        const std::string message =
            fatalMessage([&] { player.play(*damaged); });
        EXPECT_EQ(message.rfind("cycle ", 0), 0u) << message;
        EXPECT_NE(message.find(what), std::string::npos) << message;

        std::vector<vecgen::TestTrace> batch = *traces_;
        batch[t] = *damaged;
        std::vector<BugSet> bug_sets(2);
        bug_sets[1].set(static_cast<size_t>(BugId::Bug3ConflictAddr));
        for (unsigned nw : {1u, 4u}) {
            ReplayOptions options;
            options.numThreads = nw;
            ReplayEngine engine(*config_, options);
            EXPECT_EQ(fatalMessage([&] {
                          engine.playAll(batch, bug_sets);
                      }),
                      message)
                << what << " workers=" << nw;
        }
    }
}

TEST_F(ReplayFixture, HaltInTheFetchStreamThrowsFatal)
{
    // A vector-mode core refuses to fetch HALT: a retired HALT stops
    // the core, and bugs #1 and #4 can turn one into a NOP, so one
    // bug set's run could leave the control trajectory the engine's
    // triggered jobs step from. HALT is an ALU-class word, so it
    // passes the fetch class check; the sequential player and the
    // engine, at one worker or four and with one bug set or seven,
    // throw the same FatalError naming the cycle.
    vecgen::TestTrace halting = traces_->front();
    auto word = std::find_if(
        halting.fetchStream.begin() +
            static_cast<long>(halting.fetchStream.size() / 2),
        halting.fetchStream.end(), [](uint32_t w) {
            return pp::decode(w).cls() == pp::InstrClass::Alu;
        });
    ASSERT_NE(word, halting.fetchStream.end());
    *word = pp::encodeHalt();

    VectorPlayer player(*config_);
    const std::string message =
        fatalMessage([&] { player.play(halting); });
    EXPECT_EQ(message.rfind("cycle ", 0), 0u) << message;
    EXPECT_NE(message.find("HALT"), std::string::npos) << message;

    std::vector<vecgen::TestTrace> batch = *traces_;
    batch.front() = halting;
    std::vector<BugSet> seven(1 + rtl::numBugs);
    for (size_t b = 0; b < rtl::numBugs; ++b)
        seven[1 + b].set(b);
    for (const std::vector<BugSet> &bug_sets :
         {std::vector<BugSet>{BugSet{}}, seven}) {
        for (unsigned nw : {1u, 4u}) {
            ReplayOptions options;
            options.numThreads = nw;
            ReplayEngine engine(*config_, options);
            EXPECT_EQ(fatalMessage([&] {
                          engine.playAll(batch, bug_sets);
                      }),
                      message)
                << bug_sets.size() << " bug sets, workers=" << nw;
        }
    }
}

TEST_F(ReplayFixture, WarmRowsComputeTheirSpecStateWithoutADonor)
{
    // A row computes the specification's state once, at its first
    // simulated job. In a warm batch that job is never a donor run:
    // every row is a warm hit, and here the batch has no bug-free set
    // at all, so the first job of a row to simulate is a triggered
    // bugged job. The results must still equal the sequential player.
    std::vector<BugSet> all_sets(1 + rtl::numBugs);
    std::vector<BugSet> bugged(rtl::numBugs);
    for (size_t b = 0; b < rtl::numBugs; ++b) {
        all_sets[1 + b].set(b);
        bugged[b].set(b);
    }
    ReplayOptions options;
    options.checkpointStride = 64;
    WarmRows warm(traces_->size());
    ReplayEngine cold(*config_, options);
    cold.playAll(*traces_, all_sets, nullptr, &warm);
    ASSERT_EQ(cold.stats().warmInserts, traces_->size());

    ReplayEngine hot(*config_, options);
    const std::vector<PlayResult> actual =
        hot.playAll(*traces_, bugged, nullptr, &warm);
    const ReplayStats &stats = hot.stats();
    EXPECT_EQ(stats.warmHits, traces_->size());
    EXPECT_EQ(stats.warmInserts, 0u);
    EXPECT_GT(stats.triggeredJobs, 0u);
    EXPECT_GT(stats.simulatedCycles, 0u);

    VectorPlayer player(*config_);
    ASSERT_EQ(actual.size(), traces_->size() * bugged.size());
    size_t diverged = 0;
    for (size_t b = 0; b < bugged.size(); ++b) {
        for (size_t t = 0; t < traces_->size(); ++t) {
            const PlayResult &result = actual[b * traces_->size() + t];
            expectSameResult(player.play((*traces_)[t], bugged[b]), result,
                             "trace " + std::to_string(t) + " bug " +
                                 std::to_string(b));
            diverged += result.diverged;
        }
    }
    EXPECT_GT(diverged, 0u);
}

TEST_F(ReplayFixture, EmptyBatchesAreHarmless)
{
    ReplayEngine engine(*config_);
    EXPECT_TRUE(engine.playAll({}, BugSet{}).empty());
    EXPECT_TRUE(
        engine.playAll(*traces_, std::vector<BugSet>{}).empty());
}

} // namespace
} // namespace archval::harness
