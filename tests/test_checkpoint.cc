/**
 * @file
 * Tiered in-trace checkpointing tests (ctest label `checkpoint`).
 *
 * The stride tier rides on three claims, each attacked here:
 *
 *  1. Snapshot serialization is lossless: a snapshot that round-trips
 *     through bytes resumes to a bit-identical outcome, and damaged
 *     bytes are rejected rather than half-decoded.
 *  2. Cross-bug-set restore is sound: below a bug set's first trigger
 *     cycle the bug-free trajectory *is* the bugged trajectory, so
 *     restoring a donor snapshot with the bug mask re-armed
 *     (PpCore::restoreWithBugs) reproduces the bugged run exactly.
 *  3. The engine's results are byte-identical to the sequential
 *     VectorPlayer for every (stride × checkpoint budget × worker
 *     count) combination, and the budget bounds the checkpoint bytes
 *     held at once without costing a stride hit when each row's
 *     chain fits its worker's share.
 *
 * The suite exercises the worker pool, so it is part of the
 * ARCHVAL_SANITIZE=thread build (see README).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "harness/replay_engine.hh"
#include "harness/vector_player.hh"
#include "murphi/enumerator.hh"
#include "support/rng.hh"
#include "support/status.hh"

namespace archval::harness
{
namespace
{

using rtl::BugId;
using rtl::BugSet;
using rtl::PpConfig;
using rtl::PpFsmModel;

class CheckpointFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        config_ = new PpConfig(PpConfig::smallPreset());
        model_ = new PpFsmModel(*config_);
        murphi::Enumerator enumerator(*model_);
        graph_ = new graph::StateGraph(enumerator.runOrThrow());
        graph::TourOptions tour_options;
        tour_options.maxInstructionsPerTrace = 1'000;
        graph::TourGenerator tour_gen(*graph_, tour_options);
        tours_ = new std::vector<graph::Trace>(tour_gen.run());
        vecgen::VectorGenerator generator(*model_, 42);
        traces_ = new std::vector<vecgen::TestTrace>(
            generator.generateAll(*graph_, *tours_));

        // All six Table 2.1 bugs as single-bug sets, donor first.
        bug_sets_ = new std::vector<BugSet>(1 + rtl::numBugs);
        for (size_t b = 0; b < rtl::numBugs; ++b)
            (*bug_sets_)[1 + b].set(b);

        // The sequential ground truth for the full trace × bug-set
        // matrix, computed once (every differential test compares
        // engine output against this).
        VectorPlayer player(*config_);
        expected_ = new std::vector<PlayResult>;
        for (const BugSet &bugs : *bug_sets_)
            for (const auto &trace : *traces_)
                expected_->push_back(player.play(trace, bugs));
    }

    static void
    TearDownTestSuite()
    {
        delete expected_;
        delete bug_sets_;
        delete traces_;
        delete tours_;
        delete graph_;
        delete model_;
        delete config_;
        expected_ = nullptr;
        bug_sets_ = nullptr;
        traces_ = nullptr;
        tours_ = nullptr;
        graph_ = nullptr;
        model_ = nullptr;
        config_ = nullptr;
    }

    /** @return one PpCore snapshot's byte footprint. */
    static size_t
    snapshotBytes()
    {
        return rtl::PpCore(*config_, rtl::CoreMode::Vector)
            .snapshotBytes();
    }

    static PpConfig *config_;
    static PpFsmModel *model_;
    static graph::StateGraph *graph_;
    static std::vector<graph::Trace> *tours_;
    static std::vector<vecgen::TestTrace> *traces_;
    static std::vector<BugSet> *bug_sets_;
    static std::vector<PlayResult> *expected_;
};

PpConfig *CheckpointFixture::config_ = nullptr;
PpFsmModel *CheckpointFixture::model_ = nullptr;
graph::StateGraph *CheckpointFixture::graph_ = nullptr;
std::vector<graph::Trace> *CheckpointFixture::tours_ = nullptr;
std::vector<vecgen::TestTrace> *CheckpointFixture::traces_ = nullptr;
std::vector<BugSet> *CheckpointFixture::bug_sets_ = nullptr;
std::vector<PlayResult> *CheckpointFixture::expected_ = nullptr;

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

/** Run the engine under @p options over the fixture matrix and
 *  require byte-identical results. @return the run's stats. */
ReplayStats
expectMatrixIdentical(const PpConfig &config,
                      const std::vector<vecgen::TestTrace> &traces,
                      const std::vector<BugSet> &bug_sets,
                      const std::vector<PlayResult> &expected,
                      const ReplayOptions &options,
                      const std::string &what)
{
    ReplayEngine engine(config, options);
    std::vector<PlayResult> actual = engine.playAll(traces, bug_sets);
    EXPECT_EQ(actual.size(), expected.size()) << what;
    for (size_t i = 0; i < expected.size() && i < actual.size(); ++i)
        expectSameResult(expected[i], actual[i],
                         what + " job " + std::to_string(i));
    return engine.stats();
}

// ---------------------------------------------------------------------
// Claim 1: serialization is lossless and damage is rejected.
// ---------------------------------------------------------------------

TEST_F(CheckpointFixture, SerializedSnapshotRoundTripsExactly)
{
    const vecgen::TestTrace &trace = *std::min_element(
        traces_->begin(), traces_->end(),
        [](const auto &a, const auto &b) {
            return a.cycles.size() < b.cycles.size();
        });
    ASSERT_GE(trace.cycles.size(), 4u);

    VectorPlayer player(*config_);
    PlayResult fresh = player.play(trace, BugSet{});

    rtl::PpCore core(*config_, rtl::CoreMode::Vector);
    VectorPlayer::primeCore(core, trace, BugSet{});
    size_t half = trace.cycles.size() / 2;
    VectorPlayer::drive(core, trace, 0, half);

    std::vector<uint8_t> bytes = core.snapshot().serialize();
    ASSERT_FALSE(bytes.empty());

    rtl::PpCore::Snapshot snap = rtl::PpCore::deserializeSnapshot(
        *config_, rtl::CoreMode::Vector, bytes.data(), bytes.size());
    ASSERT_TRUE(snap.valid());
    EXPECT_EQ(snap.cycles(), half);

    rtl::PpCore resumed(*config_, rtl::CoreMode::Vector);
    VectorPlayer::primeCore(resumed, trace, BugSet{});
    resumed.restore(snap);
    VectorPlayer::drive(resumed, trace, half, trace.cycles.size());
    expectSameResult(fresh,
                     VectorPlayer::finish(*config_, resumed, trace),
                     "deserialized mid-trace snapshot");
}

TEST_F(CheckpointFixture, DeserializeRejectsDamage)
{
    const vecgen::TestTrace &trace = traces_->front();
    rtl::PpCore core(*config_, rtl::CoreMode::Vector);
    VectorPlayer::primeCore(core, trace, BugSet{});
    VectorPlayer::drive(core, trace, 0, trace.cycles.size() / 2);
    std::vector<uint8_t> bytes = core.snapshot().serialize();
    ASSERT_GT(bytes.size(), 64u);

    // Truncation at any boundary must fail cleanly, never read out
    // of bounds (exercised under sanitizers by the tsan/asan builds).
    for (size_t keep :
         {size_t{0}, size_t{3}, bytes.size() / 2, bytes.size() - 1}) {
        EXPECT_FALSE(rtl::PpCore::deserializeSnapshot(
                         *config_, rtl::CoreMode::Vector,
                         bytes.data(), keep)
                         .valid())
            << "truncated to " << keep;
    }

    // A snapshot from a different machine configuration must be
    // rejected by the config fingerprint.
    PpConfig other = PpConfig::smallPreset();
    other.machine.dmemWords *= 2;
    EXPECT_FALSE(rtl::PpCore::deserializeSnapshot(
                     other, rtl::CoreMode::Vector, bytes.data(),
                     bytes.size())
                     .valid());

    // Damaged magic/version header must be rejected.
    std::vector<uint8_t> bad = bytes;
    bad[0] ^= 0xFF;
    EXPECT_FALSE(rtl::PpCore::deserializeSnapshot(
                     *config_, rtl::CoreMode::Vector, bad.data(),
                     bad.size())
                     .valid());
}

// ---------------------------------------------------------------------
// Claim 2: cross-bug-set restore with mask re-arming.
// ---------------------------------------------------------------------

TEST_F(CheckpointFixture, BugRearmRoundTripFuzz)
{
    // Randomized attack on the validity rule: for random (trace,
    // cycle, bug set) draws, snapshot the *bug-free* run at the
    // cycle, round-trip it through bytes, restore with the bug mask
    // re-armed, and require the finished run to match the sequential
    // bugged run — whenever the cycle lies strictly below the bug
    // set's first trigger (the rule's precondition). Draws at or
    // above the trigger are discarded: the rule makes no promise
    // there.
    Rng rng(0xC0FFEE42);
    size_t checked = 0;
    for (int draw = 0; draw < 40 && checked < 12; ++draw) {
        const size_t t = rng.index(traces_->size());
        const vecgen::TestTrace &trace = (*traces_)[t];
        if (trace.cycles.size() < 2)
            continue;

        BugSet bugs;
        bugs.set(rng.index(rtl::numBugs));
        if (rng.chance(1, 3))
            bugs.set(rng.index(rtl::numBugs));

        // Donor run: record first-trigger cycles and snapshot at a
        // random mid-trace cycle.
        const size_t cut = 1 + rng.index(trace.cycles.size() - 1);
        rtl::PpCore donor(*config_, rtl::CoreMode::Vector);
        VectorPlayer::primeCore(donor, trace, BugSet{});
        VectorPlayer::drive(donor, trace, 0, cut);
        std::vector<uint8_t> bytes = donor.snapshot().serialize();
        VectorPlayer::drive(donor, trace, cut, trace.cycles.size());
        VectorPlayer::finish(*config_, donor, trace);

        uint64_t first = UINT64_MAX;
        for (size_t b = 0; b < rtl::numBugs; ++b)
            if (bugs.test(b))
                first = std::min(
                    first,
                    donor.bugFirstTrigger(static_cast<BugId>(b)));
        if (cut >= first)
            continue; // precondition unmet: no promise to check
        ++checked;

        rtl::PpCore::Snapshot snap = rtl::PpCore::deserializeSnapshot(
            *config_, rtl::CoreMode::Vector, bytes.data(),
            bytes.size());
        ASSERT_TRUE(snap.valid());

        rtl::PpCore resumed(*config_, rtl::CoreMode::Vector);
        VectorPlayer::primeCore(resumed, trace, bugs);
        resumed.restoreWithBugs(snap, bugs);
        VectorPlayer::drive(resumed, trace, cut, trace.cycles.size());
        PlayResult result =
            VectorPlayer::finish(*config_, resumed, trace);

        VectorPlayer player(*config_);
        expectSameResult(player.play(trace, bugs), result,
                         "trace " + std::to_string(t) + " cut " +
                             std::to_string(cut) + " bugs " +
                             bugs.to_string());
    }
    // The batch triggers bugs late enough that mid-trace cuts below
    // the trigger are common; if this ever fires, re-seed the fuzz.
    EXPECT_GE(checked, 6u) << "too few valid draws to trust the fuzz";
}

// ---------------------------------------------------------------------
// Claim 3: the engine differential across the full sweep.
// ---------------------------------------------------------------------

TEST_F(CheckpointFixture, EngineMatchesSequentialAcrossTierSweep)
{
    // The acceptance sweep: stride × worker count under an unbounded
    // budget, all six Table 2.1 bug sets plus the bug-free donor.
    // (Tight budgets are swept in BudgetBoundsHeldChainsNotHits.)
    const size_t strides[] = {0, 64, 4096};
    bool stride_hit_somewhere = false;

    for (size_t stride : strides) {
        for (unsigned nw : {1u, 2u, 8u}) {
            ReplayOptions options;
            options.numThreads = nw;
            options.checkpointStride = stride;
            options.checkpointBudgetBytes = size_t{1} << 40;
            ReplayStats stats = expectMatrixIdentical(
                *config_, *traces_, *bug_sets_, *expected_, options,
                "stride=" + std::to_string(stride) +
                    " workers=" + std::to_string(nw));
            if (stride > 0) {
                EXPECT_GT(stats.strideCheckpoints, 0u)
                    << "stride=" << stride;
            }
            if (stats.strideHits > 0) {
                stride_hit_somewhere = true;
                EXPECT_GT(stats.strideResumeCycles, 0u);
                // Resumes land strictly below the first trigger, so
                // the skipped cycles fit inside the jobs'
                // reset-to-trigger leads.
                EXPECT_LE(stats.strideResumeCycles,
                          stats.triggeredLeadCycles);
                EXPECT_LE(stats.triggeredLeadCycles,
                          stats.triggeredJobCycles);
            }
        }
    }
    // The sweep must actually exercise the tier it validates: at
    // least one configuration resumes a triggered job mid-trace.
    EXPECT_TRUE(stride_hit_somewhere);
}

TEST_F(CheckpointFixture, RandomizedPropertyDifferential)
{
    // Property test: random engine configurations and random bug-set
    // subsets must always reproduce the sequential player. Seeded,
    // so a failure is reproducible from the draw index.
    Rng rng(0x7E57C0DE);
    const size_t one = snapshotBytes();
    size_t max_len = 0;
    for (const auto &trace : *traces_)
        max_len = std::max(max_len, trace.cycles.size());

    for (int draw = 0; draw < 8; ++draw) {
        // Random subset of bug sets, donor included half the time.
        std::vector<BugSet> bug_sets;
        std::vector<PlayResult> expected;
        for (size_t b = 0; b < bug_sets_->size(); ++b) {
            if (rng.chance(1, 2))
                continue;
            bug_sets.push_back((*bug_sets_)[b]);
            expected.insert(
                expected.end(),
                expected_->begin() +
                    static_cast<long>(b * traces_->size()),
                expected_->begin() +
                    static_cast<long>((b + 1) * traces_->size()));
        }
        if (bug_sets.empty()) {
            bug_sets.push_back((*bug_sets_)[0]);
            expected.assign(expected_->begin(),
                            expected_->begin() +
                                static_cast<long>(traces_->size()));
        }

        ReplayOptions options;
        options.numThreads = 1 + (unsigned)rng.index(8);
        options.checkpointStride = rng.index(2 * max_len);
        options.checkpointBudgetBytes =
            rng.chance(1, 4) ? 0 : rng.range(one, 64 * one);
        expectMatrixIdentical(
            *config_, *traces_, bug_sets, expected, options,
            "draw " + std::to_string(draw) + " workers=" +
                std::to_string(options.numThreads) + " stride=" +
                std::to_string(options.checkpointStride));
    }
}

// ---------------------------------------------------------------------
// The budget bounds what is held at once, not what is reused.
// ---------------------------------------------------------------------

/** @return the bytes of the stride chain a bug-free run of @p trace
 *  takes at @p stride (snapshots at every boundary short of the
 *  end, as the donor run takes them). */
size_t
chainBytes(const PpConfig &config, const vecgen::TestTrace &trace,
           size_t stride)
{
    rtl::PpCore core(config, rtl::CoreMode::Vector);
    VectorPlayer::primeCore(core, trace, BugSet{});
    size_t bytes = 0;
    for (size_t pos = stride; pos < trace.cycles.size();
         pos += stride) {
        VectorPlayer::drive(core, trace, pos - stride, pos);
        bytes += core.snapshot().bytes();
    }
    return bytes;
}

TEST_F(CheckpointFixture, BudgetBoundsHeldChainsNotHits)
{
    // Each worker holds one row's chain at a time, so a budget that
    // fits about two traces' chains — far less than the whole
    // batch's — must bound the bytes held at once while every stride
    // resume still lands exactly where an unbounded budget puts it.
    constexpr size_t stride = 64;
    size_t largest = 0;
    size_t batch = 0;
    for (const auto &trace : *traces_) {
        const size_t bytes = chainBytes(*config_, trace, stride);
        largest = std::max(largest, bytes);
        batch += bytes;
    }
    const size_t budget = 2 * largest;
    ASSERT_LT(4 * budget, batch)
        << "batch too small for the budget to bind";

    ReplayOptions options;
    options.checkpointStride = stride;
    options.checkpointBudgetBytes = size_t{1} << 40;
    ReplayStats unbounded = expectMatrixIdentical(
        *config_, *traces_, *bug_sets_, *expected_, options,
        "unbounded");
    ASSERT_GT(unbounded.strideHits, 0u);

    options.checkpointBudgetBytes = budget;
    ReplayStats bounded = expectMatrixIdentical(
        *config_, *traces_, *bug_sets_, *expected_, options,
        "two chains");
    EXPECT_EQ(bounded.strideHits, unbounded.strideHits);
    EXPECT_EQ(bounded.bugSetCopies, unbounded.bugSetCopies);
    EXPECT_EQ(bounded.simulatedCycles, unbounded.simulatedCycles);
    EXPECT_GT(bounded.peakCacheBytes, 0u);
    EXPECT_LE(bounded.peakCacheBytes, budget);

    // A budget of two snapshots thins every chain to nearly nothing:
    // cycles may be lost, never bytes, at any stride or worker
    // count, and the bound still holds.
    const size_t tiny = 2 * snapshotBytes();
    for (size_t tiny_stride : {size_t{0}, size_t{64}, size_t{4096}}) {
        for (unsigned nw : {1u, 2u, 8u}) {
            options.numThreads = nw;
            options.checkpointStride = tiny_stride;
            options.checkpointBudgetBytes = tiny;
            ReplayStats stats = expectMatrixIdentical(
                *config_, *traces_, *bug_sets_, *expected_, options,
                "tiny budget stride=" + std::to_string(tiny_stride) +
                    " workers=" + std::to_string(nw));
            EXPECT_LE(stats.peakCacheBytes, tiny);
        }
    }

    // A bug-free batch alone holds nothing: no other bug set can
    // resume from a checkpoint, and no warm cache wants one.
    options = ReplayOptions{};
    options.checkpointStride = stride;
    ReplayStats single = expectMatrixIdentical(
        *config_, *traces_, std::vector<BugSet>{BugSet{}},
        std::vector<PlayResult>(
            expected_->begin(),
            expected_->begin() + static_cast<long>(traces_->size())),
        options, "bug-free only");
    EXPECT_EQ(single.strideCheckpoints, 0u);
    EXPECT_EQ(single.peakCacheBytes, 0u);
}

} // namespace
} // namespace archval::harness
