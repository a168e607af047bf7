/**
 * @file
 * Trigger-anchored in-trace checkpointing tests (ctest label
 * `checkpoint`).
 *
 * The stride tier rides on four claims, each attacked here:
 *
 *  1. Serialization is lossless: a snapshot that round-trips through
 *     bytes resumes to a bit-identical outcome, damaged snapshot or
 *     warm-row bytes are rejected rather than half-decoded, and a
 *     warm row recorded on another trace is a miss, never a
 *     result.
 *  2. Cross-bug-set restore is sound: below a bug set's first trigger
 *     cycle the bug-free trajectory *is* the bugged trajectory, so
 *     restoring a donor snapshot with the bug mask re-armed
 *     (PpCore::restoreWithBugs) reproduces the bugged run exactly.
 *  3. The engine's results are byte-identical to the sequential
 *     VectorPlayer for every (stride × worker count) combination.
 *  4. Pinning loses no resume point: every triggered job resumes from
 *     the greatest stride boundary below its first trigger, exactly
 *     as a whole chain would, while a row holds at most 2 + numBugs
 *     snapshots.
 *  5. The lockstep count survives sharing: a donor copy and a pin
 *     resume report exactly the mismatches a from-reset run counts,
 *     on tours deliberately put out of step with their traces.
 *  6. One control trajectory per trace: every bug set's run holds the
 *     bug-free run's control answer after every forced cycle, and a
 *     core stepped from those recorded answers stays bit-identical to
 *     one that evaluates its control, so the engine's triggered jobs
 *     step only the datapath.
 *
 * The suite exercises the worker pool, so it is part of the
 * ARCHVAL_SANITIZE=thread build (see README).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <utility>

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
        tours_ = new graph::Tours(tour_gen.run());
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

    /** @return the first @p count traces and their rows of
     *  expected_, in the engine's [b * traces + t] layout. */
    static std::pair<std::vector<vecgen::TestTrace>,
                     std::vector<PlayResult>>
    firstTraces(size_t count)
    {
        const size_t nt = traces_->size();
        count = std::min(count, nt);
        std::vector<vecgen::TestTrace> traces(
            traces_->begin(),
            traces_->begin() + static_cast<long>(count));
        std::vector<PlayResult> expected;
        for (size_t b = 0; b < bug_sets_->size(); ++b)
            for (size_t t = 0; t < count; ++t)
                expected.push_back((*expected_)[b * nt + t]);
        return {std::move(traces), std::move(expected)};
    }

    static PpConfig *config_;
    static PpFsmModel *model_;
    static graph::StateGraph *graph_;
    static graph::Tours *tours_;
    static std::vector<vecgen::TestTrace> *traces_;
    static std::vector<BugSet> *bug_sets_;
    static std::vector<PlayResult> *expected_;
};

PpConfig *CheckpointFixture::config_ = nullptr;
PpFsmModel *CheckpointFixture::model_ = nullptr;
graph::StateGraph *CheckpointFixture::graph_ = nullptr;
graph::Tours *CheckpointFixture::tours_ = nullptr;
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

/** Run the engine under @p options (and @p warm, when given) over
 *  the fixture matrix and require byte-identical results. @return the
 *  run's stats. */
ReplayStats
expectMatrixIdentical(const PpConfig &config,
                      const std::vector<vecgen::TestTrace> &traces,
                      const std::vector<BugSet> &bug_sets,
                      const std::vector<PlayResult> &expected,
                      const ReplayOptions &options,
                      const std::string &what, WarmRows *warm = nullptr)
{
    ReplayEngine engine(config, options);
    std::vector<PlayResult> actual =
        engine.playAll(traces, bug_sets, nullptr, warm);
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
    expectSameResult(
        fresh,
        VectorPlayer::finish(*config_, resumed,
                             VectorPlayer::specState(*config_, trace)),
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

/** Overwrite the little-endian @p width-byte field at @p offset. */
void
pokeLe(std::vector<uint8_t> &bytes, size_t offset, uint64_t value,
       size_t width)
{
    for (size_t i = 0; i < width; ++i)
        bytes[offset + i] = static_cast<uint8_t>(value >> (8 * i));
}

/** @return @p record with its snapshot version field (the u32 after
 *  the magic) set to the previous version, 2. */
std::vector<uint8_t>
previousSnapshotVersion(std::vector<uint8_t> record)
{
    pokeLe(record, 4, 2, 4);
    return record;
}

TEST_F(CheckpointFixture, PreviousSnapshotVersionIsRefused)
{
    // A version-2 record holds its padded blocks as raw memory, so
    // its bytes would be misread as today's layout. The version
    // field refuses it (a warm row pin holding one is a restore
    // failure: see RowRecordRoundTripsAndRejectsDamage).
    const vecgen::TestTrace &trace = traces_->front();
    rtl::PpCore core(*config_, rtl::CoreMode::Vector);
    VectorPlayer::primeCore(core, trace, BugSet{});
    VectorPlayer::drive(core, trace, 0, trace.cycles.size() / 2);
    const std::vector<uint8_t> bytes = core.snapshot().serialize();
    ASSERT_TRUE(rtl::PpCore::deserializeSnapshot(
                    *config_, rtl::CoreMode::Vector, bytes.data(),
                    bytes.size())
                    .valid());
    const std::vector<uint8_t> old = previousSnapshotVersion(bytes);
    EXPECT_FALSE(rtl::PpCore::deserializeSnapshot(
                     *config_, rtl::CoreMode::Vector, old.data(),
                     old.size())
                     .valid());
}

TEST_F(CheckpointFixture, ByteFlippedRecordsAreRefusedOrResumeInBounds)
{
    // Each of a mid-trace record's first 400 bytes after the 32-byte
    // header (the control state, whose first byte is RD's class, the
    // control outputs, the timing, the bug mask, the registers and
    // the start of dmem) and of its last 600 bytes (the
    // stream's tail, the pipeline packets, the pending store and the
    // bug bookkeeping) set in turn to 0xff, 0x40, 0x03 and 0x02. A
    // record deserializeSnapshot accepts must resume, bug-free and
    // with every bug on, and play through the trace's end and the
    // drain without indexing out of bounds, loading a bool or an enum
    // outside its values, or reaching a panic (RD's class set to
    // Store, 0x03, with no store in RD did): the sanitizer builds turn
    // the first two into a failure here, and a panic aborts the test.
    // Stimulus the damaged core cannot follow (a stream word flipped
    // to another class, or to HALT) throws FatalError.
    const vecgen::TestTrace &trace = traces_->front();
    const size_t half = trace.cycles.size() / 2;
    rtl::PpCore core(*config_, rtl::CoreMode::Vector);
    VectorPlayer::primeCore(core, trace, BugSet{});
    VectorPlayer::drive(core, trace, 0, half);
    const std::vector<uint8_t> bytes = core.snapshot().serialize();
    constexpr size_t header = 32;
    ASSERT_GT(bytes.size(), header + 400 + 600);
    const pp::ArchState spec = VectorPlayer::specState(*config_, trace);
    BugSet all_bugs;
    all_bugs.set();

    std::vector<size_t> offsets;
    for (size_t at = header; at < header + 400; ++at)
        offsets.push_back(at);
    for (size_t at = bytes.size() - 600; at < bytes.size(); ++at)
        offsets.push_back(at);
    size_t accepted = 0;
    size_t refused = 0;
    for (size_t at : offsets) {
        for (uint8_t value : {uint8_t{0xff}, uint8_t{0x40}, uint8_t{0x03},
                              uint8_t{0x02}}) {
            if (bytes[at] == value)
                continue;
            std::vector<uint8_t> damaged = bytes;
            damaged[at] = value;
            const rtl::PpCore::Snapshot snap =
                rtl::PpCore::deserializeSnapshot(
                    *config_, rtl::CoreMode::Vector, damaged.data(),
                    damaged.size());
            if (!snap.valid()) {
                ++refused;
                continue;
            }
            ++accepted;
            for (const BugSet &bugs : {BugSet{}, all_bugs}) {
                rtl::PpCore resumed(*config_, rtl::CoreMode::Vector);
                resumed.restoreWithBugs(snap, bugs);
                try {
                    VectorPlayer::drive(resumed, trace, half,
                                        trace.cycles.size());
                    VectorPlayer::finish(*config_, resumed, spec);
                } catch (const FatalError &) {
                }
            }
        }
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(refused, 0u);
}

TEST_F(CheckpointFixture, RowRecordRoundTripsAndRejectsDamage)
{
    // The row with the most pins, as the session store writes it,
    // with a diverged donor result and lockstep counts set so every
    // field of the record carries a value.
    WarmRows rows(traces_->size());
    ReplayOptions options;
    options.checkpointStride = 64;
    ReplayEngine(*config_, options)
        .playAll(*traces_, *bug_sets_, nullptr, &rows);
    std::shared_ptr<const RowReference> most;
    for (const auto &candidate : rows.rows()) {
        ASSERT_NE(candidate, nullptr);
        if (!most || candidate->pins.size() > most->pins.size())
            most = candidate;
    }
    ASSERT_GE(most->pins.size(), 2u);
    auto row = std::make_shared<RowReference>(*most);
    row->donorResult.diverged = true;
    row->donorResult.diff = "r3: 1 != 2";
    row->donorResult.lockstepErrors = 3;
    row->pins[1].lockstepErrors = 2;
    const std::vector<uint8_t> bytes = row->serialize();
    auto decode = [&](const std::vector<uint8_t> &record, size_t size) {
        return RowReference::deserialize(*config_, record.data(), size);
    };

    std::shared_ptr<const RowReference> back = decode(bytes, bytes.size());
    ASSERT_NE(back, nullptr);
    expectSameResult(row->donorResult, back->donorResult,
                     "round-tripped donor result");
    EXPECT_EQ(back->triggers, row->triggers);
    EXPECT_EQ(back->traceHash, row->traceHash);
    ASSERT_EQ(back->pins.size(), row->pins.size());
    for (size_t i = 0; i < row->pins.size(); ++i) {
        EXPECT_EQ(back->pins[i].cycle, row->pins[i].cycle);
        EXPECT_EQ(back->pins[i].lockstepErrors, row->pins[i].lockstepErrors);
        EXPECT_EQ(back->pins[i].snapshot.serialize(),
                  row->pins[i].snapshot.serialize());
    }
    EXPECT_EQ(back->serialize(), bytes);

    // Every strict prefix is a truncated record.
    for (size_t keep = 0; keep < bytes.size(); ++keep)
        EXPECT_EQ(decode(bytes, keep), nullptr) << "prefix " << keep;

    // One trailing byte is damage too.
    std::vector<uint8_t> longer = bytes;
    longer.push_back(0);
    EXPECT_EQ(decode(longer, longer.size()), nullptr);

    // The record layout: version (u32), trace hash (u64), the donor
    // result (u8, length-prefixed diff, three u64, two u8), the bug
    // count (u32), the triggers (u64 each), the pin count (u64), then
    // per pin its cycle and lockstep count (u64 each) and its
    // length-prefixed snapshot record.
    const size_t bugs_at = 4 + 8 + 1 + 8 + row->donorResult.diff.size() +
                           3 * 8 + 2;
    const size_t count_at = bugs_at + 4 + 8 * rtl::numBugs;
    const size_t pin_at = count_at + 8;
    const size_t snapshot_at = pin_at + 8 + 8 + 8;

    std::vector<uint8_t> damaged = bytes;
    pokeLe(damaged, 0, 1, 4);
    EXPECT_EQ(decode(damaged, damaged.size()), nullptr) << "version";

    damaged = bytes;
    pokeLe(damaged, bugs_at, rtl::numBugs + 1, 4);
    EXPECT_EQ(decode(damaged, damaged.size()), nullptr) << "bug count";

    for (uint64_t count : {uint64_t{row->pins.size() + 1},
                           uint64_t{rtl::numBugs + 1}, UINT64_MAX}) {
        damaged = bytes;
        pokeLe(damaged, count_at, count, 8);
        EXPECT_EQ(decode(damaged, damaged.size()), nullptr)
            << "pin count " << count;
    }

    damaged = bytes;
    pokeLe(damaged, pin_at, row->pins[0].cycle + 1, 8);
    EXPECT_EQ(decode(damaged, damaged.size()), nullptr)
        << "pin cycle off its snapshot's";

    damaged = bytes;
    pokeLe(damaged, snapshot_at + 4, 2, 4);
    EXPECT_EQ(decode(damaged, damaged.size()), nullptr)
        << "pin of the previous snapshot version";

    // Every single-byte flip either decodes to some row or returns
    // null; it never reads out of bounds or aborts (the sanitizer
    // builds turn an overrun into a failure here).
    size_t rejected = 0;
    for (size_t at = 0; at < bytes.size(); ++at) {
        for (uint8_t mask : {uint8_t{0x01}, uint8_t{0xFF}}) {
            damaged = bytes;
            damaged[at] ^= mask;
            rejected += decode(damaged, damaged.size()) == nullptr;
        }
    }
    EXPECT_GT(rejected, 0u);
}

TEST_F(CheckpointFixture, SwappedTracesMissTheirRowsAndRefillThem)
{
    // Rows filled for the fixture's traces, then a batch with the
    // first two traces swapped: each of those rows now sits under a
    // trace it was not recorded on, so both miss and are replaced by
    // their new traces' reference runs, and every result still
    // matches the sequential player.
    const size_t nt = traces_->size();
    ReplayOptions options;
    options.numThreads = 2;
    options.checkpointStride = 64;
    WarmRows rows(nt);
    const ReplayStats cold = expectMatrixIdentical(
        *config_, *traces_, *bug_sets_, *expected_, options, "cold", &rows);
    ASSERT_EQ(cold.warmInserts, nt);
    const auto before = rows.rows();

    std::vector<vecgen::TestTrace> swapped = *traces_;
    std::swap(swapped[0], swapped[1]);
    ASSERT_NE(hashTrace(swapped[0]), hashTrace(swapped[1]));
    std::vector<PlayResult> expected = *expected_;
    for (size_t b = 0; b < bug_sets_->size(); ++b)
        std::swap(expected[b * nt], expected[b * nt + 1]);

    const ReplayStats hot = expectMatrixIdentical(
        *config_, swapped, *bug_sets_, expected, options, "swapped", &rows);
    EXPECT_EQ(hot.warmLookups, nt);
    EXPECT_EQ(hot.warmHits, nt - 2);
    EXPECT_EQ(hot.warmInserts, 2u);
    const auto after = rows.rows();
    for (size_t t = 0; t < nt; ++t) {
        ASSERT_NE(after[t], nullptr) << t;
        EXPECT_EQ(after[t]->traceHash, hashTrace(swapped[t])) << t;
        if (t >= 2) {
            EXPECT_EQ(after[t], before[t]) << t;
        }
    }

    // The refilled rows are the swapped traces' own: a repeat hits
    // every row.
    const ReplayStats again = expectMatrixIdentical(
        *config_, swapped, *bug_sets_, expected, options, "again", &rows);
    EXPECT_EQ(again.warmHits, nt);
    EXPECT_EQ(again.warmInserts, 0u);
}

TEST_F(CheckpointFixture, RowsOfAnotherSizeAreRejected)
{
    // Rows belong to a batch: rows of another size are rejected
    // (FatalError) before any job runs, at one worker or several.
    const size_t nt = traces_->size();
    for (unsigned workers : {1u, 4u}) {
        SCOPED_TRACE(workers);
        ReplayOptions options;
        options.numThreads = workers;
        ReplayEngine engine(*config_, options);
        for (size_t size : {nt - 1, nt + 1}) {
            WarmRows rows(size);
            EXPECT_THROW(
                engine.playAll(*traces_, *bug_sets_, nullptr, &rows),
                FatalError)
                << size;
            EXPECT_EQ(engine.stats().jobs, 0u) << size;
            EXPECT_EQ(rows.puts(), 0u) << size;
        }
    }
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
        const pp::ArchState spec =
            VectorPlayer::specState(*config_, trace);
        VectorPlayer::finish(*config_, donor, spec);

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
        PlayResult result = VectorPlayer::finish(*config_, resumed, spec);

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
    // The acceptance sweep: stride × worker count, all six Table 2.1
    // bug sets plus the bug-free donor.
    const size_t strides[] = {0, 64, 4096};
    bool stride_hit_somewhere = false;

    for (size_t stride : strides) {
        for (unsigned nw : {1u, 2u, 8u}) {
            ReplayOptions options;
            options.numThreads = nw;
            options.checkpointStride = stride;
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
        expectMatrixIdentical(
            *config_, *traces_, bug_sets, expected, options,
            "draw " + std::to_string(draw) + " workers=" +
                std::to_string(options.numThreads) + " stride=" +
                std::to_string(options.checkpointStride));
    }
}

// ---------------------------------------------------------------------
// Claim 4: pins resume where the whole chain would, from a bounded set.
// ---------------------------------------------------------------------

/** Stride 1 snapshots every cycle, so its sweeps take only this many
 *  traces (still more than the widest worker pool). */
constexpr size_t kStrideOneTraces = 10;

/** @return each bug's first-trigger cycle on a bug-free run of
 *  @p trace (UINT64_MAX = never). */
std::array<uint64_t, rtl::numBugs>
bugFreeTriggers(const PpConfig &config, const vecgen::TestTrace &trace)
{
    rtl::PpCore core(config, rtl::CoreMode::Vector);
    VectorPlayer::primeCore(core, trace, BugSet{});
    VectorPlayer::drive(core, trace, 0, trace.cycles.size());
    VectorPlayer::finish(config, core,
                         VectorPlayer::specState(config, trace));
    std::array<uint64_t, rtl::numBugs> triggers{};
    for (size_t b = 0; b < rtl::numBugs; ++b)
        triggers[b] = core.bugFirstTrigger(static_cast<BugId>(b));
    return triggers;
}

TEST_F(CheckpointFixture, StrideResumesLandOnGreatestBoundaryBelowTrigger)
{
    // The resume rule, computed here from bug-free runs alone: a
    // triggered single-bug job resumes from the greatest multiple of
    // the stride that is at least the stride and lies below both the
    // trace length and the bug's first trigger; with none, it plays
    // from reset. At stride 1 every trigger lands on the newest
    // snapshot when it is seen, so the pin is the one before it.
    for (size_t stride : {size_t{1}, size_t{3}, size_t{64}, size_t{1024}}) {
        auto [traces, expected] =
            firstTraces(stride == 1 ? kStrideOneTraces : traces_->size());
        uint64_t hits = 0;
        uint64_t resume_cycles = 0;
        for (const auto &trace : traces) {
            const auto triggers = bugFreeTriggers(*config_, trace);
            for (uint64_t first : triggers) {
                const uint64_t limit =
                    std::min<uint64_t>(first, trace.cycles.size());
                if (first == UINT64_MAX || limit <= stride)
                    continue;
                ++hits;
                resume_cycles += (limit - 1) / stride * stride;
            }
        }
        ASSERT_GT(hits, 0u) << "stride=" << stride;

        for (unsigned nw : {1u, 8u}) {
            ReplayOptions options;
            options.numThreads = nw;
            options.checkpointStride = stride;
            ReplayStats stats = expectMatrixIdentical(
                *config_, traces, *bug_sets_, expected, options,
                "stride=" + std::to_string(stride) +
                    " workers=" + std::to_string(nw));
            EXPECT_EQ(stats.strideHits, hits)
                << "stride=" << stride << " workers=" << nw;
            EXPECT_EQ(stats.strideResumeCycles, resume_cycles)
                << "stride=" << stride << " workers=" << nw;
        }
    }
}

/** @return the largest snapshot a bug-free run of any of @p traces
 *  takes at a @p stride boundary. */
size_t
largestSnapshotBytes(const PpConfig &config,
                     const std::vector<vecgen::TestTrace> &traces,
                     size_t stride)
{
    size_t largest = 0;
    for (const auto &trace : traces) {
        rtl::PpCore core(config, rtl::CoreMode::Vector);
        VectorPlayer::primeCore(core, trace, BugSet{});
        for (size_t pos = stride; pos < trace.cycles.size();
             pos += stride) {
            VectorPlayer::drive(core, trace, pos - stride, pos);
            largest = std::max(largest, core.snapshot().bytes());
        }
    }
    return largest;
}

TEST_F(CheckpointFixture, HeldCheckpointsAreBoundedPerRow)
{
    // A row holds its reference run's two newest snapshots and at
    // most one pin per bug, whatever the stride, trace length or
    // worker count — far less than a whole chain at these strides.
    for (size_t stride : {size_t{1}, size_t{64}}) {
        auto [traces, expected] =
            firstTraces(stride == 1 ? kStrideOneTraces : traces_->size());
        const size_t bound = (2 + rtl::numBugs) *
                             largestSnapshotBytes(*config_, traces, stride);
        for (unsigned nw : {1u, 8u}) {
            ReplayOptions options;
            options.numThreads = nw;
            options.checkpointStride = stride;
            ReplayStats stats = expectMatrixIdentical(
                *config_, traces, *bug_sets_, expected, options,
                "stride=" + std::to_string(stride) +
                    " workers=" + std::to_string(nw));
            EXPECT_GT(stats.strideHits, 0u) << "stride=" << stride;
            EXPECT_GT(stats.peakCacheBytes, 0u) << "stride=" << stride;
            EXPECT_LE(stats.peakCacheBytes, bound)
                << "stride=" << stride << " workers=" << nw;
        }
    }

    // A bug-free batch alone holds nothing: no other bug set can
    // resume from a checkpoint, and no warm row wants one.
    ReplayOptions options;
    options.checkpointStride = 64;
    ReplayStats single = expectMatrixIdentical(
        *config_, *traces_, std::vector<BugSet>{BugSet{}},
        std::vector<PlayResult>(
            expected_->begin(),
            expected_->begin() + static_cast<long>(traces_->size())),
        options, "bug-free only");
    EXPECT_EQ(single.strideCheckpoints, 0u);
    EXPECT_EQ(single.peakCacheBytes, 0u);
}

// ---------------------------------------------------------------------
// Claim 5: the lockstep count survives donor copies and pin resumes.
// ---------------------------------------------------------------------

/**
 * @return the first run edge k of tour @p t whose cycle c has
 * @p from <= c and c + 1 < @p to, such that run edges k and k + 1 lie
 * inside one run away from its ends (the legs around the run stay as
 * they are) and lead to different states; SIZE_MAX when none does.
 */
size_t
swappableAt(const graph::StateGraph &graph, const graph::Tours &tours,
            size_t t, size_t from, size_t to)
{
    const graph::Trace &tour = tours[t];
    const graph::Routes &routes = tours.routes();
    size_t cycle = 0; // the cycle of the current run's first edge
    for (size_t run = 0; run <= tour.runEnds.size(); ++run) {
        const size_t begin = run == 0 ? 0 : tour.runEnds[run - 1];
        const size_t end = run < tour.runEnds.size() ? tour.runEnds[run]
                                                     : tour.edges.size();
        const graph::StateId leg_from =
            run == 0 ? graph.resetState()
                     : graph.edge(tour.edges[begin - 1]).dst;
        cycle += routes.toReset().depth[leg_from] +
                 routes.fromReset()
                     .depth[graph.source(tour.edges[begin])];
        for (size_t k = begin + 1; k + 2 < end; ++k) {
            const size_t c = cycle + (k - begin);
            if (c >= from && c + 1 < to &&
                graph.edge(tour.edges[k]).dst !=
                    graph.edge(tour.edges[k + 1]).dst)
                return k;
        }
        cycle += end - begin;
    }
    return SIZE_MAX;
}

/** @return @p tour with edges @p k and k + 1 swapped. The trace
 *  still drives the core down the original path, so the tour is out
 *  of step with it after both cycles. */
graph::Trace
swapped(const graph::Trace &tour, size_t k)
{
    graph::Trace out = tour;
    std::swap(out.edges[k], out.edges[k + 1]);
    return out;
}

TEST_F(CheckpointFixture, LockstepCountSurvivesCopiesAndResumes)
{
    const std::vector<rtl::PpControlState> states =
        VectorPlayer::expectedStates(*model_, *graph_);
    VectorPlayer player(*config_);

    for (size_t stride : {size_t{64}, size_t{1024}}) {
        // A trace and a bug that first triggers past a stride
        // boundary, twice: with a swap below the pin, and with one
        // above it. Then a trace that bug never triggers on.
        std::vector<vecgen::TestTrace> traces;
        std::vector<graph::Trace> swaps;
        size_t bug = rtl::numBugs;
        for (size_t t = 0; t < traces_->size() && traces.empty(); ++t) {
            const vecgen::TestTrace &trace = (*traces_)[t];
            const graph::Trace &tour = (*tours_)[t];
            const size_t len = trace.cycles.size();
            const auto triggers = bugFreeTriggers(*config_, trace);
            for (size_t b = 0; b < rtl::numBugs; ++b) {
                const uint64_t limit =
                    std::min<uint64_t>(triggers[b], len);
                if (triggers[b] == UINT64_MAX || limit <= stride)
                    continue;
                const size_t pin = (limit - 1) / stride * stride;
                const size_t below =
                    swappableAt(*graph_, *tours_, t, 0, pin);
                const size_t above =
                    swappableAt(*graph_, *tours_, t, pin, len);
                if (below == SIZE_MAX || above == SIZE_MAX)
                    continue;
                bug = b;
                traces.assign(2, trace);
                swaps = {swapped(tour, below), swapped(tour, above)};
                break;
            }
        }
        ASSERT_EQ(traces.size(), 2u) << "stride=" << stride;
        for (size_t t = 0; t < traces_->size(); ++t) {
            const vecgen::TestTrace &trace = (*traces_)[t];
            const size_t k = swappableAt(*graph_, *tours_, t, 0,
                                         trace.cycles.size());
            if (bugFreeTriggers(*config_, trace)[bug] == UINT64_MAX &&
                k != SIZE_MAX) {
                traces.push_back(trace);
                swaps.push_back(swapped((*tours_)[t], k));
                break;
            }
        }
        ASSERT_EQ(traces.size(), 3u) << "stride=" << stride;
        // Resumed jobs seek their tour past legs through reset.
        for (const graph::Trace &swap : swaps)
            ASSERT_FALSE(swap.runEnds.empty()) << "stride=" << stride;

        const graph::Tours tours(tours_->routes(), swaps);
        const LockstepReference lockstep{*model_, *graph_, tours};
        std::vector<BugSet> bug_sets(2);
        bug_sets[1].set(bug);

        // The independent count: each job from reset, checked by
        // VectorPlayer::drive; every other field from play().
        std::vector<PlayResult> expected;
        uint64_t expected_errors = 0;
        for (const BugSet &bugs : bug_sets) {
            for (size_t t = 0; t < traces.size(); ++t) {
                rtl::PpCore core(*config_, rtl::CoreMode::Vector);
                VectorPlayer::primeCore(core, traces[t], bugs);
                graph::TraceCursor tour = tours.cursor(*graph_, t);
                const VectorPlayer::LockstepSpec spec{states.data(),
                                                      &tour};
                PlayResult result = player.play(traces[t], bugs);
                result.lockstepErrors = VectorPlayer::drive(
                    core, traces[t], 0, traces[t].cycles.size(), &spec);
                EXPECT_GE(result.lockstepErrors, 2u)
                    << "the swap must put the tour out of step";
                expected_errors += result.lockstepErrors;
                expected.push_back(result);
            }
        }

        for (unsigned nw : {1u, 4u}) {
            const std::string what = "stride=" + std::to_string(stride) +
                                     " workers=" + std::to_string(nw);
            ReplayOptions options;
            options.numThreads = nw;
            options.checkpointStride = stride;

            // Both bug sets: the bugged jobs of the first two rows
            // resume from the pin (one swap below it, one above), the
            // third row's bugged job copies the donor.
            ReplayEngine engine(*config_, options);
            std::vector<PlayResult> actual =
                engine.playAll(traces, bug_sets, &lockstep);
            ASSERT_EQ(actual.size(), expected.size()) << what;
            for (size_t i = 0; i < expected.size(); ++i)
                expectSameResult(expected[i], actual[i],
                                 what + " job " + std::to_string(i));
            EXPECT_EQ(engine.stats().strideHits, 2u) << what;
            EXPECT_EQ(engine.stats().bugSetCopies, 1u) << what;
            EXPECT_EQ(engine.stats().lockstepErrors, expected_errors)
                << what;

            // The bug set alone: every job plays from reset.
            std::vector<PlayResult> alone =
                engine.playAll(traces, bug_sets[1], &lockstep);
            ASSERT_EQ(alone.size(), traces.size()) << what;
            for (size_t t = 0; t < traces.size(); ++t)
                expectSameResult(expected[traces.size() + t], alone[t],
                                 what + " alone trace " +
                                     std::to_string(t));
            EXPECT_EQ(engine.stats().strideHits, 0u) << what;
        }

        // Warm rows carry no lockstep counts: a checked batch neither
        // reads rows an unchecked batch filled nor fills them.
        ReplayOptions options;
        options.checkpointStride = stride;
        ReplayEngine warm(*config_, options);
        WarmRows rows(traces.size());
        warm.playAll(traces, bug_sets, nullptr, &rows);
        ASSERT_EQ(rows.puts(), traces.size());
        std::vector<PlayResult> actual =
            warm.playAll(traces, bug_sets, &lockstep, &rows);
        for (size_t i = 0; i < expected.size(); ++i)
            expectSameResult(expected[i], actual[i],
                             "warm rows job " + std::to_string(i));
        EXPECT_EQ(warm.stats().warmLookups, 0u);
        EXPECT_EQ(warm.stats().warmHits, 0u);
        EXPECT_EQ(rows.puts(), traces.size());
    }
}

// ---------------------------------------------------------------------
// Claim 6: one control trajectory per trace, whatever the bugs.
// ---------------------------------------------------------------------

/** @return the control answer after each forced cycle of @p trace
 *  played under @p bugs with its control evaluated. */
std::vector<rtl::ControlAnswer>
recordControl(const PpConfig &config, const vecgen::TestTrace &trace,
              const BugSet &bugs)
{
    std::vector<rtl::ControlAnswer> answers(trace.cycles.size());
    rtl::PpCore core(config, rtl::CoreMode::Vector);
    VectorPlayer::primeCore(core, trace, bugs);
    VectorPlayer::drive(core, trace, 0, trace.cycles.size(), nullptr,
                        {ControlTape::Use::Record, answers.data()});
    return answers;
}

TEST_F(CheckpointFixture, ControlAnswersDoNotDependOnTheBugs)
{
    // The premise of recorded control: every fault effect lands on
    // data, never on the control, so after every forced cycle each
    // bug set's run holds the bug-free run's control state and
    // outputs. A fault effect that reached the control fails here.
    size_t diverged = 0;
    for (size_t t = 0; t < traces_->size(); ++t) {
        const vecgen::TestTrace &trace = (*traces_)[t];
        const auto reference = recordControl(*config_, trace, BugSet{});
        for (size_t b = 1; b < bug_sets_->size(); ++b) {
            const auto answers =
                recordControl(*config_, trace, (*bug_sets_)[b]);
            const auto at = std::mismatch(answers.begin(), answers.end(),
                                          reference.begin())
                                .first;
            EXPECT_EQ(at, answers.end())
                << "trace " << t << " bugs " << (*bug_sets_)[b]
                << ": control leaves the bug-free run's at cycle "
                << (at - answers.begin());
            diverged += (*expected_)[b * traces_->size() + t].diverged;
        }
    }
    // The bugs must actually fire, or the premise went untested.
    EXPECT_GT(diverged, 0u);
}

TEST_F(CheckpointFixture, RecordedControlStepsBitIdentically)
{
    // Under every bug set, a core stepped from the bug-free run's
    // recorded control answers writes the record bytes of one that
    // evaluates its control at every 64th cycle, and finishes to the
    // sequential player's result.
    const size_t nt = traces_->size();
    for (size_t t = 0; t < nt; ++t) {
        const vecgen::TestTrace &trace = (*traces_)[t];
        const size_t len = trace.cycles.size();
        std::vector<rtl::ControlAnswer> answers =
            recordControl(*config_, trace, BugSet{});
        const pp::ArchState spec = VectorPlayer::specState(*config_, trace);
        for (size_t b = 0; b < bug_sets_->size(); ++b) {
            const BugSet &bugs = (*bug_sets_)[b];
            const std::string what = "trace " + std::to_string(t) +
                                     " bugs " + bugs.to_string();
            rtl::PpCore evaluated(*config_, rtl::CoreMode::Vector);
            rtl::PpCore replayed(*config_, rtl::CoreMode::Vector);
            VectorPlayer::primeCore(evaluated, trace, bugs);
            VectorPlayer::primeCore(replayed, trace, bugs);
            for (size_t pos = 0; pos < len;) {
                const size_t stop = std::min(len, pos + 64);
                VectorPlayer::drive(evaluated, trace, pos, stop);
                VectorPlayer::drive(
                    replayed, trace, pos, stop, nullptr,
                    {ControlTape::Use::Replay, answers.data()});
                pos = stop;
                ASSERT_EQ(replayed.snapshot().serialize(),
                          evaluated.snapshot().serialize())
                    << what << " cycle " << pos;
            }
            expectSameResult((*expected_)[b * nt + t],
                             VectorPlayer::finish(*config_, replayed, spec),
                             what);
        }
    }
}

TEST_F(CheckpointFixture, TriggeredJobsStepFromTheDonorsControl)
{
    // With a donor in the batch, every triggered job steps the forced
    // cycles past its resume point from the donor's recorded control.
    // A one-set batch records nothing, and a warm hit has no donor run
    // to record: both evaluate the control.
    const size_t nt = traces_->size();
    for (size_t stride : {size_t{0}, size_t{64}}) {
        for (unsigned nw : {1u, 4u}) {
            const std::string what = "stride=" + std::to_string(stride) +
                                     " workers=" + std::to_string(nw);
            ReplayOptions options;
            options.numThreads = nw;
            options.checkpointStride = stride;
            const ReplayStats stats = expectMatrixIdentical(
                *config_, *traces_, *bug_sets_, *expected_, options, what);
            EXPECT_GT(stats.triggeredJobs, 0u) << what;
            EXPECT_EQ(stats.controlReplayCycles,
                      stats.triggeredJobCycles - stats.strideResumeCycles)
                << what;

            for (size_t b : {size_t{0}, size_t{1}}) {
                const ReplayStats one = expectMatrixIdentical(
                    *config_, *traces_, {(*bug_sets_)[b]},
                    std::vector<PlayResult>(
                        expected_->begin() + static_cast<long>(b * nt),
                        expected_->begin() +
                            static_cast<long>((b + 1) * nt)),
                    options, what + " set " + std::to_string(b) + " alone");
                EXPECT_EQ(one.controlReplayCycles, 0u) << what;
            }
        }
    }

    ReplayOptions options;
    options.checkpointStride = 64;
    WarmRows rows(nt);
    const ReplayStats cold = expectMatrixIdentical(
        *config_, *traces_, *bug_sets_, *expected_, options, "cold", &rows);
    EXPECT_GT(cold.controlReplayCycles, 0u);
    const ReplayStats warm = expectMatrixIdentical(
        *config_, *traces_, *bug_sets_, *expected_, options, "warm", &rows);
    EXPECT_EQ(warm.warmHits, nt);
    EXPECT_GT(warm.triggeredJobs, 0u);
    EXPECT_EQ(warm.controlReplayCycles, 0u);
}

TEST_F(CheckpointFixture, LockstepRejectsToursOutOfShape)
{
    // The engine rejects a reference without one tour per trace
    // before any job runs, and a tour whose length is not its
    // trace's on the worker that claims its row; either way the
    // caller gets a FatalError and no jobs are counted, at one
    // worker or several.
    std::vector<graph::Trace> traces = tours_->traces();
    traces.back().edges.pop_back();
    const graph::Tours short_tours(tours_->routes(), traces);
    const LockstepReference short_tour{*model_, *graph_, short_tours};
    traces.pop_back();
    const graph::Tours fewer_tours(tours_->routes(), traces);
    const LockstepReference missing{*model_, *graph_, fewer_tours};
    for (unsigned workers : {1u, 4u}) {
        SCOPED_TRACE(workers);
        ReplayOptions options;
        options.numThreads = workers;
        ReplayEngine engine(*config_, options);
        EXPECT_THROW(engine.playAll(*traces_, *bug_sets_, &short_tour),
                     FatalError);
        EXPECT_EQ(engine.stats().jobs, 0u);
        EXPECT_THROW(engine.playAll(*traces_, *bug_sets_, &missing),
                     FatalError);
        EXPECT_EQ(engine.stats().jobs, 0u);
    }
}

} // namespace
} // namespace archval::harness
