/**
 * @file
 * Checkpoint-accelerated batch replay — the perf core of steps 3–4.
 *
 * The engine plays a batch of tour traces against a list of bug sets
 * (the trace × bug-set matrix of a Table 2.1 hunt) on a worker pool.
 * One trace's row of bug sets is the unit of work: a worker claims
 * the next trace in batch order and plays every job of that row
 * before it claims another. Nothing a row needs lives in another
 * row, so no worker ever waits on another, and every checkpoint
 * lives only as long as its row.
 *
 * Correctness contract: results are byte-identical to playing every
 * trace on a fresh core with VectorPlayer::play, for any worker
 * count and any checkpoint stride. Snapshots are bit-exact
 * whole-machine copies (cycle and retire counters included), so a
 * resumed run is indistinguishable from an uninterrupted one.
 *
 * Lockstep: given a LockstepReference, each job also counts the
 * forced cycles after which the core's control is not on its tour's
 * state, exactly as a from-reset VectorPlayer::drive over that tour
 * counts them; that count is the only field play() leaves 0. A donor
 * copy inherits the donor's count. A job resumed from a pin adds the
 * count the reference run had reached below the pin, which the pin
 * stores. Warm rows carry no counts, so a batch with a lockstep
 * reference neither reads nor fills them.
 *
 * Two sharing axes cut a row's simulated cycles. Both rest on one
 * guarantee: every fault effect in rtl::PpCore is strictly guarded by
 * its trigger conjunction, and the core records the first cycle each
 * conjunction held whether or not the bug is enabled
 * (PpCore::bugFirstTrigger). When the batch contains the empty bug
 * set, each row plays it first as the donor, and the run leaves a
 * RowReference that every later job of the row reads. Given
 * WarmRows, a row whose slot holds a reference recorded on its very
 * trace reads that one instead and runs no donor; the jobs take the
 * same path either way:
 *
 *  - Donor copy: a job whose bugs never triggered on the donor run
 *    reuses the donor's PlayResult outright — the bugged run is
 *    provably bit-identical — and simulates nothing. Since the
 *    Table 2.1 faults are rare multi-event conjunctions, most bugged
 *    jobs collapse to copies.
 *  - Trigger-anchored checkpoints: the donor run snapshots the core
 *    every ReplayOptions::checkpointStride cycles but keeps only the
 *    two newest snapshots; as each bug's first trigger appears (and
 *    once more after the drain) it pins the greatest snapshot
 *    strictly below that trigger. A job whose bugs did trigger
 *    resumes from the greatest pin strictly below its first trigger
 *    cycle, which is the greatest stride snapshot below it, since
 *    that trigger is one of its own bugs' first triggers: below the
 *    trigger the donor's state *is* the bugged state except for the
 *    enabled-bug mask, which the restore re-arms
 *    (PpCore::restoreWithBugs). With no such pin it plays from reset.
 *
 * Memory bound: a worker holds at most 2 + rtl::numBugs snapshots at
 * any stride or trace length, and frees them when the row is done
 * unless warm rows keep its pins.
 */

#ifndef ARCHVAL_HARNESS_REPLAY_ENGINE_HH
#define ARCHVAL_HARNESS_REPLAY_ENGINE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness/vector_player.hh"

namespace archval::harness
{

/** One pinned snapshot of a row's bug-free reference run. */
struct RowLink
{
    uint64_t cycle = 0;
    /** The run's lockstep mismatches over cycles [0, cycle). */
    uint64_t lockstepErrors = 0;
    rtl::PpCore::Snapshot snapshot;
};

/**
 * What a trace row's bug-free reference run leaves for the row's
 * other jobs: its result, the first cycle each bug triggered on it,
 * and its pins (see ReplayEngine). A job whose bugs never triggered
 * copies the result; a triggered job resumes from the greatest pin
 * strictly below its first trigger. Immutable once built, so a row
 * and WarmRows share it by handle.
 */
struct RowReference
{
    PlayResult donorResult;
    /** First cycle each bug's trigger conjunction held on the
     *  bug-free run (UINT64_MAX = never). */
    std::array<uint64_t, rtl::numBugs> triggers{};
    /** At most rtl::numBugs pins, increasing cycle order. */
    std::vector<RowLink> pins;
    /** hashTrace() of the trace the run played. */
    uint64_t traceHash = 0;

    /**
     * @name Persistence
     * One reference to/from a self-contained byte record (for the
     * service's session store), its pins written through
     * PpCore::Snapshot::serialize. The record carries its own
     * version stamp and the build's bug count; deserialize returns
     * null, never aborting, on any structural mismatch and on a pin
     * that PpCore::deserializeSnapshot refuses under @p config, so
     * stored snapshots are checked once, where the bytes enter.
     * @{
     */
    std::vector<uint8_t> serialize() const;
    static std::shared_ptr<const RowReference>
    deserialize(const rtl::PpConfig &config, const uint8_t *data,
                size_t size);
    /** @} */
};

/** @return the 64-bit FNV-1a hash of @p trace's packed cycles and of
 *  its fetch, retired and inbox words: what ties a RowReference to
 *  the trace it was recorded on. */
uint64_t hashTrace(const vecgen::TestTrace &trace);

/**
 * Warm rows: one RowReference slot per trace of the batch the rows
 * belong to, kept across playAll() calls (and engines: the rows are
 * shared by handle, so a service session or a hunt loop keeps them
 * between requests). A batch given warm rows of its own size reads
 * each trace's slot: a reference recorded on that very trace (equal
 * hashTrace()) stands in for the row's donor run, and every other
 * slot is a miss whose bug-free reference run fills it. Two
 * references of one trace are byte-identical, so a put() simply
 * replaces the slot. The rows hold at most rtl::numBugs pins per
 * trace and have no budget. Thread-safe.
 */
class WarmRows
{
  public:
    /** @param rows One empty slot per trace of the batch. */
    explicit WarmRows(size_t rows) : rows_(rows) {}

    size_t size() const { return rows_.size(); }

    /** @return slot @p row's reference, or null when empty. */
    std::shared_ptr<const RowReference> get(size_t row) const;

    /** Replace slot @p row's reference with @p ref. */
    void put(size_t row, std::shared_ptr<const RowReference> ref);

    /** @return every slot (null = empty), in trace order. References
     *  are immutable, so the copy stays valid however long the caller
     *  holds it: this is the persistence walk. */
    std::vector<std::shared_ptr<const RowReference>> rows() const;

    /** @return put() calls so far (the session store's change stamp). */
    uint64_t puts() const;

  private:
    mutable std::mutex mutex_;
    std::vector<std::shared_ptr<const RowReference>> rows_;
    uint64_t puts_ = 0;
};

/**
 * What the lockstep check compares a batch against: the FSM model
 * and state graph its traces were generated from, and each trace's
 * tour (tours[t] drove traces[t]). After forced cycle i of trace t
 * the core's control must equal the state that traversal i of
 * tours[t] enters.
 */
struct LockstepReference
{
    const rtl::PpFsmModel &model;
    const graph::StateGraph &graph;
    const graph::Tours &tours;
};

/** Engine tuning. */
struct ReplayOptions
{
    /** Worker threads; each plays whole trace rows (1 = inline). */
    unsigned numThreads = 1;

    /**
     * Cycle stride of the reference run's snapshots (0 disables
     * them). Only meaningful when the batch has a bug-free donor set
     * or fills warm rows: a (trace, bug) job whose bugs triggered on
     * the donor run resumes from the greatest stride snapshot
     * strictly below its first trigger cycle, with the bug mask
     * re-armed at restore. Warm rows keep the same pins.
     */
    size_t checkpointStride = 1024;

    /**
     * Early exit for hunt loops: once a job diverges, jobs for later
     * traces (within the same bug set) are skipped and returned with
     * PlayResult::skipped set. The first divergence and every result
     * before it are still byte-identical to the sequential path for
     * any worker count.
     */
    bool stopOnDivergence = false;

    /**
     * Cooperative cancellation: when non-null and it reads true,
     * jobs not yet started are skipped (PlayResult::skipped) and
     * playAll returns early. Results produced before the flag was
     * observed are still exact. The flag is only read, never written.
     */
    const std::atomic<bool> *cancelFlag = nullptr;
};

/** Batch statistics (one playAll run). */
struct ReplayStats
{
    uint64_t jobs = 0;            ///< trace × bug-set jobs in the batch
    uint64_t jobsSkipped = 0;     ///< skipped after a divergence
    uint64_t batchCycles = 0;     ///< forced cycles the batch demands
    uint64_t simulatedCycles = 0; ///< core steps actually executed
    uint64_t cyclesAvoided = 0;   ///< cycles reused instead of stepped
    /** Always 0: no job restores a checkpoint taken on another
     *  trace. Kept, with verifyFallbacks and hitRate(), because
     *  reports still print them. */
    uint64_t checkpointHits = 0;
    uint64_t verifyFallbacks = 0;    ///< always 0 (see checkpointHits)
    /** Jobs whose whole result was reused from the trace's bug-free
     *  donor run because none of their bugs ever triggered on it. */
    uint64_t bugSetCopies = 0;
    /** Lockstep mismatches summed over the returned results (0
     *  without a LockstepReference). */
    uint64_t lockstepErrors = 0;
    /** Most snapshot bytes one row held at once: its reference run's
     *  two newest stride snapshots and its pins, at most
     *  2 + rtl::numBugs snapshots (a per-worker maximum). */
    size_t peakCacheBytes = 0;

    /** @name Stride checkpoints @{ */
    uint64_t strideCheckpoints = 0; ///< snapshots reference runs took
    uint64_t strideHits = 0;        ///< triggered jobs resumed from one
    uint64_t strideResumeCycles = 0; ///< cycles skipped by those resumes
    /** Non-donor jobs whose bug set triggered on the donor run (the
     *  jobs only stride checkpoints can accelerate). */
    uint64_t triggeredJobs = 0;
    uint64_t triggeredJobCycles = 0; ///< forced cycles those jobs demand
    /** Cycles standing between reset and the bug set's first trigger,
     *  summed over triggered jobs (capped at the trace length). This
     *  is the pool stride checkpoints can address: everything past
     *  the trigger is the diverged run itself and must be re-stepped
     *  by any scheme. */
    uint64_t triggeredLeadCycles = 0;
    /** @} */

    /** @name Warm rows (WarmRows) @{ */
    uint64_t warmLookups = 0; ///< traces whose warm row was read
    uint64_t warmHits = 0;    ///< traces whose warm row was theirs
    /** Jobs whose whole result was copied from a warm row's donor
     *  result (zero cycles simulated). */
    uint64_t warmCopies = 0;
    uint64_t warmChainHits = 0;     ///< jobs resumed from a warm pin
    uint64_t warmResumeCycles = 0;  ///< cycles those resumes skipped
    uint64_t warmInserts = 0;       ///< warm rows this batch filled
    /** @} */

    /** @return checkpointHits over planned restores (reads 0; see
     *  checkpointHits). */
    double hitRate() const
    {
        uint64_t planned = checkpointHits + verifyFallbacks;
        return planned ? double(checkpointHits) / double(planned) : 0.0;
    }

    /** @return fraction of demanded forced cycles never stepped. */
    double avoidedFraction() const
    {
        return batchCycles ? double(cyclesAvoided) / double(batchCycles)
                           : 0.0;
    }

    /** @return fraction of the triggered jobs' reset-to-trigger lead
     *  cycles skipped by resuming from in-trace donor checkpoints
     *  (the bench gate metric). The lead is the avoidable pool — a
     *  checkpoint substitutes for re-stepping the bug-free prefix,
     *  never for the diverged suffix — so this is avoided/avoidable,
     *  the Table 3.3 "time to re-reach a bug" ratio. */
    double strideSavings() const
    {
        return triggeredLeadCycles
                   ? double(strideResumeCycles) /
                         double(triggeredLeadCycles)
                   : 0.0;
    }
};

/**
 * Replays batches of test traces against bug sets, one trace row per
 * worker at a time. Reusable; stats() reflects the most recent
 * playAll().
 */
class ReplayEngine
{
  public:
    /** @param config Machine configuration (all cores share it). */
    explicit ReplayEngine(const rtl::PpConfig &config,
                          ReplayOptions options = {});

    /**
     * Play every trace against every bug set, checking each job
     * against @p lockstep when it is given, and reading and filling
     * @p warm (one row per trace) when it is given without one. A
     * reference without one tour per trace, and warm rows of another
     * size than the batch, are rejected (FatalError) before any job
     * runs; a tour whose length differs from its trace's is rejected
     * (FatalError) by the worker that claims its row, before the
     * row's first job. A FatalError a job throws (stimulus out of
     * step with the core) reaches the caller at any worker count;
     * the other workers finish the rows they hold and claim no more.
     * A batch that throws leaves stats() with no jobs counted.
     * @return results indexed [b * traces.size() + t], each
     * byte-identical to VectorPlayer(config).play(traces[t],
     * bug_sets[b]) apart from lockstepErrors.
     */
    std::vector<PlayResult>
    playAll(const std::vector<vecgen::TestTrace> &traces,
            const std::vector<rtl::BugSet> &bug_sets,
            const LockstepReference *lockstep = nullptr,
            WarmRows *warm = nullptr);

    /** Single-bug-set convenience overload. */
    std::vector<PlayResult>
    playAll(const std::vector<vecgen::TestTrace> &traces,
            const rtl::BugSet &bugs = {},
            const LockstepReference *lockstep = nullptr);

    /** @return statistics for the most recent playAll(). With more
     *  than one worker, the work counters of a batch cut short by
     *  stopOnDivergence or cancelFlag depend on thread timing; every
     *  other counter is a function of the batch. */
    const ReplayStats &stats() const { return stats_; }

    /** @return the engine's options. */
    const ReplayOptions &options() const { return options_; }

  private:
    rtl::PpConfig config_;
    ReplayOptions options_;
    ReplayStats stats_;
};

} // namespace archval::harness

#endif // ARCHVAL_HARNESS_REPLAY_ENGINE_HH
