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
 * stores. Warm records carry no counts, so a batch with a lockstep
 * reference neither reads nor fills the warm cache.
 *
 * Two sharing axes cut a row's simulated cycles. Both rest on one
 * guarantee: every fault effect in rtl::PpCore is strictly guarded by
 * its trigger conjunction, and the core records the first cycle each
 * conjunction held whether or not the bug is enabled
 * (PpCore::bugFirstTrigger). When the batch contains the empty bug
 * set, each row plays it first as the donor:
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
 * any stride or trace length, and frees them when the row is done.
 */

#ifndef ARCHVAL_HARNESS_REPLAY_ENGINE_HH
#define ARCHVAL_HARNESS_REPLAY_ENGINE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/vector_player.hh"

namespace archval::harness
{

/**
 * Cross-batch warm cache — donor reuse across playAll() calls (and
 * across engines: the cache is shared by handle, so a service session
 * or a hunt loop keeps it alive between requests).
 *
 * Every bug-free donor run deposits an entry keyed by the trace's
 * *entire serialized content* (vecgen::serializeTrace — exact-match
 * lookup, so a foreign trace can never borrow a warm result): the
 * donor PlayResult, the first-trigger cycle of every bug, and the
 * donor's pinned stride checkpoints (at most one per bug, see
 * ReplayEngine) as serialized core snapshots. A
 * later batch containing the same trace then reuses the warm entry
 * exactly like an in-batch donor run:
 *
 *  - a job whose bugs never triggered on the donor run copies the
 *    donor result outright (zero cycles simulated);
 *  - a job whose bugs did trigger resumes from the greatest warm
 *    link strictly below its first trigger cycle, with the bug
 *    mask re-armed on restore (PpCore::restoreWithBugs) — the same
 *    validity rule as the in-batch stride checkpoints.
 *
 * Snapshot records are config-fingerprinted; a record that fails to
 * deserialize degrades that job to from-reset replay, never to wrong
 * bytes. Entries are immutable once inserted and evicted whole, LRU,
 * under a byte budget. All operations are thread-safe.
 */
class ReplayWarmCache
{
  public:
    /** @param budget_bytes Whole-cache LRU byte budget. */
    explicit ReplayWarmCache(size_t budget_bytes = 256ull << 20)
        : budget_(budget_bytes)
    {
    }

    /** One pinned donor checkpoint (serialized core snapshot). */
    struct ChainLink
    {
        uint64_t cycle = 0;
        std::vector<uint8_t> snapshot;
    };

    /** One warm entry; immutable once inserted. */
    struct Entry
    {
        std::string key; ///< full serialized trace content
        PlayResult donorResult;
        /** First cycle each bug's trigger conjunction held on the
         *  bug-free run (UINT64_MAX = never). */
        std::array<uint64_t, rtl::numBugs> triggers{};
        /** The donor's pinned links (at most rtl::numBugs),
         *  increasing cycle order. */
        std::vector<ChainLink> chain;
        size_t bytes = 0;             ///< filled by insert()
    };

    /** Cache observability (monotonic over the cache's lifetime). */
    struct Stats
    {
        uint64_t lookups = 0;
        uint64_t hits = 0;
        uint64_t inserts = 0;
        uint64_t evictions = 0;
        size_t bytes = 0;
        size_t entries = 0;
    };

    /** @return the entry whose key equals @p key, or null. */
    std::shared_ptr<const Entry> find(const std::string &key);

    /** Insert @p entry (an existing entry with the same key wins;
     *  LRU entries are evicted past the byte budget; an entry alone
     *  exceeding the budget is dropped).
     *  @return true when @p entry was stored. */
    bool insert(std::shared_ptr<Entry> entry);

    /** @return a point-in-time snapshot of every entry (unordered).
     *  Entries are immutable, so the snapshot stays valid however
     *  long the caller holds it — this is the persistence walk. */
    std::vector<std::shared_ptr<const Entry>> entries() const;

    /**
     * @name Entry persistence
     * One warm entry to/from a self-contained byte record (for the
     * service's disk-backed session store). The record carries its
     * own version stamp and the build's bug count; deserializeEntry
     * returns null on any structural mismatch — a stale or foreign
     * record restores as "not warm", never as wrong bytes. Chain
     * snapshots are opaque here: they stay config-fingerprinted and
     * are re-validated by PpCore::deserializeSnapshot at use time.
     * @{
     */
    static std::vector<uint8_t> serializeEntry(const Entry &entry);
    static std::shared_ptr<Entry>
    deserializeEntry(const uint8_t *data, size_t size);
    /** @} */

    Stats stats() const;

  private:
    struct Slot
    {
        std::shared_ptr<Entry> entry;
        uint64_t lastUse = 0;
    };

    mutable std::mutex mutex_;
    size_t budget_;
    size_t bytes_ = 0;
    uint64_t clock_ = 0;
    uint64_t lookups_ = 0;
    uint64_t hits_ = 0;
    uint64_t inserts_ = 0;
    uint64_t evictions_ = 0;
    std::unordered_map<std::string, Slot> entries_;
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
     * or populates the warm cache: a (trace, bug) job whose bugs
     * triggered on the donor run resumes from the greatest stride
     * snapshot strictly below its first trigger cycle, with the bug
     * mask re-armed at restore. Warm entries keep the same pinned
     * snapshots.
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
     * Cross-batch warm cache (see ReplayWarmCache). When set, jobs
     * consult it before simulating and bug-free donor runs populate
     * it, so a later batch over the same traces skips the donor
     * simulation entirely. Shared: any number of engines (and
     * threads) may hold the same cache.
     */
    std::shared_ptr<ReplayWarmCache> warmCache;

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
    uint64_t checkpointMisses = 0;   ///< warm links that failed to load
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

    /** @name Cross-batch warm cache (ReplayWarmCache) @{ */
    uint64_t warmLookups = 0; ///< traces looked up in the warm cache
    uint64_t warmHits = 0;    ///< traces found warm
    /** Jobs whose whole result was copied from a warm donor entry
     *  (zero cycles simulated). */
    uint64_t warmCopies = 0;
    uint64_t warmChainHits = 0;     ///< jobs resumed from a warm link
    uint64_t warmResumeCycles = 0;  ///< cycles those resumes skipped
    uint64_t warmInserts = 0;       ///< donor entries stored
    /** @} */

    /** @return checkpointHits over planned restores (reads 0; see
     *  checkpointHits). */
    double hitRate() const
    {
        uint64_t planned =
            checkpointHits + checkpointMisses + verifyFallbacks;
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
     * against @p lockstep when it is given. A reference without one
     * tour per trace is rejected (FatalError) before any job runs; a
     * tour whose length differs from its trace's is rejected
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
            const LockstepReference *lockstep = nullptr);

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
