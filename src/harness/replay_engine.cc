#include "replay_engine.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

#include "support/status.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"

namespace archval::harness
{

namespace
{

/** @return the greatest of @p links (increasing cycle order) strictly
 *  below cycle @p limit, or null when none qualifies. */
const RowLink *
linkBelow(const std::vector<RowLink> &links, uint64_t limit)
{
    for (size_t i = links.size(); i-- > 0;) {
        if (links[i].cycle < limit)
            return &links[i];
    }
    return nullptr;
}

/**
 * The checkpoints a row keeps from its bug-free reference run (the
 * donor, or a run that fills a warm row). Only the two newest stride
 * snapshots roll along; as each bug's first trigger appears, the
 * greatest snapshot strictly below it is pinned. A bug set's first
 * trigger is one of its own bugs' first triggers, so the greatest
 * pin below it is the greatest stride snapshot below it: a triggered
 * job resumes exactly where the run's whole chain would put it, from
 * at most 2 + numBugs snapshots held.
 */
struct TriggerPins
{
    std::vector<RowLink> recent; ///< the two newest, oldest first
    std::vector<RowLink> pins;   ///< increasing cycle order
    std::array<bool, rtl::numBugs> pinned{};
    size_t peakBytes = 0; ///< most snapshot bytes held at once

    /** Roll in the snapshot the run took at stride boundary @p cycle
     *  with @p lockstep_errors mismatches counted below it (the older
     *  of the two newest goes, unless it is pinned). */
    void
    take(uint64_t cycle, uint64_t lockstep_errors,
         rtl::PpCore::Snapshot snapshot)
    {
        if (recent.size() == 2)
            recent.erase(recent.begin());
        recent.push_back({cycle, lockstep_errors, std::move(snapshot)});
        // A pin at a recent link's cycle shares that link's snapshot.
        size_t held = 0;
        for (const RowLink &link : recent)
            held += link.snapshot.bytes();
        for (const RowLink &pin : pins) {
            if (pin.cycle < recent.front().cycle)
                held += pin.snapshot.bytes();
        }
        peakBytes = std::max(peakBytes, held);
    }

    /** Pin below every first trigger @p core recorded since the last
     *  call. Call after each stretch the run drives: a trigger seen
     *  then lies at or past the newest snapshot's cycle, and every
     *  later snapshot lies past it. */
    void
    pinTriggers(const rtl::PpCore &core)
    {
        for (size_t i = 0; i < rtl::numBugs; ++i) {
            const uint64_t trigger =
                core.bugFirstTrigger(static_cast<rtl::BugId>(i));
            if (pinned[i] || trigger == UINT64_MAX)
                continue;
            pinned[i] = true;
            const RowLink *link = linkBelow(recent, trigger);
            if (!link)
                continue;
            auto at = std::lower_bound(
                pins.begin(), pins.end(), link->cycle,
                [](const RowLink &pin, uint64_t cycle) {
                    return pin.cycle < cycle;
                });
            if (at == pins.end() || at->cycle != link->cycle)
                pins.insert(at, *link);
        }
    }
};

/** @return the first cycle any bug of @p bugs triggered, given each
 *  bug's first-trigger cycle (UINT64_MAX = never). */
uint64_t
firstTrigger(const std::array<uint64_t, rtl::numBugs> &triggers,
             const rtl::BugSet &bugs)
{
    uint64_t first = UINT64_MAX;
    for (size_t i = 0; i < rtl::numBugs; ++i) {
        if (bugs.test(i))
            first = std::min(first, triggers[i]);
    }
    return first;
}

/** Per-worker stat accumulators (merged once at the end). */
struct LocalStats
{
    uint64_t batchCycles = 0;
    uint64_t simulatedCycles = 0;
    uint64_t cyclesAvoided = 0;
    uint64_t copies = 0;
    uint64_t strideCheckpoints = 0;
    uint64_t strideHits = 0;
    uint64_t strideResumeCycles = 0;
    uint64_t triggeredJobs = 0;
    uint64_t triggeredJobCycles = 0;
    uint64_t triggeredLeadCycles = 0;
    uint64_t controlReplayCycles = 0;
    uint64_t cancelled = 0;
    uint64_t warmHits = 0;
    uint64_t warmCopies = 0;
    uint64_t warmChainHits = 0;
    uint64_t warmResumeCycles = 0;
    uint64_t warmInserts = 0;
    size_t peakCacheBytes = 0;
};

/** Lower @p target to @p value if it is smaller (atomic min). */
void
fetchMin(std::atomic<size_t> &target, size_t value)
{
    size_t cur = target.load(std::memory_order_acquire);
    while (value < cur &&
           !target.compare_exchange_weak(cur, value,
                                         std::memory_order_acq_rel)) {
    }
}

} // namespace

std::shared_ptr<const RowReference>
WarmRows::get(size_t row) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rows_.at(row);
}

void
WarmRows::put(size_t row, std::shared_ptr<const RowReference> ref)
{
    std::lock_guard<std::mutex> lock(mutex_);
    rows_.at(row) = std::move(ref);
    ++puts_;
}

std::vector<std::shared_ptr<const RowReference>>
WarmRows::rows() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rows_;
}

uint64_t
WarmRows::puts() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return puts_;
}

uint64_t
hashTrace(const vecgen::TestTrace &trace)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    auto mix = [&hash](uint64_t word) {
        hash ^= word;
        hash *= 0x100000001b3ull;
    };
    // Each section's length goes first, so no word can move across
    // a section boundary unnoticed.
    auto section = [&mix](const auto &words) {
        mix(words.size());
        for (uint64_t word : words)
            mix(word);
    };
    section(trace.cycles);
    section(trace.fetchStream);
    section(trace.retiredStream());
    section(trace.inbox);
    return hash;
}

namespace
{

/** Row record format version (RowReference::serialize). Version 1
 *  was the warm cache's entry, keyed by the trace's text. */
constexpr uint32_t kRowVersion = 2;

void
packU32(std::vector<uint8_t> &out, uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>(value >> (8 * i)));
}

void
packU64(std::vector<uint8_t> &out, uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(value >> (8 * i)));
}

void
packBytes(std::vector<uint8_t> &out, const void *data, size_t size)
{
    packU64(out, size);
    const uint8_t *p = static_cast<const uint8_t *>(data);
    out.insert(out.end(), p, p + size);
}

/** Bounds-checked little-endian record reader; any overrun flips
 *  ok and pins the cursor, so callers test once at the end. */
struct RowReader
{
    const uint8_t *data;
    size_t size;
    size_t pos = 0;
    bool ok = true;

    /** @return the next @p n bytes, or null (ok cleared) past the
     *  end. */
    const uint8_t *
    take(uint64_t n)
    {
        if (!ok || size - pos < n) {
            ok = false;
            return nullptr;
        }
        const uint8_t *at = data + pos;
        pos += n;
        return at;
    }

    uint64_t
    le(unsigned width)
    {
        const uint8_t *at = take(width);
        uint64_t value = 0;
        for (unsigned i = 0; at && i < width; ++i)
            value |= uint64_t(at[i]) << (8 * i);
        return value;
    }

    uint8_t u8() { return static_cast<uint8_t>(le(1)); }
    uint32_t u32() { return static_cast<uint32_t>(le(4)); }
    uint64_t u64() { return le(8); }
};

} // namespace

std::vector<uint8_t>
RowReference::serialize() const
{
    std::vector<uint8_t> out;
    packU32(out, kRowVersion);
    packU64(out, traceHash);
    const PlayResult &donor = donorResult;
    out.push_back(donor.diverged ? 1 : 0);
    packBytes(out, donor.diff.data(), donor.diff.size());
    packU64(out, donor.cycles);
    packU64(out, donor.instructions);
    packU64(out, donor.lockstepErrors);
    out.push_back(donor.drained ? 1 : 0);
    out.push_back(donor.skipped ? 1 : 0);
    packU32(out, static_cast<uint32_t>(rtl::numBugs));
    for (uint64_t trigger : triggers)
        packU64(out, trigger);
    packU64(out, pins.size());
    for (const RowLink &pin : pins) {
        packU64(out, pin.cycle);
        packU64(out, pin.lockstepErrors);
        const std::vector<uint8_t> snapshot = pin.snapshot.serialize();
        packBytes(out, snapshot.data(), snapshot.size());
    }
    return out;
}

std::shared_ptr<const RowReference>
RowReference::deserialize(const rtl::PpConfig &config,
                          const uint8_t *data, size_t size)
{
    RowReader in{data, size};
    if (in.u32() != kRowVersion)
        return nullptr;
    auto ref = std::make_shared<RowReference>();
    ref->traceHash = in.u64();
    PlayResult &donor = ref->donorResult;
    donor.diverged = in.u8() != 0;
    const uint64_t diff_size = in.u64();
    if (const uint8_t *diff = in.take(diff_size))
        donor.diff.assign(reinterpret_cast<const char *>(diff),
                          diff_size);
    donor.cycles = in.u64();
    donor.instructions = in.u64();
    donor.lockstepErrors = in.u64();
    donor.drained = in.u8() != 0;
    donor.skipped = in.u8() != 0;
    // A build with a different bug roster laid the triggers array
    // out differently; its records must not restore.
    if (in.u32() != static_cast<uint32_t>(rtl::numBugs))
        return nullptr;
    for (uint64_t &trigger : ref->triggers)
        trigger = in.u64();
    const uint64_t pins = in.u64();
    if (!in.ok || pins > rtl::numBugs)
        return nullptr;
    for (uint64_t i = 0; i < pins; ++i) {
        RowLink pin;
        pin.cycle = in.u64();
        pin.lockstepErrors = in.u64();
        const uint64_t bytes = in.u64();
        const uint8_t *snapshot = in.take(bytes);
        if (!snapshot)
            return nullptr;
        pin.snapshot = rtl::PpCore::deserializeSnapshot(
            config, rtl::CoreMode::Vector, snapshot, bytes);
        // A pin is the snapshot its run took at its cycle, above the
        // pin before it.
        if (!pin.snapshot.valid() || pin.snapshot.cycles() != pin.cycle ||
            (!ref->pins.empty() && pin.cycle <= ref->pins.back().cycle))
            return nullptr;
        ref->pins.push_back(std::move(pin));
    }
    if (!in.ok || in.pos != in.size)
        return nullptr; // trailing garbage is damage too
    return ref;
}

ReplayEngine::ReplayEngine(const rtl::PpConfig &config,
                           ReplayOptions options)
    : config_(config), options_(options)
{
    if (options_.numThreads == 0)
        fatal("ReplayEngine needs at least one worker");
}

std::vector<PlayResult>
ReplayEngine::playAll(const std::vector<vecgen::TestTrace> &traces,
                      const rtl::BugSet &bugs,
                      const LockstepReference *lockstep)
{
    return playAll(traces, std::vector<rtl::BugSet>{bugs}, lockstep);
}

std::vector<PlayResult>
ReplayEngine::playAll(const std::vector<vecgen::TestTrace> &traces,
                      const std::vector<rtl::BugSet> &bug_sets,
                      const LockstepReference *lockstep, WarmRows *warm)
{
    stats_ = ReplayStats{};
    const size_t nt = traces.size();
    const size_t nb = bug_sets.size();
    // Each row checks its own tour's length (run_row below), on the
    // worker that plays it.
    if (lockstep && lockstep->tours.size() != nt)
        fatal(formatString("lockstep reference has %zu tours for "
                           "%zu traces",
                           lockstep->tours.size(), nt));
    if (warm && warm->size() != nt)
        fatal(formatString("warm rows hold %zu rows for %zu traces",
                           warm->size(), nt));
    std::vector<PlayResult> results(nt * nb);
    if (nt == 0 || nb == 0)
        return results;

    // The lockstep oracle reads each graph state's control fields
    // from a table unpacked once per batch.
    const std::vector<rtl::PpControlState> expected_states =
        lockstep ? VectorPlayer::expectedStates(lockstep->model,
                                                lockstep->graph)
                 : std::vector<rtl::PpControlState>{};

    // Warm rows carry no lockstep counts, so a checked batch leaves
    // them alone.
    if (lockstep)
        warm = nullptr;

    // Bug-set axis: when the batch contains the empty bug set, each
    // row plays it first as the donor. Jobs whose bugs never
    // triggered on the donor run copy its result; triggered jobs
    // resume from the donor's pinned stride checkpoints with the bug
    // mask re-armed.
    size_t donor_set = nb;
    if (nb > 1) {
        for (size_t b = 0; b < nb; ++b) {
            if (bug_sets[b].none()) {
                donor_set = b;
                break;
            }
        }
    }
    std::vector<size_t> set_order(nb);
    for (size_t b = 0; b < nb; ++b)
        set_order[b] = b;
    if (donor_set < nb)
        std::swap(set_order[0], set_order[donor_set]);
    const size_t stride = options_.checkpointStride;

    std::vector<std::atomic<size_t>> first_div(nb);
    for (auto &fd : first_div)
        fd.store(nt, std::memory_order_relaxed);
    auto record = [&](size_t t, size_t b, const PlayResult &result) {
        results[b * nt + t] = result;
        if (result.diverged && options_.stopOnDivergence)
            fetchMin(first_div[b], t);
    };

    telemetry::ScopedSpan batch_span("replay.batch", "traces", nt,
                                     "bug_sets", nb);
    telemetry::Histogram &resume_depth = telemetry::histogram(
        "replay.resume_depth", telemetry::depthBounds());

    // One row: the trace's jobs, donor first. The row's bug-free
    // reference is its warm row, when that was recorded on this very
    // trace, or else the record its reference run builds (the donor,
    // or the job that fills the warm row); only that run takes stride
    // snapshots. A donor also records its control answers into the
    // worker's @p answers, which the row's triggered jobs step from.
    auto run_row = [&](size_t t, LocalStats &ls,
                       std::vector<rtl::ControlAnswer> &answers) {
        const vecgen::TestTrace &trace = traces[t];
        const size_t len = trace.cycles.size();
        const uint64_t hash = warm ? hashTrace(trace) : 0;
        std::shared_ptr<const RowReference> ref =
            warm ? warm->get(t) : nullptr;
        if (ref && ref->traceHash != hash)
            ref = nullptr; // recorded on another trace: a miss
        const bool warm_hit = ref != nullptr;
        ls.warmHits += warm_hit;
        TriggerPins pins;
        std::optional<graph::TraceCursor> tour;
        VectorPlayer::LockstepSpec spec;
        if (lockstep) {
            tour.emplace(lockstep->tours.cursor(lockstep->graph, t));
            if (tour->length() != len)
                fatal(formatString("trace %zu: tour and generated "
                                   "trace disagree on cycle count",
                                   t));
            spec = {expected_states.data(), &*tour};
        }
        const VectorPlayer::LockstepSpec *check =
            lockstep ? &spec : nullptr;
        // The specification's answer depends on the trace alone:
        // computed at the row's first simulated job (the donor, or a
        // warm row's first triggered job), then shared by every job
        // of the row.
        std::optional<pp::ArchState> spec_state;
        // Set once the donor has recorded the row's control answers.
        bool recorded = false;

        for (size_t b : set_order) {
            // A trace earlier in the batch already diverged under
            // this bug set, or the batch was cancelled.
            const bool past_divergence =
                options_.stopOnDivergence &&
                first_div[b].load(std::memory_order_acquire) < t;
            const bool cancelled =
                !past_divergence && options_.cancelFlag &&
                options_.cancelFlag->load(std::memory_order_relaxed);
            if (past_divergence || cancelled) {
                results[b * nt + t].skipped = true;
                if (cancelled)
                    ++ls.cancelled;
                continue;
            }
            telemetry::ScopedSpan job_span("replay.job", "trace", t,
                                           "bug_set", b);

            // Both sharing axes hinge on one guarantee: fault effects
            // are strictly trigger-guarded and trigger cycles are
            // recorded on the bug-free run, so the reference
            // trajectory *is* the bugged trajectory below the first
            // trigger.
            uint64_t first = UINT64_MAX;
            if (ref) {
                first = firstTrigger(ref->triggers, bug_sets[b]);
                if (first == UINT64_MAX) {
                    ++(warm_hit ? ls.warmCopies : ls.copies);
                    ls.batchCycles += len;
                    ls.cyclesAvoided += ref->donorResult.cycles;
                    record(t, b, ref->donorResult);
                    continue;
                }
                ++ls.triggeredJobs;
                ls.triggeredJobCycles += len;
                // The avoidable pool: the bug-free lead up to the
                // first trigger (a trigger can fire during drain, so
                // cap at the forced-cycle length).
                ls.triggeredLeadCycles += std::min<uint64_t>(first, len);
            }

            const bool is_donor = !warm_hit && b == donor_set;
            // Bug-free jobs of a batch with warm rows fill the row the
            // next batch will hit: the donor when there is one, or a
            // single-bug-set batch's own empty-set job (the service's
            // warm-up shape).
            const bool populate = warm && !warm_hit &&
                                  bug_sets[b].none() &&
                                  (is_donor || nb == 1);
            const bool reference = is_donor || populate;

            rtl::PpCore core(config_, rtl::CoreMode::Vector);
            VectorPlayer::primeCore(core, trace, bug_sets[b]);

            // Resume from the greatest pin strictly below the first
            // trigger, re-arming this job's bug mask (the one field of
            // the reference state that legitimately differs), and
            // carry the reference run's lockstep count below it.
            size_t start = 0;
            uint64_t lockstep_errors = 0;
            if (const RowLink *link =
                    ref ? linkBelow(ref->pins, first) : nullptr) {
                core.restoreWithBugs(link->snapshot, bug_sets[b]);
                start = link->cycle;
                lockstep_errors = link->lockstepErrors;
                if (warm_hit) {
                    ++ls.warmChainHits;
                    ls.warmResumeCycles += start;
                } else {
                    ++ls.strideHits;
                    ls.strideResumeCycles += start;
                }
                ls.cyclesAvoided += start;
            }
            resume_depth.record(double(start));

            // Every job of the row follows the donor's control
            // trajectory (fault effects write data, never the control),
            // so the donor records it and the row's triggered jobs step
            // from the recording. A row without a donor run (a one-set
            // batch, a warm hit) evaluates the control.
            ControlTape tape;
            if (is_donor) {
                if (answers.size() < len)
                    answers.resize(len);
                tape = {ControlTape::Use::Record, answers.data()};
            } else if (recorded) {
                tape = {ControlTape::Use::Replay, answers.data()};
                ls.controlReplayCycles += len - start;
            }

            // Drive to the end of the trace. The reference run (from
            // reset) pauses at every stride boundary: it pins below
            // the triggers that fired since the last pause, then rolls
            // in a snapshot. Triggers of the last stretch and of the
            // drain are pinned once the run is finished.
            const size_t snap_stride = reference ? stride : 0;
            uint64_t stepped_from = core.cycles();
            size_t pos = start;
            size_t next_stride = snap_stride ? snap_stride : len;
            while (pos < len) {
                const size_t stop = std::min(len, next_stride);
                lockstep_errors += VectorPlayer::drive(core, trace, pos,
                                                       stop, check, tape);
                pos = stop;
                if (pos < len && pos == next_stride) {
                    pins.pinTriggers(core);
                    pins.take(pos, lockstep_errors, core.snapshot());
                    ++ls.strideCheckpoints;
                    next_stride += snap_stride;
                }
            }
            if (!spec_state)
                spec_state = VectorPlayer::specState(config_, trace);
            PlayResult result =
                VectorPlayer::finish(config_, core, *spec_state);
            result.lockstepErrors = lockstep_errors;
            if (snap_stride)
                pins.pinTriggers(core);
            ls.simulatedCycles += core.cycles() - stepped_from;
            ls.batchCycles += len;
            record(t, b, result);
            recorded = recorded || is_donor;

            if (reference) {
                auto built = std::make_shared<RowReference>();
                built->donorResult = result;
                for (size_t i = 0; i < rtl::numBugs; ++i)
                    built->triggers[i] =
                        core.bugFirstTrigger(static_cast<rtl::BugId>(i));
                built->pins = std::move(pins.pins);
                built->traceHash = hash;
                ref = std::move(built);
            }
            if (populate) {
                warm->put(t, ref);
                ++ls.warmInserts;
            }
        }
        ls.peakCacheBytes = std::max(ls.peakCacheBytes, pins.peakBytes);
    };

    const unsigned workers = std::min<size_t>(options_.numThreads, nt);
    std::atomic<size_t> next_trace{0};
    std::vector<LocalStats> local(workers);
    auto work = [&](LocalStats &ls) {
        // The worker's control-answer buffer, reused across its rows.
        std::vector<rtl::ControlAnswer> answers;
        for (size_t t;
             (t = next_trace.fetch_add(1, std::memory_order_relaxed)) <
             nt;)
            run_row(t, ls, answers);
    };
    if (workers <= 1) {
        work(local[0]);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        // A job that throws (stimulus out of step with the core)
        // stops the claiming of rows; the first failure reaches the
        // caller once the pool has joined.
        std::mutex failure_mutex;
        std::exception_ptr failure;
        // Worker spans must stay attributable to the service job
        // that spawned them, so the caller's correlation id travels
        // into each pool thread.
        const uint64_t job_id = telemetry::currentJobId();
        for (unsigned w = 0; w < workers; ++w) {
            pool.emplace_back([&, w, job_id] {
                telemetry::JobScope job_scope(job_id);
                if (telemetry::tracingEnabled()) {
                    telemetry::setThreadName(
                        formatString("replay.worker.%u", w));
                }
                try {
                    work(local[w]);
                } catch (...) {
                    next_trace.store(nt, std::memory_order_relaxed);
                    std::lock_guard<std::mutex> lock(failure_mutex);
                    if (!failure)
                        failure = std::current_exception();
                }
            });
        }
        for (std::thread &t : pool)
            t.join();
        if (failure)
            std::rethrow_exception(failure);
    }

    // Normalize early-exit batches: everything after a bug set's
    // first divergence reads as skipped, whether or not a worker got
    // to it before the divergence was known. This makes the result
    // vector a pure function of the batch for any worker count.
    if (options_.stopOnDivergence) {
        for (size_t b = 0; b < nb; ++b) {
            size_t fd = first_div[b].load(std::memory_order_acquire);
            for (size_t t = fd + 1; t < nt; ++t) {
                PlayResult &r = results[b * nt + t];
                r = PlayResult{};
                r.skipped = true;
                ++stats_.jobsSkipped;
            }
        }
    }

    stats_.jobs = nt * nb;
    if (warm)
        stats_.warmLookups = nt;
    for (const PlayResult &result : results)
        stats_.lockstepErrors += result.lockstepErrors;
    for (const LocalStats &ls : local) {
        stats_.batchCycles += ls.batchCycles;
        stats_.simulatedCycles += ls.simulatedCycles;
        stats_.cyclesAvoided += ls.cyclesAvoided;
        stats_.bugSetCopies += ls.copies;
        stats_.strideCheckpoints += ls.strideCheckpoints;
        stats_.strideHits += ls.strideHits;
        stats_.strideResumeCycles += ls.strideResumeCycles;
        stats_.triggeredJobs += ls.triggeredJobs;
        stats_.triggeredJobCycles += ls.triggeredJobCycles;
        stats_.triggeredLeadCycles += ls.triggeredLeadCycles;
        stats_.controlReplayCycles += ls.controlReplayCycles;
        stats_.jobsSkipped += ls.cancelled;
        stats_.warmHits += ls.warmHits;
        stats_.warmCopies += ls.warmCopies;
        stats_.warmChainHits += ls.warmChainHits;
        stats_.warmResumeCycles += ls.warmResumeCycles;
        stats_.warmInserts += ls.warmInserts;
        stats_.peakCacheBytes =
            std::max(stats_.peakCacheBytes, ls.peakCacheBytes);
    }

    // Registry mirror of the batch stats: one add per batch keeps
    // the hot path free of shared-counter traffic.
    telemetry::counter("replay.jobs").add(stats_.jobs);
    telemetry::counter("replay.bug_set_copies")
        .add(stats_.bugSetCopies);
    telemetry::counter("replay.stride_hits").add(stats_.strideHits);
    telemetry::counter("replay.cycles_avoided")
        .add(stats_.cyclesAvoided);
    telemetry::counter("replay.cycles_simulated")
        .add(stats_.simulatedCycles);
    telemetry::counter("replay.control_replay_cycles")
        .add(stats_.controlReplayCycles);
    telemetry::gauge("replay.peak_cache_bytes")
        .set(static_cast<int64_t>(stats_.peakCacheBytes));
    if (lockstep) {
        telemetry::counter("replay.lockstep_errors")
            .add(stats_.lockstepErrors);
    }
    if (warm) {
        telemetry::counter("replay.warm_lookups")
            .add(stats_.warmLookups);
        telemetry::counter("replay.warm_hits").add(stats_.warmHits);
        telemetry::counter("replay.warm_copies")
            .add(stats_.warmCopies);
        telemetry::counter("replay.warm_chain_hits")
            .add(stats_.warmChainHits);
        telemetry::counter("replay.warm_inserts")
            .add(stats_.warmInserts);
    }
    return results;
}

} // namespace archval::harness
