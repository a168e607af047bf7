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
#include "vecgen/trace_io.hh"

namespace archval::harness
{

namespace
{

/** One stride snapshot of a reference run, held in memory. */
struct RowLink
{
    uint64_t cycle = 0;
    /** The run's lockstep mismatches over cycles [0, cycle). */
    uint64_t lockstepErrors = 0;
    rtl::PpCore::Snapshot snapshot;
};

/** @return the greatest of @p links (increasing cycle order) strictly
 *  below cycle @p limit, or null when none qualifies. */
template <class Link>
const Link *
linkBelow(const std::vector<Link> &links, uint64_t limit)
{
    for (size_t i = links.size(); i-- > 0;) {
        if (links[i].cycle < limit)
            return &links[i];
    }
    return nullptr;
}

/**
 * The checkpoints a row keeps from its bug-free reference run (the
 * donor, or a warm-populating run). Only the two newest stride
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
    uint64_t misses = 0;
    uint64_t copies = 0;
    uint64_t strideCheckpoints = 0;
    uint64_t strideHits = 0;
    uint64_t strideResumeCycles = 0;
    uint64_t triggeredJobs = 0;
    uint64_t triggeredJobCycles = 0;
    uint64_t triggeredLeadCycles = 0;
    uint64_t cancelled = 0;
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

std::shared_ptr<const ReplayWarmCache::Entry>
ReplayWarmCache::find(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++lookups_;
    auto it = entries_.find(key);
    if (it == entries_.end())
        return nullptr;
    ++hits_;
    it->second.lastUse = ++clock_;
    return it->second.entry;
}

bool
ReplayWarmCache::insert(std::shared_ptr<Entry> entry)
{
    if (!entry)
        return false;
    size_t bytes = sizeof(Entry) + entry->key.size();
    for (const ChainLink &link : entry->chain)
        bytes += sizeof(link) + link.snapshot.size();
    entry->bytes = bytes;

    std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.count(entry->key))
        return false; // entries are immutable; the first insert wins
    if (bytes > budget_)
        return false; // alone past the whole budget: not cacheable
    while (bytes_ + bytes > budget_ && !entries_.empty()) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (victim == entries_.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        bytes_ -= victim->second.entry->bytes;
        entries_.erase(victim);
        ++evictions_;
    }
    bytes_ += bytes;
    ++inserts_;
    Slot &slot = entries_[entry->key];
    slot.entry = std::move(entry);
    slot.lastUse = ++clock_;
    return true;
}

ReplayWarmCache::Stats
ReplayWarmCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats s;
    s.lookups = lookups_;
    s.hits = hits_;
    s.inserts = inserts_;
    s.evictions = evictions_;
    s.bytes = bytes_;
    s.entries = entries_.size();
    return s;
}

std::vector<std::shared_ptr<const ReplayWarmCache::Entry>>
ReplayWarmCache::entries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::shared_ptr<const Entry>> out;
    out.reserve(entries_.size());
    for (const auto &[key, slot] : entries_)
        out.push_back(slot.entry);
    return out;
}

namespace
{

/** Warm-entry record format version (serializeEntry). */
constexpr uint32_t kWarmEntryVersion = 1;

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
struct EntryReader
{
    const uint8_t *data;
    size_t size;
    size_t pos = 0;
    bool ok = true;

    uint32_t
    u32()
    {
        if (!ok || size - pos < 4) {
            ok = false;
            return 0;
        }
        uint32_t value = 0;
        for (int i = 0; i < 4; ++i)
            value |= uint32_t(data[pos + i]) << (8 * i);
        pos += 4;
        return value;
    }

    uint64_t
    u64()
    {
        if (!ok || size - pos < 8) {
            ok = false;
            return 0;
        }
        uint64_t value = 0;
        for (int i = 0; i < 8; ++i)
            value |= uint64_t(data[pos + i]) << (8 * i);
        pos += 8;
        return value;
    }

    bool
    bytes(std::vector<uint8_t> &out)
    {
        uint64_t n = u64();
        if (!ok || size - pos < n) {
            ok = false;
            return false;
        }
        out.assign(data + pos, data + pos + n);
        pos += n;
        return true;
    }

    bool
    str(std::string &out)
    {
        uint64_t n = u64();
        if (!ok || size - pos < n) {
            ok = false;
            return false;
        }
        out.assign(reinterpret_cast<const char *>(data + pos), n);
        pos += n;
        return true;
    }
};

} // namespace

std::vector<uint8_t>
ReplayWarmCache::serializeEntry(const Entry &entry)
{
    std::vector<uint8_t> out;
    packU32(out, kWarmEntryVersion);
    packBytes(out, entry.key.data(), entry.key.size());
    const PlayResult &donor = entry.donorResult;
    out.push_back(donor.diverged ? 1 : 0);
    packBytes(out, donor.diff.data(), donor.diff.size());
    packU64(out, donor.cycles);
    packU64(out, donor.instructions);
    packU64(out, donor.lockstepErrors);
    out.push_back(donor.drained ? 1 : 0);
    out.push_back(donor.skipped ? 1 : 0);
    packU32(out, static_cast<uint32_t>(rtl::numBugs));
    for (uint64_t trigger : entry.triggers)
        packU64(out, trigger);
    packU64(out, entry.chain.size());
    for (const ChainLink &link : entry.chain) {
        packU64(out, link.cycle);
        packBytes(out, link.snapshot.data(), link.snapshot.size());
    }
    return out;
}

std::shared_ptr<ReplayWarmCache::Entry>
ReplayWarmCache::deserializeEntry(const uint8_t *data, size_t size)
{
    EntryReader in{data, size};
    if (in.u32() != kWarmEntryVersion)
        return nullptr;
    auto entry = std::make_shared<Entry>();
    in.str(entry->key);
    PlayResult &donor = entry->donorResult;
    auto u8 = [&]() -> uint8_t {
        if (!in.ok || in.size - in.pos < 1) {
            in.ok = false;
            return 0;
        }
        return in.data[in.pos++];
    };
    donor.diverged = u8() != 0;
    in.str(donor.diff);
    donor.cycles = in.u64();
    donor.instructions = in.u64();
    donor.lockstepErrors = in.u64();
    donor.drained = u8() != 0;
    donor.skipped = u8() != 0;
    // A build with a different bug roster laid the triggers array
    // out differently; its records must not restore.
    if (in.u32() != static_cast<uint32_t>(rtl::numBugs))
        return nullptr;
    for (size_t i = 0; i < rtl::numBugs; ++i)
        entry->triggers[i] = in.u64();
    const uint64_t links = in.u64();
    if (!in.ok || links > in.size - in.pos)
        return nullptr; // lying count; each link needs >1 byte
    entry->chain.reserve(links);
    for (uint64_t i = 0; i < links; ++i) {
        ChainLink link;
        link.cycle = in.u64();
        in.bytes(link.snapshot);
        if (!in.ok)
            return nullptr;
        entry->chain.push_back(std::move(link));
    }
    if (!in.ok || in.pos != in.size)
        return nullptr; // trailing garbage is damage too
    return entry;
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
                      const LockstepReference *lockstep)
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
    std::vector<PlayResult> results(nt * nb);
    if (nt == 0 || nb == 0)
        return results;

    // The lockstep oracle reads each graph state's control fields
    // from a table unpacked once per batch.
    const std::vector<rtl::PpControlState> expected_states =
        lockstep ? VectorPlayer::expectedStates(lockstep->model,
                                                lockstep->graph)
                 : std::vector<rtl::PpControlState>{};

    // Cross-batch warm cache: resolve each trace's entry up front by
    // its full serialized content (exact match, so a foreign trace
    // can never borrow a warm result). Keys of the misses are kept —
    // they become the insert keys when this batch's bug-free runs
    // populate the cache. Warm records carry no lockstep counts, so
    // a checked batch leaves the cache alone.
    ReplayWarmCache *warm =
        lockstep ? nullptr : options_.warmCache.get();
    std::vector<std::shared_ptr<const ReplayWarmCache::Entry>>
        warm_entries(warm ? nt : 0);
    std::vector<std::string> warm_keys(warm ? nt : 0);
    if (warm) {
        stats_.warmLookups = nt;
        for (size_t t = 0; t < nt; ++t) {
            std::string key = vecgen::serializeTrace(traces[t]);
            warm_entries[t] = warm->find(key);
            if (warm_entries[t])
                ++stats_.warmHits;
            else
                warm_keys[t] = std::move(key);
        }
    }

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
    // reference is the trace's warm entry or its reference run (the
    // donor, or the job that populates the warm cache); only that run
    // takes stride snapshots, and only this worker reads its pins.
    auto run_row = [&](size_t t, LocalStats &ls) {
        const vecgen::TestTrace &trace = traces[t];
        const size_t len = trace.cycles.size();
        const ReplayWarmCache::Entry *warm_hit =
            warm ? warm_entries[t].get() : nullptr;
        PlayResult donor_result;
        const PlayResult *ref =
            warm_hit ? &warm_hit->donorResult : nullptr;
        std::array<uint64_t, rtl::numBugs> triggers{};
        if (warm_hit)
            triggers = warm_hit->triggers;
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
                first = firstTrigger(triggers, bug_sets[b]);
                if (first == UINT64_MAX) {
                    ++(warm_hit ? ls.warmCopies : ls.copies);
                    ls.batchCycles += len;
                    ls.cyclesAvoided += ref->cycles;
                    record(t, b, *ref);
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
            // Bug-free jobs of a warm-enabled batch deposit the entry
            // the next batch will hit: the donor when there is one,
            // or a single-bug-set batch's own empty-set job (the
            // service's warm-up shape).
            const bool populate = warm && !warm_hit &&
                                  bug_sets[b].none() &&
                                  (is_donor || nb == 1);
            const bool reference = is_donor || populate;

            rtl::PpCore core(config_, rtl::CoreMode::Vector);
            VectorPlayer::primeCore(core, trace, bug_sets[b]);

            // Resume from the greatest link strictly below the first
            // trigger, re-arming this job's bug mask (the one field of
            // the reference state that legitimately differs), and
            // carry the reference run's lockstep count below it. A
            // warm link is a serialized snapshot of a
            // content-identical trace; a damaged or foreign one
            // degrades to from-reset replay.
            size_t start = 0;
            uint64_t lockstep_errors = 0;
            if (warm_hit) {
                // Within the trace, too: at most cycle len.
                if (const ReplayWarmCache::ChainLink *link = linkBelow(
                        warm_hit->chain,
                        std::min<uint64_t>(first, len + 1))) {
                    rtl::PpCore::Snapshot snap =
                        rtl::PpCore::deserializeSnapshot(
                            config_, rtl::CoreMode::Vector,
                            link->snapshot.data(), link->snapshot.size());
                    if (snap.valid() && snap.cycles() <= len) {
                        core.restoreWithBugs(snap, bug_sets[b]);
                        start = snap.cycles();
                        ++ls.warmChainHits;
                        ls.warmResumeCycles += start;
                        ls.cyclesAvoided += start;
                    } else {
                        ++ls.misses;
                    }
                }
            } else if (const RowLink *link =
                           linkBelow(pins.pins, first)) {
                core.restoreWithBugs(link->snapshot, bug_sets[b]);
                start = link->snapshot.cycles();
                lockstep_errors = link->lockstepErrors;
                ++ls.strideHits;
                ls.strideResumeCycles += start;
                ls.cyclesAvoided += start;
            }
            resume_depth.record(double(start));

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
                lockstep_errors +=
                    VectorPlayer::drive(core, trace, pos, stop, check);
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

            if (reference) {
                for (size_t i = 0; i < rtl::numBugs; ++i)
                    triggers[i] =
                        core.bugFirstTrigger(static_cast<rtl::BugId>(i));
            }
            if (is_donor) {
                donor_result = result;
                ref = &donor_result;
            }
            if (populate) {
                auto entry = std::make_shared<ReplayWarmCache::Entry>();
                entry->key = std::move(warm_keys[t]);
                entry->donorResult = result;
                entry->triggers = triggers;
                for (const RowLink &pin : pins.pins)
                    entry->chain.push_back(
                        {pin.cycle, pin.snapshot.serialize()});
                if (warm->insert(std::move(entry)))
                    ++ls.warmInserts;
            }
        }
        ls.peakCacheBytes = std::max(ls.peakCacheBytes, pins.peakBytes);
    };

    const unsigned workers = std::min<size_t>(options_.numThreads, nt);
    std::atomic<size_t> next_trace{0};
    std::vector<LocalStats> local(workers);
    auto work = [&](LocalStats &ls) {
        for (size_t t;
             (t = next_trace.fetch_add(1, std::memory_order_relaxed)) <
             nt;)
            run_row(t, ls);
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
    for (const PlayResult &result : results)
        stats_.lockstepErrors += result.lockstepErrors;
    for (const LocalStats &ls : local) {
        stats_.batchCycles += ls.batchCycles;
        stats_.simulatedCycles += ls.simulatedCycles;
        stats_.cyclesAvoided += ls.cyclesAvoided;
        stats_.checkpointMisses += ls.misses;
        stats_.bugSetCopies += ls.copies;
        stats_.strideCheckpoints += ls.strideCheckpoints;
        stats_.strideHits += ls.strideHits;
        stats_.strideResumeCycles += ls.strideResumeCycles;
        stats_.triggeredJobs += ls.triggeredJobs;
        stats_.triggeredJobCycles += ls.triggeredJobCycles;
        stats_.triggeredLeadCycles += ls.triggeredLeadCycles;
        stats_.jobsSkipped += ls.cancelled;
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
    telemetry::counter("replay.checkpoint_misses")
        .add(stats_.checkpointMisses);
    telemetry::counter("replay.bug_set_copies")
        .add(stats_.bugSetCopies);
    telemetry::counter("replay.stride_hits").add(stats_.strideHits);
    telemetry::counter("replay.cycles_avoided")
        .add(stats_.cyclesAvoided);
    telemetry::counter("replay.cycles_simulated")
        .add(stats_.simulatedCycles);
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
