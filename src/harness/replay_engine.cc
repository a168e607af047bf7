#include "replay_engine.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <numeric>
#include <thread>

#include "support/flight_recorder.hh"
#include "support/spill_store.hh"
#include "support/status.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"
#include "vecgen/trace_io.hh"

namespace archval::harness
{

namespace
{

/** One replay job: a (trace, bug set) pair plus its plan. */
struct Job
{
    size_t trace = 0;        ///< index into the batch
    size_t bugSet = 0;       ///< index into the bug-set list
    int restoreSlot = -1;    ///< checkpoint to resume from
    int publishSlot = -1;    ///< checkpoint this job must produce
    size_t publishDepth = 0; ///< absolute cycle of the publish
};

/** Plan-time record of one checkpoint. */
struct SlotPlan
{
    size_t donorTrace = 0;
    size_t depth = 0;
    unsigned consumers = 0;
};

/** @return length of the common forced-cycle prefix of two traces. */
size_t
commonPrefix(const std::vector<rtl::PackedSignals> &a,
             const std::vector<rtl::PackedSignals> &b)
{
    size_t n = std::min(a.size(), b.size());
    size_t i = 0;
    while (i < n && a[i] == b[i])
        ++i;
    return i;
}

/**
 * Tiered runtime checkpoint cache.
 *
 * Tier 1 is memory under the byte budget; tier 2 is the CRC-checked
 * disk spill file. Entries come in two kinds: *plan slots* (the
 * prefix-tree checkpoints planned before execution, with exact
 * consumer counts) and *stride entries* (periodic donor checkpoints
 * added at runtime, shared read-only by every non-donor bug set and
 * dropped when their trace's last consumer finishes). Eviction is
 * LRU across both kinds; a victim is serialized to the spill store
 * when it fits the spill cap, dropped otherwise. Faulting a spilled
 * entry back in re-reads and CRC-checks the record; any failure
 * marks the entry dropped and the caller degrades to an earlier
 * checkpoint or from-reset replay.
 *
 * One mutex guards everything — publishes, consumes, and spill I/O
 * are rare next to the simulation they save.
 */
class CheckpointCache
{
  public:
    CheckpointCache(const rtl::PpConfig &config,
                    const std::vector<SlotPlan> &plans, size_t budget,
                    SpillStore *spill,
                    ReplayOptions::SpillFault fault)
        : config_(config), budget_(budget), spill_(spill),
          fault_(fault)
    {
        slots_.resize(plans.size());
        for (size_t i = 0; i < plans.size(); ++i)
            slots_[i].remaining = plans[i].consumers;
    }

    /** Store @p snap for plan slot @p slot (or drop it). */
    void publish(size_t slot, rtl::PpCore::Snapshot snap)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Slot &s = slots_[slot];
        if (s.remaining == 0)
            s.state = State::Dropped;
        else
            insert(s, std::move(snap));
        if (s.state != State::Dropped)
            ++published_;
        cv_.notify_all();
    }

    /** The producer will never publish @p slot (job skipped). */
    void abandon(size_t slot)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (slots_[slot].state == State::Pending)
            slots_[slot].state = State::Dropped;
        cv_.notify_all();
    }

    /**
     * Block until plan slot @p slot resolves; @return its snapshot,
     * or an invalid one when it was dropped, evicted past the spill
     * cap, or its spill record came back damaged. Decrements the
     * planned-consumer count (the last consumer frees the entry).
     */
    rtl::PpCore::Snapshot consume(size_t slot)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        Slot &s = slots_[slot];
        cv_.wait(lock, [&] { return s.state != State::Pending; });
        rtl::PpCore::Snapshot out = materialize(s);
        if (--s.remaining == 0)
            freeSlot(s);
        return out;
    }

    /** Drop a consumer claim without waiting (job skipped). */
    void release(size_t slot)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Slot &s = slots_[slot];
        if (--s.remaining == 0)
            freeSlot(s);
    }

    /** Add a periodic donor checkpoint. @return its entry id. */
    size_t addStride(rtl::PpCore::Snapshot snap)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        slots_.emplace_back();
        Slot &s = slots_.back();
        s.stride = true;
        insert(s, std::move(snap));
        ++strideCheckpoints_;
        return slots_.size() - 1;
    }

    /**
     * Fetch stride entry @p id without consuming it (the donor chain
     * is shared by every non-donor bug set). Stride entries are
     * never pending — the donor published the whole chain before its
     * result became visible.
     */
    rtl::PpCore::Snapshot fetchStride(size_t id)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return materialize(slots_[id]);
    }

    /** Free a trace's stride chain (its last consumer finished). */
    void dropChain(const std::vector<size_t> &ids)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (size_t id : ids)
            freeSlot(slots_[id]);
    }

    uint64_t published() const { return published_; }
    uint64_t strideCheckpoints() const { return strideCheckpoints_; }
    uint64_t evictions() const { return evictions_; }
    uint64_t spillFallbacks() const { return spillFallbacks_; }
    size_t peakBytes() const { return peakBytes_; }

  private:
    enum class State
    {
        Pending, ///< producer has not resolved the entry yet
        Ready,   ///< snapshot held in memory
        Spilled, ///< snapshot parked in the spill store
        Dropped, ///< gone; consumers degrade
    };

    struct Slot
    {
        State state = State::Pending;
        rtl::PpCore::Snapshot snap;
        int64_t record = SpillStore::invalidId;
        unsigned remaining = 0;
        uint64_t lastUse = 0;
        bool stride = false;
    };

    /** Place @p snap into @p s, evicting/spilling as needed. */
    void insert(Slot &s, rtl::PpCore::Snapshot snap)
    {
        size_t bytes = snap.bytes();
        if (makeRoom(bytes)) {
            s.snap = std::move(snap);
            s.state = State::Ready;
            s.lastUse = ++useClock_;
            bytes_ += bytes;
            peakBytes_ = std::max(peakBytes_, bytes_);
        } else {
            // Too big for the whole memory budget (mid-trace
            // snapshots outgrow the reset-state estimate): straight
            // to the spill tier, or gone.
            s.state = spillSnapshot(s, snap) ? State::Spilled
                                             : State::Dropped;
        }
    }

    /** Evict LRU entries until @p bytes fits the memory budget. */
    bool makeRoom(size_t bytes)
    {
        if (bytes > budget_)
            return false;
        while (bytes_ + bytes > budget_) {
            size_t victim = slots_.size();
            for (size_t i = 0; i < slots_.size(); ++i) {
                if (slots_[i].state != State::Ready)
                    continue;
                if (victim == slots_.size() ||
                    slots_[i].lastUse < slots_[victim].lastUse)
                    victim = i;
            }
            if (victim == slots_.size())
                return bytes_ + bytes <= budget_;
            Slot &loser = slots_[victim];
            // Best effort: when the spill store is full, disabled,
            // or failing, the eviction becomes a drop.
            spillSnapshot(loser, loser.snap);
            freeInMemory(loser);
            ++evictions_;
        }
        return true;
    }

    /** Try to park @p snap in the spill store for @p s.
     *  @return true when @p s now points at a spill record. */
    bool spillSnapshot(Slot &s, const rtl::PpCore::Snapshot &snap)
    {
        if (!spill_ || !spill_->enabled())
            return false;
        std::vector<uint8_t> bytes = snap.serialize();
        int64_t record = spill_->append(bytes.data(), bytes.size());
        if (record == SpillStore::invalidId)
            return false;
        // Fault injection (testing): damage the record on disk so
        // the fault-back path must detect it and degrade.
        if (fault_ == ReplayOptions::SpillFault::CorruptCrc)
            spill_->corruptRecordForTesting(record);
        else if (fault_ == ReplayOptions::SpillFault::Truncate)
            spill_->truncateAtRecordForTesting(record);
        s.record = record;
        return true;
    }

    /** @return @p s's snapshot, faulting it back from spill if
     *  needed; invalid (with @p s dropped) on any failure. */
    rtl::PpCore::Snapshot materialize(Slot &s)
    {
        if (s.state == State::Ready) {
            s.lastUse = ++useClock_;
            return s.snap;
        }
        if (s.state == State::Spilled) {
            std::vector<uint8_t> bytes;
            if (spill_ && spill_->read(s.record, bytes)) {
                rtl::PpCore::Snapshot snap =
                    rtl::PpCore::deserializeSnapshot(
                        config_, rtl::CoreMode::Vector, bytes.data(),
                        bytes.size());
                if (snap.valid())
                    return snap;
            }
            // Damaged or unreadable record: degrade, never guess.
            ++spillFallbacks_;
            s.record = SpillStore::invalidId;
            s.state = State::Dropped;
        }
        return rtl::PpCore::Snapshot();
    }

    /** Forget an in-memory snapshot (keeps any Spilled marker). */
    void freeInMemory(Slot &s)
    {
        if (s.state != State::Ready)
            return;
        bytes_ -= s.snap.bytes();
        s.snap = rtl::PpCore::Snapshot();
        s.state = s.record != SpillStore::invalidId ? State::Spilled
                                                    : State::Dropped;
    }

    /** Drop @p s entirely (memory and spill reference). */
    void freeSlot(Slot &s)
    {
        if (s.state == State::Ready) {
            bytes_ -= s.snap.bytes();
            s.snap = rtl::PpCore::Snapshot();
        }
        s.record = SpillStore::invalidId;
        s.state = State::Dropped;
    }

    const rtl::PpConfig &config_;
    std::mutex mutex_;
    std::condition_variable cv_;
    /// Deque, not vector: addStride grows the container while other
    /// workers hold Slot references across cv_ waits in consume().
    std::deque<Slot> slots_;
    size_t budget_;
    SpillStore *spill_;
    ReplayOptions::SpillFault fault_;
    size_t bytes_ = 0;
    size_t peakBytes_ = 0;
    uint64_t useClock_ = 0;
    uint64_t published_ = 0;
    uint64_t strideCheckpoints_ = 0;
    uint64_t evictions_ = 0;
    uint64_t spillFallbacks_ = 0;
};

/**
 * Bug-set-axis donor records: one per trace, filled by the empty
 * bug set's job. Consumers (jobs for the same trace under a non-empty
 * bug set) block until the donor resolves; donor jobs precede every
 * consumer in plan order and are claimed in order, so a waited-on
 * donor is always running or done — the same no-deadlock argument as
 * CheckpointCache.
 */
class DonorTable
{
  public:
    explicit DonorTable(size_t traces) : entries_(traces) {}

    /** Donor completed: record its result and trigger cycles. */
    void publish(size_t trace, const PlayResult &result,
                 const std::array<uint64_t, rtl::numBugs> &triggers)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Entry &e = entries_[trace];
        e.result = result;
        e.triggers = triggers;
        e.state = State::Ready;
        cv_.notify_all();
    }

    /** Donor will never publish (its job was skipped). */
    void fail(size_t trace)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entries_[trace].state = State::Failed;
        cv_.notify_all();
    }

    /**
     * Block until @p trace's donor resolves. @return true (with
     * @p result / @p triggers filled) when it completed.
     */
    bool wait(size_t trace, PlayResult &result,
              std::array<uint64_t, rtl::numBugs> &triggers)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        Entry &e = entries_[trace];
        cv_.wait(lock, [&] { return e.state != State::Pending; });
        if (e.state != State::Ready)
            return false;
        result = e.result;
        triggers = e.triggers;
        return true;
    }

  private:
    enum class State
    {
        Pending,
        Ready,
        Failed,
    };

    struct Entry
    {
        State state = State::Pending;
        PlayResult result;
        std::array<uint64_t, rtl::numBugs> triggers{};
    };

    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<Entry> entries_;
};

/**
 * Per-trace chains of periodic donor checkpoints: (cycle, cache id)
 * links in increasing cycle order, filled by the donor job and read
 * by every non-donor job for the same trace after the donor
 * resolves. Each trace's chain carries a consumer count (one per
 * non-donor bug set); the last consumer frees the chain's cache
 * entries.
 */
class StrideChains
{
  public:
    StrideChains(size_t traces, unsigned consumers)
        : chains_(traces), remaining_(traces, consumers)
    {
    }

    /** Donor appends a checkpoint (cycles strictly increase). */
    void add(size_t trace, uint64_t cycle, size_t id)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        chains_[trace].push_back(Link{cycle, id});
    }

    /** @return cache id of the greatest checkpoint with cycle
     *  strictly below @p below, or -1 when none qualifies. */
    int64_t find(size_t trace, uint64_t below) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto &chain = chains_[trace];
        for (size_t i = chain.size(); i-- > 0;) {
            if (chain[i].cycle < below)
                return (int64_t)chain[i].id;
        }
        return -1;
    }

    /**
     * Drop one consumer claim on @p trace's chain. @return the
     * chain's cache ids when this was the last claim (the caller
     * frees them in the cache), empty otherwise.
     */
    std::vector<size_t> release(size_t trace)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--remaining_[trace] != 0)
            return {};
        std::vector<size_t> ids;
        ids.reserve(chains_[trace].size());
        for (const Link &link : chains_[trace])
            ids.push_back(link.id);
        chains_[trace].clear();
        chains_[trace].shrink_to_fit();
        return ids;
    }

  private:
    struct Link
    {
        uint64_t cycle = 0;
        size_t id = 0;
    };

    mutable std::mutex mutex_;
    std::vector<std::vector<Link>> chains_;
    std::vector<unsigned> remaining_;
};

/** Per-worker stat accumulators (merged once at the end). */
struct LocalStats
{
    uint64_t batchCycles = 0;
    uint64_t simulatedCycles = 0;
    uint64_t cyclesAvoided = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t fallbacks = 0;
    uint64_t copies = 0;
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

void
ReplayWarmCache::insert(std::shared_ptr<Entry> entry)
{
    if (!entry)
        return;
    size_t bytes = sizeof(Entry) + entry->key.size();
    for (const ChainLink &link : entry->chain)
        bytes += sizeof(ChainLink) + link.snapshot.size();
    entry->bytes = bytes;

    std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.count(entry->key))
        return; // entries are immutable; the first insert wins
    if (bytes > budget_)
        return; // alone past the whole budget: not cacheable
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
                      const rtl::BugSet &bugs)
{
    return playAll(traces, std::vector<rtl::BugSet>{bugs});
}

std::vector<PlayResult>
ReplayEngine::playAll(const std::vector<vecgen::TestTrace> &traces,
                      const std::vector<rtl::BugSet> &bug_sets)
{
    stats_ = ReplayStats{};
    const size_t nt = traces.size();
    const size_t nb = bug_sets.size();
    std::vector<PlayResult> results(nt * nb);
    if (nt == 0 || nb == 0)
        return results;
    stats_.jobs = nt * nb;

    // Cross-batch warm cache: resolve each trace's entry up front by
    // its full serialized content (exact match, so a foreign trace
    // can never borrow a warm result). Keys of the misses are kept —
    // they become the insert keys when this batch's bug-free runs
    // populate the cache.
    ReplayWarmCache *warm = options_.warmCache.get();
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

    // ------------------------------------------------------------------
    // Plan: the batch's prefix tree. Sorting traces lexicographically
    // by forced-cycle content makes every shared prefix a contiguous
    // run, and the LCP chain between sorted neighbours is exactly a
    // DFS of the prefix tree — a stack of live checkpoints mirrors
    // the DFS path. Each job publishes at most one checkpoint: the
    // deepest prefix it shares with its sorted successor. (Packed
    // cycles order as the rows they pack; see rtl::PackedSignals.)
    // ------------------------------------------------------------------
    std::vector<size_t> order(nt);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const auto &ca = traces[a].cycles;
        const auto &cb = traces[b].cycles;
        if (ca != cb)
            return std::lexicographical_compare(ca.begin(), ca.end(),
                                                cb.begin(), cb.end());
        return a < b;
    });
    std::vector<size_t> lcp(nt, 0);
    for (size_t i = 1; i < nt; ++i)
        lcp[i] = commonPrefix(traces[order[i - 1]].cycles,
                              traces[order[i]].cycles);

    // Plan-time byte accounting uses one footprint estimate for all
    // checkpoints (dmem dominates and is config-fixed), keeping the
    // plan a pure function of the batch.
    const size_t est =
        rtl::PpCore(config_, rtl::CoreMode::Vector).snapshotBytes();
    const size_t budget = options_.checkpointBudgetBytes;
    const size_t min_prefix = std::max<size_t>(1, options_.minPrefixCycles);

    // Bug-set axis: when the batch contains the empty bug set, its
    // block runs first as the per-trace donor; jobs in other blocks
    // whose bugs never triggered on the donor run reuse its result
    // outright, and (with the stride tier active) triggered jobs
    // resume from the donor's in-trace checkpoint chain with the bug
    // mask re-armed.
    size_t donor_set = nb;
    if (budget > 0 && nb > 1) {
        for (size_t b = 0; b < nb; ++b) {
            if (bug_sets[b].none()) {
                donor_set = b;
                break;
            }
        }
    }
    const bool donor_active = donor_set < nb;
    std::vector<size_t> set_order(nb);
    std::iota(set_order.begin(), set_order.end(), size_t{0});
    if (donor_active)
        std::swap(set_order[0], set_order[donor_set]);

    // The stride tier: periodic checkpoints along each donor run,
    // consumed cross-bug-set. While active, non-donor blocks take no
    // prefix chains of their own — a checkpoint valid below every
    // trigger cycle of two bug sets serves both, so the donor chain
    // subsumes them (jobs it cannot serve replay from reset).
    const size_t stride = options_.checkpointStride;
    const bool stride_active =
        donor_active && stride > 0 && budget > 0;

    std::vector<SlotPlan> slots;
    std::vector<Job> jobs;
    jobs.reserve(nt * nb);
    for (size_t bi = 0; bi < nb; ++bi) {
        size_t b = set_order[bi];
        const bool chain_this_block = !stride_active || bi == 0;
        std::vector<std::pair<size_t, int>> stack; // (depth, slot)
        size_t live_bytes = 0;
        for (size_t i = 0; i < nt; ++i) {
            Job job;
            job.trace = order[i];
            job.bugSet = b;
            if (chain_this_block) {
                size_t shared = (i == 0) ? 0 : lcp[i];
                while (!stack.empty() &&
                       stack.back().first > shared) {
                    live_bytes -= est;
                    stack.pop_back();
                }
                size_t start = 0;
                if (!stack.empty()) {
                    job.restoreSlot = stack.back().second;
                    start = stack.back().first;
                    ++slots[static_cast<size_t>(job.restoreSlot)]
                          .consumers;
                }
                if (budget > 0 && i + 1 < nt) {
                    size_t depth = lcp[i + 1];
                    if (depth > start && depth >= min_prefix &&
                        live_bytes + est <= budget) {
                        job.publishSlot =
                            static_cast<int>(slots.size());
                        job.publishDepth = depth;
                        slots.push_back(
                            SlotPlan{job.trace, depth, 0});
                        stack.emplace_back(depth, job.publishSlot);
                        live_bytes += est;
                    }
                }
            }
            jobs.push_back(job);
        }
    }

    // ------------------------------------------------------------------
    // Execute. Workers claim jobs in plan order, so a checkpoint's
    // producer is always claimed before any of its consumers: every
    // wait in CheckpointCache::consume is on a job that is already
    // running (or done), and every running job publishes or abandons
    // its slot — no deadlock, any worker count. Stride chains are
    // read only after DonorTable::wait returns, which orders them
    // after the donor's last add.
    // ------------------------------------------------------------------
    SpillStore spill(SpillStore::Options{
        options_.spillDir,
        budget > 0 ? options_.spillBudgetBytes : 0});
    CheckpointCache cache(config_, slots, budget, &spill,
                          options_.spillFault);
    DonorTable donors(donor_active ? nt : 0);
    StrideChains chains(stride_active ? nt : 0,
                        static_cast<unsigned>(nb - 1));
    std::atomic<size_t> next_job{0};
    std::vector<std::atomic<size_t>> first_div(nb);
    for (auto &fd : first_div)
        fd.store(nt, std::memory_order_relaxed);

    telemetry::ScopedSpan batch_span("replay.batch", "traces", nt,
                                     "bug_sets", nb);
    telemetry::Histogram &resume_depth = telemetry::histogram(
        "replay.resume_depth", telemetry::depthBounds());

    auto run_one = [&](const Job &job, LocalStats &ls) {
        telemetry::ScopedSpan job_span("replay.job", "trace",
                                       job.trace, "bug_set",
                                       job.bugSet);
        const vecgen::TestTrace &trace = traces[job.trace];
        const size_t len = trace.cycles.size();
        const bool is_donor = donor_active && job.bugSet == donor_set;
        // Every non-donor job holds one claim on its trace's stride
        // chain; dropping the last claim frees the chain.
        auto release_chain = [&] {
            if (stride_active && !is_donor)
                cache.dropChain(chains.release(job.trace));
        };

        const bool past_divergence =
            options_.stopOnDivergence &&
            first_div[job.bugSet].load(std::memory_order_acquire) <
                job.trace;
        const bool cancelled =
            !past_divergence && options_.cancelFlag &&
            options_.cancelFlag->load(std::memory_order_relaxed);
        if (past_divergence || cancelled) {
            // A trace earlier in the batch already diverged under
            // this bug set (or the batch was cancelled); drop our
            // claims so waiters resolve.
            if (job.restoreSlot >= 0)
                cache.release(static_cast<size_t>(job.restoreSlot));
            if (job.publishSlot >= 0)
                cache.abandon(static_cast<size_t>(job.publishSlot));
            if (is_donor)
                donors.fail(job.trace);
            release_chain();
            results[job.bugSet * nt + job.trace].skipped = true;
            if (cancelled)
                ++ls.cancelled;
            return;
        }

        // Fourth sharing axis: a warm entry deposited by an earlier
        // batch's bug-free run over a content-identical trace. It
        // plays the donor-block role without the wait — copy the
        // donor result outright when none of this job's bugs ever
        // triggered, otherwise resume from the warm checkpoint chain
        // below the first trigger (selected further down).
        const ReplayWarmCache::Entry *warm_entry_hit =
            warm ? warm_entries[job.trace].get() : nullptr;
        uint64_t warm_first = UINT64_MAX;
        if (warm_entry_hit) {
            uint64_t first = UINT64_MAX;
            for (size_t i = 0; i < rtl::numBugs; ++i) {
                if (bug_sets[job.bugSet].test(i))
                    first = std::min(first, warm_entry_hit->triggers[i]);
            }
            if (first == UINT64_MAX) {
                ++ls.warmCopies;
                ls.batchCycles += len;
                ls.cyclesAvoided += warm_entry_hit->donorResult.cycles;
                results[job.bugSet * nt + job.trace] =
                    warm_entry_hit->donorResult;
                if (is_donor)
                    donors.publish(job.trace,
                                   warm_entry_hit->donorResult,
                                   warm_entry_hit->triggers);
                if (job.restoreSlot >= 0)
                    cache.release(
                        static_cast<size_t>(job.restoreSlot));
                if (job.publishSlot >= 0)
                    cache.abandon(
                        static_cast<size_t>(job.publishSlot));
                release_chain();
                if (warm_entry_hit->donorResult.diverged &&
                    options_.stopOnDivergence)
                    fetchMin(first_div[job.bugSet], job.trace);
                return;
            }
            warm_first = first;
            ++ls.triggeredJobs;
            ls.triggeredJobCycles += len;
            ls.triggeredLeadCycles += std::min<uint64_t>(first, len);
        }

        // Bug-free jobs of a warm-enabled batch deposit the entry
        // the next batch will hit: the in-batch donor when there is
        // one, or a single-bug-set batch's own empty-set jobs (the
        // service's warm-up shape).
        const bool populate =
            warm && !warm_entry_hit &&
            bug_sets[job.bugSet].none() && (is_donor || nb == 1);
        std::shared_ptr<ReplayWarmCache::Entry> warm_entry;
        if (populate)
            warm_entry = std::make_shared<ReplayWarmCache::Entry>();

        // The cross-bug-set axes: wholesale donor-result reuse for
        // never-triggered jobs, donor-chain resume for triggered
        // ones. Both hinge on the same guarantee — fault effects are
        // strictly trigger-guarded and trigger cycles are recorded
        // on the bug-free run — so the donor's trajectory *is* the
        // bugged trajectory below the first trigger.
        int64_t stride_entry = -1;
        if (!warm_entry_hit && donor_active && !is_donor) {
            PlayResult donor_result;
            std::array<uint64_t, rtl::numBugs> triggers{};
            if (donors.wait(job.trace, donor_result, triggers)) {
                uint64_t first = UINT64_MAX;
                for (size_t i = 0; i < rtl::numBugs; ++i) {
                    if (bug_sets[job.bugSet].test(i))
                        first = std::min(first, triggers[i]);
                }
                if (first == UINT64_MAX) {
                    ++ls.copies;
                    ls.batchCycles += len;
                    ls.cyclesAvoided += donor_result.cycles;
                    results[job.bugSet * nt + job.trace] =
                        donor_result;
                    // Drop this job's slot claims so planned waiters
                    // in the same block resolve (they fall back to
                    // from-reset replay if they cannot copy too).
                    if (job.restoreSlot >= 0)
                        cache.release(
                            static_cast<size_t>(job.restoreSlot));
                    if (job.publishSlot >= 0)
                        cache.abandon(
                            static_cast<size_t>(job.publishSlot));
                    release_chain();
                    if (donor_result.diverged &&
                        options_.stopOnDivergence)
                        fetchMin(first_div[job.bugSet], job.trace);
                    return;
                }
                ++ls.triggeredJobs;
                ls.triggeredJobCycles += len;
                // The avoidable pool: the bug-free lead up to the
                // first trigger (a trigger can fire during drain, so
                // cap at the forced-cycle length).
                ls.triggeredLeadCycles +=
                    std::min<uint64_t>(first, len);
                if (stride_active)
                    stride_entry = chains.find(job.trace, first);
            }
        }

        rtl::PpCore core(config_, rtl::CoreMode::Vector);
        VectorPlayer::primeCore(core, trace, bug_sets[job.bugSet]);

        size_t start = 0;
        if (warm_entry_hit) {
            // Warm-chain resume: greatest link strictly below the
            // first trigger (the cross-bug-set validity rule), within
            // the trace, and — when this job still owes a planned
            // checkpoint — strictly below its publish depth so the
            // drive loop pauses there. A serialized snapshot is
            // self-contained (the core owns its stream and inbox by
            // value, and the key guarantees identical content), so a
            // valid record restores with nothing to rebind; a damaged
            // or foreign record degrades to from-reset replay.
            const ReplayWarmCache::ChainLink *link = nullptr;
            const auto &chain = warm_entry_hit->chain;
            for (size_t i = chain.size(); i-- > 0;) {
                if (chain[i].cycle < warm_first &&
                    chain[i].cycle <= len &&
                    (job.publishSlot < 0 ||
                     chain[i].cycle < job.publishDepth)) {
                    link = &chain[i];
                    break;
                }
            }
            if (link) {
                rtl::PpCore::Snapshot snap =
                    rtl::PpCore::deserializeSnapshot(
                        config_, rtl::CoreMode::Vector,
                        link->snapshot.data(), link->snapshot.size());
                if (snap.valid() && snap.cycles() <= len) {
                    core.restoreWithBugs(snap, bug_sets[job.bugSet]);
                    start = snap.cycles();
                    ++ls.warmChainHits;
                    ls.warmResumeCycles += start;
                    ls.cyclesAvoided += start;
                } else {
                    ++ls.misses;
                }
            }
        }
        if (warm_entry_hit && start > 0 && job.restoreSlot >= 0) {
            // The warm resume superseded the planned restore; drop
            // the claim so the slot can be freed.
            cache.release(static_cast<size_t>(job.restoreSlot));
        } else if (stride_entry >= 0) {
            // In-trace donor checkpoint: same trace, so the stimulus
            // is identical by construction and no prefix
            // verification is needed; validity below the first
            // trigger was checked when the entry was chosen. The
            // restore re-arms this job's bug mask (the one field of
            // the donor state that legitimately differs).
            rtl::PpCore::Snapshot snap =
                cache.fetchStride(static_cast<size_t>(stride_entry));
            if (!snap.valid() || snap.cycles() > len) {
                ++ls.misses;
            } else {
                core.restoreWithBugs(snap, bug_sets[job.bugSet]);
                start = snap.cycles();
                ++ls.strideHits;
                ls.strideResumeCycles += start;
                ls.cyclesAvoided += start;
            }
        } else if (job.restoreSlot >= 0) {
            rtl::PpCore::Snapshot snap =
                cache.consume(static_cast<size_t>(job.restoreSlot));
            if (!snap.valid()) {
                ++ls.misses;
            } else {
                const vecgen::TestTrace &donor =
                    traces[slots[static_cast<size_t>(job.restoreSlot)]
                               .donorTrace];
                // Exact reuse condition: our stimulus prefix must
                // equal the donor's up to everything the checkpoint
                // consumed. On any mismatch, replay from reset —
                // correctness never rides on the plan being right.
                size_t depth = snap.cycles();
                size_t consumed = snap.streamConsumed();
                size_t popped =
                    donor.inbox.size() - snap.inboxRemaining();
                bool ok =
                    depth <= trace.cycles.size() &&
                    consumed <= trace.fetchStream.size() &&
                    popped <= trace.inbox.size() &&
                    std::equal(donor.cycles.begin(),
                               donor.cycles.begin() +
                                   static_cast<long>(depth),
                               trace.cycles.begin()) &&
                    std::equal(donor.fetchStream.begin(),
                               donor.fetchStream.begin() +
                                   static_cast<long>(consumed),
                               trace.fetchStream.begin()) &&
                    std::equal(donor.inbox.begin(),
                               donor.inbox.begin() +
                                   static_cast<long>(popped),
                               trace.inbox.begin());
                if (!ok) {
                    ++ls.fallbacks;
                } else {
                    core.restore(snap);
                    core.rebindStream(trace.fetchStream);
                    core.rebindInbox(trace.inbox, popped);
                    start = depth;
                    ++ls.hits;
                    ls.cyclesAvoided += depth;
                }
            }
        }

        resume_depth.record(double(start));

        // Drive to the end of the trace, pausing at this job's
        // planned publish depth and (donor runs) at every stride
        // boundary to snapshot. The donor publishes its chain links
        // before DonorTable::publish, so consumers always see a
        // complete chain.
        const size_t my_stride =
            (stride_active && is_donor) ? stride : 0;
        // Populating runs pause at stride boundaries even when the
        // in-batch tier is off (single-bug-set warm-up batches have
        // no in-batch consumers) — one snapshot per boundary serves
        // both the in-batch chain and the warm entry.
        const size_t snap_stride =
            my_stride ? my_stride
                      : (populate && stride > 0 ? stride : 0);
        uint64_t stepped_from = core.cycles();
        size_t pos = start;
        size_t next_stride =
            snap_stride ? (start / snap_stride + 1) * snap_stride
                        : len + 1;
        // Warm-chain population stays under the cache's per-entry
        // byte cap by logarithmic thinning: when the next link would
        // overflow, drop every other kept link and double the link
        // stride. Coverage degrades gracefully — a long trace keeps
        // geometrically spaced resume points instead of none.
        size_t warm_link_stride = snap_stride;
        size_t warm_chain_bytes = 0;
        auto warm_add_link = [&](size_t cycle,
                                 const rtl::PpCore::Snapshot &snap) {
            if (cycle % warm_link_stride != 0)
                return;
            std::vector<uint8_t> bytes = snap.serialize();
            const size_t cap = warm->chainBytesCap();
            const size_t cost = sizeof(ReplayWarmCache::ChainLink) +
                                bytes.size();
            auto &chain = warm_entry->chain;
            while (warm_chain_bytes + cost > cap && !chain.empty()) {
                warm_link_stride *= 2;
                size_t kept = 0;
                warm_chain_bytes = 0;
                for (size_t i = 0; i < chain.size(); ++i) {
                    if (chain[i].cycle % warm_link_stride != 0)
                        continue;
                    warm_chain_bytes +=
                        sizeof(ReplayWarmCache::ChainLink) +
                        chain[i].snapshot.size();
                    chain[kept++] = std::move(chain[i]);
                }
                chain.resize(kept);
            }
            if (cycle % warm_link_stride != 0 ||
                warm_chain_bytes + cost > cap)
                return;
            warm_chain_bytes += cost;
            chain.push_back(ReplayWarmCache::ChainLink{
                cycle, std::move(bytes)});
        };
        while (pos < len) {
            size_t stop = len;
            if (job.publishSlot >= 0 && job.publishDepth > pos)
                stop = std::min(stop, job.publishDepth);
            if (next_stride > pos)
                stop = std::min(stop, next_stride);
            VectorPlayer::drive(core, trace, pos, stop);
            pos = stop;
            if (job.publishSlot >= 0 && pos == job.publishDepth)
                cache.publish(static_cast<size_t>(job.publishSlot),
                              core.snapshot());
            if (snap_stride && pos == next_stride) {
                if (pos < len) {
                    rtl::PpCore::Snapshot snap = core.snapshot();
                    if (populate)
                        warm_add_link(pos, snap);
                    if (my_stride)
                        chains.add(job.trace, pos,
                                   cache.addStride(std::move(snap)));
                }
                next_stride += snap_stride;
            }
        }
        // The loop above always reaches publishDepth (the plan keeps
        // it in (start, len]); this guard only exists so a planning
        // bug could never strand waiters on a Pending slot.
        if (job.publishSlot >= 0 && job.publishDepth > len)
            cache.abandon(static_cast<size_t>(job.publishSlot));
        PlayResult result = VectorPlayer::finish(config_, core, trace);
        ls.simulatedCycles += core.cycles() - stepped_from;
        ls.batchCycles += len;
        results[job.bugSet * nt + job.trace] = result;

        if (is_donor || populate) {
            // Trigger cycles are exact even when this run resumed
            // from a checkpoint: the snapshot carries the donor
            // prefix's counters, and the verified-identical stimulus
            // makes that prefix's triggers this trace's triggers.
            std::array<uint64_t, rtl::numBugs> triggers{};
            for (size_t i = 0; i < rtl::numBugs; ++i)
                triggers[i] =
                    core.bugFirstTrigger(static_cast<rtl::BugId>(i));
            if (is_donor)
                donors.publish(job.trace, result, triggers);
            if (populate) {
                warm_entry->key = std::move(warm_keys[job.trace]);
                warm_entry->donorResult = result;
                warm_entry->triggers = triggers;
                warm->insert(std::move(warm_entry));
                ++ls.warmInserts;
            }
        }
        release_chain();

        if (result.diverged && options_.stopOnDivergence)
            fetchMin(first_div[job.bugSet], job.trace);
    };

    unsigned workers = std::min<size_t>(options_.numThreads, jobs.size());
    std::vector<LocalStats> local(std::max(1u, workers));
    if (workers <= 1) {
        for (const Job &job : jobs)
            run_one(job, local[0]);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
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
                while (true) {
                    size_t j = next_job.fetch_add(
                        1, std::memory_order_relaxed);
                    if (j >= jobs.size())
                        break;
                    run_one(jobs[j], local[w]);
                }
            });
        }
        for (std::thread &t : pool)
            t.join();
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

    for (const LocalStats &ls : local) {
        stats_.batchCycles += ls.batchCycles;
        stats_.simulatedCycles += ls.simulatedCycles;
        stats_.cyclesAvoided += ls.cyclesAvoided;
        stats_.checkpointHits += ls.hits;
        stats_.checkpointMisses += ls.misses;
        stats_.verifyFallbacks += ls.fallbacks;
        stats_.bugSetCopies += ls.copies;
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
    }
    stats_.checkpointsPublished = cache.published();
    stats_.strideCheckpoints = cache.strideCheckpoints();
    stats_.cacheEvictions = cache.evictions();
    stats_.peakCacheBytes = cache.peakBytes();
    stats_.spillWrites = spill.writes();
    stats_.spillReads = spill.reads();
    stats_.spillBytes = spill.bytesWritten();
    stats_.spillFallbacks = cache.spillFallbacks();

    // Registry mirror of the batch stats: one add per batch keeps
    // the hot path free of shared-counter traffic.
    telemetry::counter("replay.jobs").add(stats_.jobs);
    telemetry::counter("replay.checkpoint_hits")
        .add(stats_.checkpointHits);
    telemetry::counter("replay.checkpoint_misses")
        .add(stats_.checkpointMisses);
    telemetry::counter("replay.verify_fallbacks")
        .add(stats_.verifyFallbacks);
    telemetry::counter("replay.bug_set_copies")
        .add(stats_.bugSetCopies);
    telemetry::counter("replay.stride_hits").add(stats_.strideHits);
    telemetry::counter("replay.spill_writes").add(stats_.spillWrites);
    telemetry::counter("replay.spill_reads").add(stats_.spillReads);
    telemetry::counter("replay.spill_fallbacks")
        .add(stats_.spillFallbacks);
    if (stats_.spillFallbacks)
        flight::recordEvent(flight::EventKind::SpillFallback,
                            telemetry::currentJobId(),
                            stats_.spillFallbacks, "replay");
    telemetry::counter("replay.cycles_avoided")
        .add(stats_.cyclesAvoided);
    telemetry::counter("replay.cycles_simulated")
        .add(stats_.simulatedCycles);
    telemetry::gauge("replay.peak_cache_bytes")
        .set(static_cast<int64_t>(stats_.peakCacheBytes));
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
