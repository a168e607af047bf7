/**
 * @file
 * The enumerator: one level-synchronous breadth-first search for
 * every option set (see DESIGN.md, "State enumeration").
 *
 * Each BFS level is cut into contiguous slices that numThreads
 * workers expand in parallel; the level barrier then turns what they
 * found into graph states and edges. None of the following may change
 * a produced byte (tests/test_enum_parallel.cc pins golden
 * fingerprints; the `enum` and `ooc` differentials compare
 * configurations):
 *
 *  - Delayed duplicate detection. Workers never probe the interned
 *    state table; every destination is interned into a level-local
 *    per-partition candidate table and gets a provisional id — even
 *    states already known from earlier levels. Resolution against
 *    the partitioned table happens at the level barrier, one
 *    partition at a time, so only one partition need be resident
 *    while resolving. Provisional ids are stable per state for the
 *    whole level, so FirstCondition dedup on them equals dedup on
 *    canonical ids.
 *
 *  - The canonical walk. The barrier numbers still-provisional states
 *    at their first occurrence walking workers in index order,
 *    sources in level order and transitions in generation order —
 *    the order a one-source-at-a-time BFS discovers them in — so ids
 *    and edges are the same for every worker count.
 *
 *  - Paging only under a budget. With memoryBudgetBytes > 0, cold
 *    partitions are written to CRC-guarded shard files and their
 *    tables freed, and the next level's frontier goes to a frontier
 *    file at the barrier. Any read damage either rebuilds the content
 *    from the retained graph (counted in enum.spill_fallbacks) or,
 *    when states are not retained, fails the run with a typed error —
 *    never a silently different graph. A zero budget makes no spill
 *    directory and pages nothing.
 *
 *  - Cancellation per source. Workers read EnumOptions::cancelFlag
 *    before every source; a raised flag stops them and the partial
 *    level is discarded.
 */

#include "enumerator.hh"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>

#include "murphi/ooc.hh"
#include "support/flight_recorder.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/table_memory.hh"
#include "support/telemetry.hh"
#include "support/timer.hh"

namespace archval::murphi
{

std::string
EnumStats::render() const
{
    std::string out;
    out += formatString("Number of states        %s\n",
                        withCommas(numStates).c_str());
    out += formatString("Number of bits per state %zu\n", bitsPerState);
    out += formatString("Execution time          %.1f cpu secs\n",
                        cpuSeconds);
    out += formatString("Memory requirement      %s\n",
                        humanBytes(memoryBytes).c_str());
    out += formatString("Number of edges         %s\n",
                        withCommas(numEdges).c_str());
    out += formatString("Transitions tried/valid %s / %s\n",
                        withCommas(transitionsTried).c_str(),
                        withCommas(transitionsValid).c_str());
    if (numThreads > 1) {
        uint64_t widest = 0;
        double peak = 0.0;
        for (const LevelStats &level : levels) {
            widest = std::max(widest, level.frontierWidth);
            peak = std::max(peak, level.statesPerSec());
        }
        out += formatString("Worker threads          %u over %zu shards\n",
                            numThreads, numShards);
        out += formatString("BFS levels              %zu (max frontier %s)\n",
                            levels.size(), withCommas(widest).c_str());
        out += formatString("Peak throughput         %s states/sec\n",
                            withCommas(uint64_t(peak)).c_str());
        out += formatString("Shard occupancy         min %s / max %s\n",
                            withCommas(minShardStates).c_str(),
                            withCommas(maxShardStates).c_str());
    }
    if (spillBytesWritten || pageIns || pageOuts || spillFallbacks) {
        out += formatString("Spill bytes written     %s\n",
                            humanBytes(spillBytesWritten).c_str());
        out += formatString("Shard pages in/out      %s / %s\n",
                            withCommas(pageIns).c_str(),
                            withCommas(pageOuts).c_str());
        out += formatString("Residency high water    %s\n",
                            humanBytes(residencyHighWaterBytes).c_str());
        out += formatString("Spill fallbacks         %s\n",
                            withCommas(spillFallbacks).c_str());
    }
    return out;
}

std::string
EnumStats::renderLevels() const
{
    std::string out = formatString("%6s %12s %12s %12s %12s\n", "level",
                                   "frontier", "new states", "new edges",
                                   "states/sec");
    for (size_t i = 0; i < levels.size(); ++i) {
        const LevelStats &level = levels[i];
        out += formatString("%6zu %12s %12s %12s %12s\n", i,
                            withCommas(level.frontierWidth).c_str(),
                            withCommas(level.newStates).c_str(),
                            withCommas(level.newEdges).c_str(),
                            withCommas(uint64_t(
                                level.statesPerSec())).c_str());
    }
    return out;
}

namespace
{

/** Interned state table (one partition). */
using StateTable = ooc::StateMap;

/**
 * High bit marks a provisional (not yet canonically numbered) state
 * id. A provisional id encodes (partition, pending slot) so the
 * barrier walk can find the entry to renumber.
 */
constexpr graph::StateId kPendingFlag = 0x8000'0000u;

} // namespace

Enumerator::Enumerator(const fsm::Model &model, EnumOptions options)
    : model_(model), options_(options)
{
}

graph::StateGraph
Enumerator::runOrThrow()
{
    Result<graph::StateGraph> result = run();
    if (!result.ok())
        fatal(result.errorMessage());
    return result.take();
}

Result<graph::StateGraph>
Enumerator::run()
{
    unsigned num_threads = options_.numThreads;
    if (num_threads == 0) {
        num_threads = std::thread::hardware_concurrency();
        if (num_threads == 0)
            num_threads = 1;
    }
    stats_ = EnumStats{};

    telemetry::ScopedSpan run_span("enum.run", "threads", num_threads);
    CpuTimer timer;

    const fsm::ChoiceCodec codec = model_.makeChoiceCodec();
    const uint64_t combos = codec.numCombinations();
    const size_t state_bits = model_.stateBits();
    const bool retain = options_.retainStates;
    const bool first_condition =
        options_.recording == EdgeRecording::FirstCondition;
    const ooc::TestHooks *hooks = options_.testHooks;

    telemetry::Counter &spill_bytes_ctr =
        telemetry::counter("enum.spill_bytes");
    telemetry::Counter &page_in_ctr =
        telemetry::counter("enum.page_ins");
    telemetry::Counter &page_out_ctr =
        telemetry::counter("enum.page_outs");
    telemetry::Counter &fallback_ctr =
        telemetry::counter("enum.spill_fallbacks");

    auto spill_fallback = [&](const char *why) {
        ++stats_.spillFallbacks;
        fallback_ctr.add();
        flight::recordEvent(flight::EventKind::SpillFallback,
                            telemetry::currentJobId(), 0, why);
        logWarn(formatString("enumerator (out-of-core): %s", why));
    };

    // Partition count: a power of two; high enough that one resident
    // partition is a small slice of the table, and never below the
    // thread count's contention-comfort point.
    size_t num_parts = 1;
    unsigned part_bits = 0;
    const size_t min_parts =
        options_.oocPartitions
            ? options_.oocPartitions
            : std::max<size_t>(64, size_t(num_threads) * 4);
    while (num_parts < min_parts) {
        num_parts <<= 1;
        ++part_bits;
    }
    const size_t part_mask = num_parts - 1;

    // Spill scratch: requested by a non-zero budget. An unusable
    // directory degrades the run to fully-resident tables rather
    // than failing it — the graph is identical either way.
    const bool paging_requested = options_.memoryBudgetBytes > 0;
    std::optional<ooc::SpillDir> spill_dir;
    if (paging_requested)
        spill_dir.emplace(options_.spillDir);
    bool paging = paging_requested && spill_dir && spill_dir->ok();
    if (paging_requested && !paging)
        spill_fallback("spill directory unusable; "
                       "running fully resident");
    const std::string spill_path = paging ? spill_dir->path() : "";

    ResidencyBudget budget;
    budget.budgetBytes = options_.memoryBudgetBytes;

    /**
     * One partition of the interned state table, plus its
     * level-local candidate table (delayed duplicate detection; see
     * file comment). unordered_map nodes are stable across rehash,
     * so the raw pointers into `cand` survive the level.
     */
    struct Partition
    {
        std::mutex mutex;
        StateTable table;
        size_t tablePayload = 0;    ///< summed key.memoryBytes()
        bool resident = true;
        uint64_t spilledCount = 0;  ///< entries in its shard file
        uint64_t lastUse = 0;       ///< LRU clock for eviction
        StateTable cand;            ///< this level's candidates
        std::vector<const BitVec *> pendingKeys;
        std::vector<graph::StateId *> pendingIds;
        std::vector<char> resolvedKnown; ///< slot was already interned
    };
    std::vector<Partition> parts(num_parts);
    uint64_t use_clock = 0;
    std::string error;

    auto partition_bytes = [&](const Partition &part) {
        return hashTableFootprint(
                   part.table.bucket_count(), part.table.size(),
                   sizeof(StateTable::value_type),
                   part.tablePayload)
            .total();
    };

    auto page_out = [&](size_t p) -> bool {
        Partition &part = parts[p];
        const std::string path = ooc::shardPath(spill_path, p);
        uint64_t bytes = 0;
        if (!ooc::writeShardFile(path, p, state_bits, part.table,
                                 &bytes)) {
            return false;
        }
        stats_.spillBytesWritten += bytes;
        spill_bytes_ctr.add(bytes);
        ++stats_.pageOuts;
        page_out_ctr.add();
        part.spilledCount = part.table.size();
        StateTable().swap(part.table);
        part.tablePayload = 0;
        part.resident = false;
        if (hooks && hooks->afterShardPageOut)
            hooks->afterShardPageOut(path, p);
        return true;
    };

    // Evict least-recently-used resident partitions (never @p keep)
    // until the resident footprint fits the budget or nothing
    // evictable remains. A failed page-out stops eviction for this
    // call — a sick disk must not be retried per partition.
    auto enforce_budget = [&](size_t keep) {
        if (!paging)
            return;
        for (;;) {
            size_t resident_bytes = 0;
            for (const Partition &part : parts) {
                if (part.resident)
                    resident_bytes += partition_bytes(part);
            }
            if (resident_bytes <= budget.budgetBytes)
                break;
            size_t victim = SIZE_MAX;
            uint64_t oldest = UINT64_MAX;
            for (size_t p = 0; p < num_parts; ++p) {
                const Partition &part = parts[p];
                if (p == keep || !part.resident ||
                    part.table.empty()) {
                    continue;
                }
                if (part.lastUse < oldest) {
                    oldest = part.lastUse;
                    victim = p;
                }
            }
            if (victim == SIZE_MAX)
                break;
            if (!page_out(victim)) {
                spill_fallback("shard page-out failed; "
                               "keeping partition resident");
                break;
            }
        }
    };

    graph::StateGraph graph;

    // Page a partition's table back in (CRC-verified). Damage
    // rebuilds the partition from the retained graph — the graph is
    // the ground truth the table merely indexes — or, when states
    // are not retained, fails the run with a typed error.
    auto ensure_resident = [&](size_t p) -> bool {
        Partition &part = parts[p];
        part.lastUse = ++use_clock;
        if (part.resident)
            return true;
        const std::string path = ooc::shardPath(spill_path, p);
        uint64_t payload = 0;
        bool ok = ooc::readShardFile(
            path, p, state_bits,
            [&](BitVec &&key, graph::StateId id) {
                payload += key.memoryBytes();
                part.table.emplace(std::move(key), id);
            });
        if (ok && part.table.size() != part.spilledCount)
            ok = false;
        if (!ok) {
            StateTable().swap(part.table);
            part.tablePayload = 0;
            if (!retain) {
                ++stats_.spillFallbacks;
                fallback_ctr.add();
                error = formatString(
                    "shard spill file %s is damaged and packed "
                    "states are not retained; cannot rebuild",
                    path.c_str());
                part.resident = true; // (empty) — no more reads
                return false;
            }
            spill_fallback("shard spill file damaged; "
                           "rebuilding partition from graph");
            for (graph::StateId id = 0; id < graph.numStates();
                 ++id) {
                const BitVec &state = graph.packedState(id);
                const size_t hash = BitVecHash{}(state);
                if ((hash & part_mask) != p)
                    continue;
                part.tablePayload += state.memoryBytes();
                part.table.emplace(state, id);
            }
        } else {
            part.tablePayload = payload;
        }
        part.resident = true;
        ++stats_.pageIns;
        page_in_ctr.add();
        enforce_budget(p);
        return true;
    };

    BitVec reset = model_.resetState();
    if (reset.numBits() != state_bits) {
        return Result<graph::StateGraph>::error(
            formatString("model reset state is %zu bits but the state "
                         "layout declares %zu",
                         reset.numBits(), state_bits));
    }
    {
        Partition &part = parts[BitVecHash{}(reset) & part_mask];
        part.tablePayload += reset.memoryBytes();
        part.table.emplace(reset, 0);
        if (retain)
            graph.addState(reset);
        else
            graph.addStateUnretained();
    }
    std::vector<BitVec> level_states;
    level_states.push_back(std::move(reset));

    /** One worker-discovered transition; dst is provisional. */
    struct TransRec
    {
        uint64_t code;
        graph::StateId dst;
        uint32_t instrs;
    };
    /** All transitions found for one slice, grouped per source. */
    struct WorkerOut
    {
        std::vector<TransRec> trans;
        std::vector<uint64_t> perSource;
        uint64_t valid = 0;
        bool cancelled = false; ///< stopped early on cancelFlag
    };

    // Intern a destination into its partition's candidate table and
    // return its (stable for the level) provisional id.
    auto intern_cand = [&](BitVec &&state) -> graph::StateId {
        const size_t hash = BitVecHash{}(state);
        Partition &part = parts[hash & part_mask];
        std::lock_guard<std::mutex> lock(part.mutex);
        auto [it, inserted] =
            part.cand.try_emplace(std::move(state), 0);
        if (inserted) {
            const uint32_t slot =
                static_cast<uint32_t>(part.pendingKeys.size());
            if (slot >= (kPendingFlag >> part_bits))
                panic("enumerator: provisional id space exhausted");
            it->second = kPendingFlag | (slot << part_bits) |
                         static_cast<uint32_t>(hash & part_mask);
            part.pendingKeys.push_back(&it->first);
            part.pendingIds.push_back(&it->second);
        }
        return it->second;
    };

    telemetry::Gauge &frontier_gauge =
        telemetry::gauge("enum.frontier");
    telemetry::Gauge &residency_gauge =
        telemetry::gauge("enum.residency_high_water");
    telemetry::Histogram &barrier_wait =
        telemetry::histogram("enum.barrier_wait_seconds");

    bool frontier_spill_enabled = paging;
    bool frontier_on_disk = false;
    size_t width = 1;
    uint64_t level_first = 0;
    size_t level_index = 0;

    while (width > 0 && error.empty()) {
        WallTimer level_timer;

        // Reload a spilled frontier. The file carries the level, the
        // state width and the exact count, all CRC-guarded; damage
        // rebuilds the frontier from the retained graph (this
        // level's ids are [level_first, level_first + width)) or
        // fails the run typed.
        if (frontier_on_disk) {
            const std::string path =
                ooc::frontierPath(spill_path, level_index);
            const bool ok = ooc::readFrontierFile(
                path, level_index, state_bits, width, level_states);
            ::remove(path.c_str());
            frontier_on_disk = false;
            if (!ok) {
                if (!retain) {
                    ++stats_.spillFallbacks;
                    fallback_ctr.add();
                    error = formatString(
                        "frontier spill file %s is damaged and "
                        "packed states are not retained; cannot "
                        "rebuild",
                        path.c_str());
                    break;
                }
                spill_fallback("frontier spill file damaged; "
                               "rebuilding from graph");
                level_states.clear();
                level_states.reserve(width);
                for (size_t i = 0; i < width; ++i) {
                    level_states.push_back(graph.packedState(
                        static_cast<graph::StateId>(level_first +
                                                    i)));
                }
            }
        }

        const unsigned workers = static_cast<unsigned>(
            std::min<size_t>(num_threads, width));
        std::vector<WorkerOut> outs(workers);
        std::vector<uint64_t> finish_ns(workers, 0);
        frontier_gauge.set(static_cast<int64_t>(width));
        telemetry::ScopedSpan level_span("enum.level", "level",
                                         level_index, "frontier",
                                         width);

        // Expand a disjoint contiguous slice of the level, recording
        // in the canonical order (sources in level order, transitions
        // in generation order). The cancel flag is read before every
        // source.
        const uint64_t job_id = telemetry::currentJobId();
        auto expand = [&, job_id](unsigned w) {
            telemetry::JobScope job_scope(job_id);
            const size_t begin = width * w / workers;
            const size_t end = width * (w + 1) / workers;
            if (telemetry::tracingEnabled()) {
                telemetry::setThreadName(
                    formatString("enum.worker.%u", w));
            }
            telemetry::ScopedSpan expand_span(
                "enum.expand", "worker", w, "sources", end - begin);
            WorkerOut &out = outs[w];
            out.perSource.reserve(end - begin);
            auto cancelled = [&] {
                if (options_.cancelFlag &&
                    options_.cancelFlag->load(std::memory_order_relaxed))
                    out.cancelled = true;
                return out.cancelled;
            };
            std::unordered_set<uint64_t> dst_seen;
            const std::function<void(uint64_t, fsm::Transition &&)>
                record = [&](uint64_t code,
                             fsm::Transition &&transition) {
                    ++out.valid;
                    const uint32_t instrs = transition.instructions;
                    const graph::StateId dst =
                        intern_cand(std::move(transition.next));
                    if (first_condition && !dst_seen.insert(dst).second)
                        return;
                    out.trans.push_back({code, dst, instrs});
                };
            for (size_t i = begin; i < end && !cancelled(); ++i) {
                const size_t before = out.trans.size();
                dst_seen.clear();
                model_.forEachTransition(level_states[i], record);
                out.perSource.push_back(out.trans.size() - before);
            }
            finish_ns[w] = telemetry::nowNs();
        };
        if (workers == 1) {
            expand(0);
        } else {
            std::vector<std::thread> threads;
            threads.reserve(workers);
            for (unsigned w = 0; w < workers; ++w)
                threads.emplace_back(expand, w);
            for (std::thread &t : threads)
                t.join();
        }
        const uint64_t slowest =
            *std::max_element(finish_ns.begin(), finish_ns.end());
        for (unsigned w = 0; w < workers; ++w)
            barrier_wait.record(double(slowest - finish_ns[w]) / 1e9);

        // A cancelled worker left its slice short: discard the level.
        if (std::any_of(outs.begin(), outs.end(),
                        [](const WorkerOut &out) {
                            return out.cancelled;
                        })) {
            error = "enumeration cancelled";
            break;
        }

        stats_.transitionsTried += uint64_t(width) * combos;
        for (const WorkerOut &out : outs)
            stats_.transitionsValid += out.valid;

        // --- Level barrier ----------------------------------------
        // (1) Delayed duplicate detection: resolve each partition's
        // candidates against its table, paging partitions in one at
        // a time. Candidates found in the table get their canonical
        // id written through the stable pointer; the rest stay
        // provisional for the walk below to number.
        for (size_t p = 0; p < num_parts && error.empty(); ++p) {
            Partition &part = parts[p];
            if (part.pendingKeys.empty())
                continue;
            part.resolvedKnown.assign(part.pendingKeys.size(), 0);
            if (!ensure_resident(p))
                break;
            for (size_t slot = 0; slot < part.pendingKeys.size();
                 ++slot) {
                auto it = part.table.find(*part.pendingKeys[slot]);
                if (it != part.table.end()) {
                    *part.pendingIds[slot] = it->second;
                    part.resolvedKnown[slot] = 1;
                }
            }
        }
        if (!error.empty())
            break;

        // (2) Canonical id assignment: workers in index order,
        // sources in level order, transitions in generation order,
        // numbering each still-provisional state at its first
        // occurrence. This is what makes the graph the same for every
        // worker count.
        const uint64_t interned = graph.numStates();
        const uint64_t edges_before = graph.numEdges();
        std::vector<BitVec> new_states;
        std::vector<graph::Edge> new_edges;
        for (unsigned w = 0; w < workers && error.empty(); ++w) {
            WorkerOut &out = outs[w];
            const size_t begin = width * w / workers;
            size_t cursor = 0;
            for (size_t i = 0;
                 i < out.perSource.size() && error.empty(); ++i) {
                const graph::StateId src = static_cast<graph::StateId>(
                    level_first + begin + i);
                for (uint64_t t = 0; t < out.perSource[i];
                     ++t, ++cursor) {
                    const TransRec &rec = out.trans[cursor];
                    graph::StateId dst = rec.dst;
                    if (dst & kPendingFlag) {
                        const uint32_t raw = dst & ~kPendingFlag;
                        Partition &part = parts[raw & part_mask];
                        const uint32_t slot = raw >> part_bits;
                        graph::StateId current =
                            *part.pendingIds[slot];
                        if (current & kPendingFlag) {
                            if (options_.maxStates &&
                                interned + new_states.size() >=
                                    options_.maxStates) {
                                error = formatString(
                                    "state explosion: search exceeds "
                                    "%llu states",
                                    static_cast<unsigned long long>(
                                        options_.maxStates));
                                break;
                            }
                            current = static_cast<graph::StateId>(
                                interned + new_states.size());
                            *part.pendingIds[slot] = current;
                            new_states.push_back(
                                *part.pendingKeys[slot]);
                        }
                        dst = current;
                    }
                    new_edges.push_back(
                        {src, dst, rec.code, rec.instrs});
                }
            }
        }
        if (!error.empty())
            break;
        std::vector<WorkerOut>().swap(outs);

        // (3) Intern the newly numbered states into their
        // partitions' tables (again paging one partition at a time).
        for (size_t p = 0; p < num_parts && error.empty(); ++p) {
            Partition &part = parts[p];
            if (part.pendingKeys.empty())
                continue;
            if (!ensure_resident(p))
                break;
            for (size_t slot = 0; slot < part.pendingKeys.size();
                 ++slot) {
                if (part.resolvedKnown[slot])
                    continue;
                const graph::StateId id = *part.pendingIds[slot];
                part.tablePayload +=
                    part.pendingKeys[slot]->memoryBytes();
                part.table.emplace(*part.pendingKeys[slot], id);
            }
        }
        if (!error.empty())
            break;

        // (4) Drop the level-local candidate tables.
        for (Partition &part : parts) {
            StateTable().swap(part.cand);
            part.pendingKeys.clear();
            part.pendingIds.clear();
            part.resolvedKnown.clear();
        }

        // (5) Commit states and edges to the graph.
        std::vector<BitVec> next_states;
        if (retain) {
            next_states = new_states;
            graph.addStates(std::move(new_states));
        } else {
            graph.addStatesUnretained(new_states.size());
            next_states = std::move(new_states);
        }
        graph.addEdges(new_edges);

        // (6) Spill the next frontier. Only a non-empty frontier is
        // written (so every written file is read back), and a write
        // failure keeps the in-memory vector and stops spilling —
        // degradation, not damage.
        const size_t new_count = next_states.size();
        if (frontier_spill_enabled && new_count > 0) {
            const std::string path =
                ooc::frontierPath(spill_path, level_index + 1);
            uint64_t bytes = 0;
            if (ooc::writeFrontierFile(path, level_index + 1,
                                       state_bits, next_states,
                                       &bytes)) {
                stats_.spillBytesWritten += bytes;
                spill_bytes_ctr.add(bytes);
                frontier_on_disk = true;
                std::vector<BitVec>().swap(next_states);
                if (hooks && hooks->afterFrontierWrite)
                    hooks->afterFrontierWrite(path);
            } else {
                spill_fallback("frontier spill write failed; "
                               "keeping frontier in memory");
                frontier_spill_enabled = false;
            }
        }

        // (7) Enforce the budget at its steady-state point and take
        // the residency reading the acceptance gate asserts on.
        if (paging) {
            enforce_budget(SIZE_MAX);
            size_t resident_bytes = 0;
            for (const Partition &part : parts) {
                if (part.resident)
                    resident_bytes += partition_bytes(part);
            }
            budget.update(resident_bytes);
            residency_gauge.set(
                static_cast<int64_t>(budget.highWaterBytes));
        }

        LevelStats level_stats;
        level_stats.frontierWidth = width;
        level_stats.newStates = graph.numStates() - interned;
        level_stats.newEdges = graph.numEdges() - edges_before;
        level_stats.seconds = level_timer.seconds();
        stats_.levels.push_back(level_stats);

        level_first = interned;
        level_states = std::move(next_states);
        width = new_count;
        ++level_index;
    }
    if (!error.empty())
        return Result<graph::StateGraph>::error(error);

    stats_.numStates = graph.numStates();
    stats_.numEdges = graph.numEdges();
    stats_.bitsPerState = state_bits;
    stats_.cpuSeconds = timer.seconds();
    stats_.numThreads = num_threads;
    stats_.numShards = num_parts;
    stats_.residencyHighWaterBytes = budget.highWaterBytes;
    size_t table_bytes = 0;
    size_t min_occupancy = SIZE_MAX;
    size_t max_occupancy = 0;
    for (const Partition &part : parts) {
        const size_t entries = part.resident
                                   ? part.table.size()
                                   : size_t(part.spilledCount);
        if (part.resident)
            table_bytes += partition_bytes(part);
        min_occupancy = std::min(min_occupancy, entries);
        max_occupancy = std::max(max_occupancy, entries);
    }
    stats_.minShardStates = min_occupancy;
    stats_.maxShardStates = max_occupancy;
    size_t level_bytes = 0;
    for (const BitVec &state : level_states)
        level_bytes += state.memoryBytes() + sizeof(state);
    stats_.memoryBytes =
        graph.memoryBytes() + table_bytes + level_bytes;
    telemetry::counter("enum.states").add(stats_.numStates);
    telemetry::counter("enum.edges").add(stats_.numEdges);
    telemetry::counter("enum.levels").add(stats_.levels.size());
    telemetry::gauge("enum.shard_states_min")
        .set(static_cast<int64_t>(min_occupancy));
    telemetry::gauge("enum.shard_states_max")
        .set(static_cast<int64_t>(max_occupancy));
    return graph;
}

} // namespace archval::murphi
