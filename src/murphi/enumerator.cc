/**
 * @file
 * The enumerator: one level-synchronous breadth-first search for
 * every option set (see DESIGN.md, "State enumeration").
 *
 * Each BFS level is expanded on the calling thread, source by source;
 * the level barrier then turns what was found into graph states and
 * edges. None of the following may change a produced byte
 * (tests/test_enum_golden.cc pins golden fingerprints; the `ooc`
 * differential compares memory budgets):
 *
 *  - Delayed duplicate detection. Expansion never probes the interned
 *    state table: it appends (choice code, packed next state,
 *    instructions) to the level's buffers, and under FirstCondition
 *    drops a transition whose next state the same source already
 *    reached. At the level barrier every transition is resolved
 *    against its destination's table partition, one partition at a
 *    time, so only one partition need be resident while resolving.
 *
 *  - The canonical walk. The barrier numbers still-unresolved states
 *    at their first occurrence walking sources in level order and
 *    transitions in generation order, the order a one-source-at-a-time
 *    BFS discovers them in.
 *
 *  - Paging only under a budget. With memoryBudgetBytes > 0, cold
 *    partitions are written to CRC-guarded shard files and their
 *    tables freed. A damaged shard is rebuilt from the graph, which
 *    holds every state (counted in enum.spill_fallbacks) — never a
 *    silently different graph. A zero budget makes no spill
 *    directory and pages nothing.
 *
 *  - Cancellation per source. Expansion reads EnumOptions::cancelFlag
 *    before every source; a raised flag stops it and the partial
 *    level is discarded.
 */

#include "enumerator.hh"

#include <sys/mman.h>

#include <algorithm>
#include <new>
#include <optional>
#include <span>

#include "murphi/ooc.hh"
#include "support/flight_recorder.hh"
#include "support/logging.hh"
#include "support/strings.hh"
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

namespace
{

/** One found transition. dst is invalidState until the level
 *  barrier resolves it: the canonical id of a state interned at an
 *  earlier level, or still invalidState for a state that may be new. */
struct TransRec
{
    uint32_t code;
    uint32_t instrs;
    graph::StateId dst;
};

/**
 * Allocates whole pages straight from the kernel. A level's edge block
 * is freed as soon as the graph has copied it, and only an unmapped
 * block leaves the process at once: the heap keeps a freed chunk below
 * its top for reuse, so a block from the heap would stay resident
 * beside its copy.
 */
template <typename T>
struct PageAllocator
{
    using value_type = T;

    PageAllocator() = default;
    template <typename U>
    PageAllocator(const PageAllocator<U> &)
    {
    }

    T *
    allocate(size_t n)
    {
        void *p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return static_cast<T *>(p);
    }

    void deallocate(T *p, size_t n) { ::munmap(p, n * sizeof(T)); }

    friend bool
    operator==(const PageAllocator &, const PageAllocator &)
    {
        return true;
    }
};

/** All transitions found for one level, grouped per source. */
struct LevelOut
{
    std::vector<TransRec> trans;
    std::vector<uint64_t> words; ///< destinations, packed per trans
    std::vector<uint32_t> perSource; ///< transitions per source
    /** Per table partition, the trans indices whose destination
     *  hashes into it. */
    std::vector<std::vector<uint32_t>> byPart;
    uint64_t valid = 0;

    /** Empty every buffer, keeping its capacity. */
    void
    clear()
    {
        trans.clear();
        words.clear();
        perSource.clear();
        for (std::vector<uint32_t> &list : byPart)
            list.clear();
        valid = 0;
    }
};

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
    stats_ = EnumStats{};

    telemetry::ScopedSpan run_span("enum.run");
    CpuTimer timer;

    const fsm::ChoiceCodec codec = model_.makeChoiceCodec();
    const uint64_t combos = codec.numCombinations();
    if (combos > graph::EdgeRecord::maxChoiceCode + 1) {
        return Result<graph::StateGraph>::error(formatString(
            "model has %llu choice combinations; edge choice codes "
            "hold %u bits",
            static_cast<unsigned long long>(combos),
            graph::EdgeRecord::codeBits));
    }
    const size_t state_bits = model_.stateBits();
    const size_t stride = (state_bits + 63) / 64;
    const bool first_condition =
        options_.recording == EdgeRecording::FirstCondition;
    const ooc::TestHooks *hooks = options_.testHooks;
    // Ids are 32 bits and invalidState marks "none".
    const uint64_t max_states =
        options_.maxStates
            ? std::min<uint64_t>(options_.maxStates, graph::invalidState)
            : graph::invalidState;

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

    // Partition count: a power of two (64 by default); high enough
    // that one resident partition is a small slice of the table.
    size_t num_parts = 1;
    const size_t min_parts =
        options_.oocPartitions ? options_.oocPartitions : 64;
    while (num_parts < min_parts)
        num_parts <<= 1;
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

    /** Most resident table bytes seen at a level's end, after
     *  eviction (<= memoryBudgetBytes unless a page-out failed). */
    size_t residency_high_water = 0;

    /** One partition of the interned state table. */
    struct Partition
    {
        ooc::StateTable table;
        bool resident = true;
        uint64_t spilledCount = 0;  ///< entries in its shard file
        uint64_t lastUse = 0;       ///< LRU clock for eviction
    };
    std::vector<Partition> parts(num_parts,
                                 Partition{ooc::StateTable(state_bits)});
    uint64_t use_clock = 0;
    std::string error;

    auto hash_of = [state_bits](std::span<const uint64_t> key) {
        return hashPackedWords(state_bits, key);
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
        part.table.release();
        part.resident = false;
        if (hooks && hooks->afterShardPageOut)
            hooks->afterShardPageOut(path, p);
        return true;
    };

    auto resident_bytes = [&] {
        size_t bytes = 0;
        for (const Partition &part : parts) {
            if (part.resident)
                bytes += part.table.memoryBytes();
        }
        return bytes;
    };

    // Evict least-recently-used resident partitions (never @p keep)
    // until the resident footprint fits the budget or nothing
    // evictable remains. A failed page-out stops eviction for this
    // call — a sick disk must not be retried per partition.
    auto enforce_budget = [&](size_t keep) {
        if (!paging)
            return;
        while (resident_bytes() > options_.memoryBudgetBytes) {
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
    // rebuilds the partition from the graph — the graph is the
    // ground truth the table merely indexes.
    auto ensure_resident = [&](size_t p) {
        Partition &part = parts[p];
        part.lastUse = ++use_clock;
        if (part.resident)
            return;
        bool ok = ooc::readShardFile(
            ooc::shardPath(spill_path, p), p, state_bits,
            [&](std::span<const uint64_t> key, graph::StateId id) {
                part.table.insert(key, hash_of(key), id);
            });
        if (ok && part.table.size() != part.spilledCount)
            ok = false;
        if (!ok) {
            part.table.release();
            spill_fallback("shard spill file damaged; "
                           "rebuilding partition from graph");
            for (graph::StateId id = 0; id < graph.numStates();
                 ++id) {
                const std::span<const uint64_t> key =
                    graph.stateWords(id);
                const uint64_t hash = hash_of(key);
                if ((hash & part_mask) == p)
                    part.table.insert(key, hash, id);
            }
        }
        part.resident = true;
        ++stats_.pageIns;
        page_in_ctr.add();
        enforce_budget(p);
    };

    const BitVec reset = model_.resetState();
    if (reset.numBits() != state_bits) {
        return Result<graph::StateGraph>::error(
            formatString("model reset state is %zu bits but the state "
                         "layout declares %zu",
                         reset.numBits(), state_bits));
    }
    {
        const uint64_t hash = hash_of(reset.words());
        parts[hash & part_mask].table.insert(reset.words(), hash, 0);
        graph.addState(reset);
    }

    telemetry::Gauge &frontier_gauge =
        telemetry::gauge("enum.frontier");
    telemetry::Gauge &residency_gauge =
        telemetry::gauge("enum.residency_high_water");

    // Each level's edges in id order, in a block of exactly its size,
    // and the level's sources' row lengths. They join the graph once
    // the search is done, so the graph's edge array is allocated
    // once, at its final size; nothing reads them before.
    struct EdgeBlock
    {
        std::vector<graph::EdgeRecord, PageAllocator<graph::EdgeRecord>>
            edges;
        std::vector<uint32_t> rowLengths;
    };
    std::vector<EdgeBlock> blocks;
    size_t num_edges = 0;

    // The level's transitions; the buffers keep their capacity from
    // level to level.
    LevelOut out;
    out.byPart.resize(num_parts);
    // FirstCondition: the current source's destinations so far.
    ooc::StateTable seen(state_bits);
    auto record = [&](uint64_t code, std::span<const uint64_t> next,
                      unsigned instructions) {
        ++out.valid;
        if (!error.empty())
            return;
        if (next.size() != stride) {
            error = formatString("model produced a %zu-word state but "
                                 "the %zu-bit state layout takes %zu",
                                 next.size(), state_bits, stride);
            return;
        }
        if (instructions > graph::EdgeRecord::maxInstrCount) {
            error = formatString(
                "a transition consumes %u instructions; edges hold "
                "at most %llu",
                instructions,
                static_cast<unsigned long long>(
                    graph::EdgeRecord::maxInstrCount));
            return;
        }
        const uint64_t hash = hash_of(next);
        if (first_condition) {
            if (seen.find(next, hash) != graph::invalidState)
                return;
            seen.insert(next, hash, 0);
        }
        out.byPart[hash & part_mask].push_back(
            static_cast<uint32_t>(out.trans.size()));
        out.trans.push_back({static_cast<uint32_t>(code), instructions,
                             graph::invalidState});
        out.words.insert(out.words.end(), next.begin(), next.end());
    };

    // The level's sources are the graph's states
    // [level_first, level_first + width).
    size_t width = 1;
    uint64_t level_first = 0;
    size_t level_index = 0;

    while (width > 0 && error.empty()) {
        WallTimer level_timer;
        out.clear();
        frontier_gauge.set(static_cast<int64_t>(width));
        telemetry::ScopedSpan level_span("enum.level", "level",
                                         level_index, "frontier",
                                         width);

        // Expand the level source by source, recording in the
        // canonical order (sources in level order, transitions in
        // generation order). Each source's words are read from the
        // graph, which gains nothing until the barrier. The cancel
        // flag is read before every source; a stop leaves the level
        // short, and it is discarded.
        {
            telemetry::ScopedSpan expand_span("enum.expand", "sources",
                                              width);
            for (size_t i = 0; i < width && error.empty(); ++i) {
                if (options_.cancelFlag &&
                    options_.cancelFlag->load(std::memory_order_relaxed)) {
                    error = "enumeration cancelled";
                    break;
                }
                const size_t before = out.trans.size();
                seen.clear();
                const Result<bool> stepped = model_.forEachTransition(
                    graph.stateWords(
                        static_cast<graph::StateId>(level_first + i)),
                    record);
                if (!stepped.ok())
                    error = stepped.errorMessage();
                out.perSource.push_back(
                    static_cast<uint32_t>(out.trans.size() - before));
            }
        }
        if (!error.empty())
            break;

        stats_.transitionsTried += uint64_t(width) * combos;
        stats_.transitionsValid += out.valid;

        // --- Level barrier ----------------------------------------
        // (1) Delayed duplicate detection: resolve every transition
        // against its destination's partition, paging partitions in
        // one at a time. A destination found there gets its
        // canonical id; the rest stay unresolved for the walk below.
        const std::span<const uint64_t> words(out.words);
        for (size_t p = 0; p < num_parts; ++p) {
            const std::vector<uint32_t> &list = out.byPart[p];
            if (list.empty())
                continue;
            ensure_resident(p);
            const ooc::StateTable &table = parts[p].table;
            // The indices ascend but skip: fetch ahead.
            for (size_t k = 0; k < list.size(); ++k) {
                if (k + 16 < list.size()) {
                    __builtin_prefetch(&out.trans[list[k + 16]]);
                    __builtin_prefetch(words.data() +
                                       list[k + 16] * stride);
                }
                const uint32_t t = list[k];
                const auto key = words.subspan(t * stride, stride);
                out.trans[t].dst = table.find(key, hash_of(key));
            }
        }

        // (2) Canonical id assignment: sources in level order,
        // transitions in generation order (the order they were
        // recorded in), numbering each unresolved state at its first
        // occurrence. The level's edges go to a block of exactly
        // their count.
        const uint64_t interned = graph.numStates();
        EdgeBlock &block = blocks.emplace_back();
        block.edges.reserve(out.trans.size());
        // This level's new states in id order, and per partition
        // their entry indices.
        ooc::StateTable fresh(state_bits);
        std::vector<std::vector<uint32_t>> fresh_by_part(num_parts);
        for (size_t t = 0; t < out.trans.size(); ++t) {
            const TransRec &rec = out.trans[t];
            graph::StateId dst = rec.dst;
            if (dst == graph::invalidState) {
                const auto key = words.subspan(t * stride, stride);
                const uint64_t hash = hash_of(key);
                dst = fresh.find(key, hash);
                if (dst == graph::invalidState) {
                    if (interned + fresh.size() >= max_states) {
                        error = formatString(
                            "state explosion: search exceeds %llu "
                            "states",
                            static_cast<unsigned long long>(max_states));
                        break;
                    }
                    dst = static_cast<graph::StateId>(interned +
                                                      fresh.size());
                    fresh_by_part[hash & part_mask].push_back(
                        static_cast<uint32_t>(fresh.size()));
                    fresh.insert(key, hash, dst);
                }
            }
            block.edges.emplace_back(dst, rec.code, rec.instrs);
        }
        if (!error.empty())
            break;
        block.rowLengths = out.perSource;
        num_edges += block.edges.size();

        // (3) Intern the newly numbered states into their
        // partitions' tables (again paging one partition at a time).
        for (size_t p = 0; p < num_parts; ++p) {
            if (fresh_by_part[p].empty())
                continue;
            ensure_resident(p);
            for (uint32_t e : fresh_by_part[p]) {
                parts[p].table.insert(fresh.key(e),
                                      hash_of(fresh.key(e)),
                                      fresh.id(e));
            }
        }

        // (4) Commit the new states to the graph: they are the next
        // level's sources.
        const size_t new_count = fresh.size();
        graph.addStates(state_bits, new_count, fresh.keys());
        fresh.release();

        // (5) Enforce the budget at its steady-state point and take
        // the residency reading the acceptance gate asserts on.
        if (paging) {
            enforce_budget(SIZE_MAX);
            residency_high_water =
                std::max(residency_high_water, resident_bytes());
            residency_gauge.set(
                static_cast<int64_t>(residency_high_water));
        }

        LevelStats level_stats;
        level_stats.frontierWidth = width;
        level_stats.newStates = graph.numStates() - interned;
        level_stats.newEdges = block.edges.size();
        level_stats.seconds = level_timer.seconds();
        stats_.levels.push_back(level_stats);

        level_first = interned;
        width = new_count;
        ++level_index;
    }
    if (!error.empty())
        return Result<graph::StateGraph>::error(error);

    // The search is done: read the table partitions' figures, then
    // free them and the level buffers before the edges are assembled.
    size_t min_occupancy = SIZE_MAX;
    size_t max_occupancy = 0;
    for (const Partition &part : parts) {
        const size_t entries = part.resident
                                   ? part.table.size()
                                   : size_t(part.spilledCount);
        min_occupancy = std::min(min_occupancy, entries);
        max_occupancy = std::max(max_occupancy, entries);
    }
    const size_t table_bytes = resident_bytes();
    std::vector<Partition>().swap(parts);
    out = LevelOut{};

    // Assemble the edges: the graph's array is allocated once, at its
    // final size, and filled block by block, each block freed once it
    // is copied. The levels' sources are consecutive states from
    // reset on, so the rows arrive in source order.
    graph.reserveEdges(num_edges);
    graph::StateId src = 0;
    for (EdgeBlock &block : blocks) {
        const std::span<const graph::EdgeRecord> edges(block.edges);
        size_t offset = 0;
        for (const uint32_t length : block.rowLengths) {
            graph.addRow(src++, edges.subspan(offset, length));
            offset += length;
        }
        block = EdgeBlock{};
    }
    graph.shrinkToFit();

    stats_.numStates = graph.numStates();
    stats_.numEdges = graph.numEdges();
    stats_.bitsPerState = state_bits;
    stats_.cpuSeconds = timer.seconds();
    stats_.numShards = num_parts;
    stats_.residencyHighWaterBytes = residency_high_water;
    stats_.minShardStates = min_occupancy;
    stats_.maxShardStates = max_occupancy;
    stats_.memoryBytes = graph.memoryBytes() + table_bytes;
    telemetry::counter("enum.states").add(stats_.numStates);
    telemetry::counter("enum.edges").add(stats_.numEdges);
    telemetry::counter("enum.levels").add(stats_.levels.size());
    telemetry::gauge("enum.shard_states_min")
        .set(static_cast<int64_t>(min_occupancy));
    telemetry::gauge("enum.shard_states_max")
        .set(static_cast<int64_t>(max_occupancy));
    telemetry::gauge("enum.graph_bytes")
        .set(static_cast<int64_t>(graph.memoryBytes()));
    return graph;
}

} // namespace archval::murphi
