#include "vector_gen.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <exception>
#include <mutex>
#include <thread>

#include "pp/isa.hh"
#include "support/status.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"

namespace archval::vecgen
{

namespace
{

using pp::InstrClass;
using rtl::DRefill;
using rtl::PpChoiceVar;

/** Per-packet skeleton recorded during the tour walk. */
struct Skeleton
{
    InstrClass cls = InstrClass::Alu;
    unsigned count = 1;
    bool squashed = false;
    bool branchTaken = false;
    // Address constraint for loads (last one wins; see header).
    bool hasConstraint = false;
    bool sameLine = false;
    int storeRef = -1;
    // Materialized address for memory ops.
    uint32_t memAddr = 0;
    // Seed for this packet's operand draws: a hash of (generator
    // seed, tour-edge prefix up to the fetch cycle). See prefixMix.
    uint64_t seedHash = 0;
};

constexpr uint64_t fnvPrime = 0x100000001b3ull;

/** fnvZeroRounds[n]: the FNV prime to the n-th power, which is what
 *  n FNV-1a rounds over zero bytes multiply the hash by. */
constexpr std::array<uint64_t, 9> fnvZeroRounds = [] {
    std::array<uint64_t, 9> powers{};
    powers[0] = 1;
    for (size_t n = 1; n < powers.size(); ++n)
        powers[n] = powers[n - 1] * fnvPrime;
    return powers;
}();

/** FNV-1a step folding @p value's 8 bytes, low byte first, into the
 *  running prefix hash. The high zero bytes xor nothing in, so their
 *  rounds are one multiply (an edge id has at least four). */
uint64_t
prefixMix(uint64_t hash, uint64_t value)
{
    const int bytes = (std::bit_width(value) + 7) / 8;
    for (int i = 0; i < bytes; ++i) {
        hash ^= (value >> (8 * i)) & 0xff;
        hash *= fnvPrime;
    }
    return hash * fnvZeroRounds[8 - bytes];
}

size_t
varIndex(PpChoiceVar var)
{
    return static_cast<size_t>(var);
}

/** Source states summarized per claim of the parallel summary pass
 *  (a PP state has about a dozen out-edges). */
constexpr size_t summaryChunk = 1 << 10;

/** signalIdOf_ entry of a choice code not interned yet. */
constexpr uint32_t noSignal = UINT32_MAX;

/** Conditions are mapped through each edge's source state, so the
 *  graph must hold states of the model's width. */
void
requireStateWidth(const graph::StateGraph &graph,
                  const rtl::PpFsmModel &model)
{
    if (graph.stateBits() != model.stateBits()) {
        fatal(formatString("vector generation needs %zu-bit states; "
                           "the graph holds %zu-bit states",
                           model.stateBits(), graph.stateBits()));
    }
}

/** @return workers for @p items independent items. */
unsigned
workersFor(size_t items)
{
    size_t hw = std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(std::max<size_t>(1, std::min(hw, items)));
}

/**
 * Call fn(i) for every i in [0, count) on @p workers threads that
 * claim indices from a shared counter. The first exception a call
 * throws stops further claims and is rethrown on the calling thread
 * after every worker has joined, so it never escapes a std::thread.
 */
template <typename Fn>
void
parallelFor(size_t count, unsigned workers, const Fn &fn)
{
    if (workers <= 1) {
        for (size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    std::atomic<size_t> next{0};
    std::atomic<bool> stop{false};
    std::mutex error_mutex;
    std::exception_ptr error;
    // Worker spans stay attributable to the service job that spawned
    // them (as in the replay engine's pool).
    const uint64_t job_id = telemetry::currentJobId();
    auto work = [&](unsigned w) {
        telemetry::JobScope job_scope(job_id);
        if (telemetry::tracingEnabled())
            telemetry::setThreadName(formatString("vecgen.worker.%u", w));
        // One span per worker and pass: the trace shows how evenly
        // the claims spread, without a span per item.
        telemetry::ScopedSpan span("vecgen.worker");
        try {
            while (!stop.load(std::memory_order_relaxed)) {
                size_t i = next.fetch_add(1, std::memory_order_relaxed);
                if (i >= count)
                    break;
                fn(i);
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!error)
                error = std::current_exception();
            stop.store(true, std::memory_order_relaxed);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    try {
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(work, w);
    } catch (...) {
        stop.store(true, std::memory_order_relaxed);
        for (std::thread &t : pool)
            t.join();
        throw;
    }
    for (std::thread &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace

std::vector<uint32_t>
TestTrace::retiredStream() const
{
    // Copy the runs of words between squashed positions.
    std::vector<uint32_t> retired;
    retired.reserve(fetchStream.size() - std::min(fetchStream.size(),
                                                  squashed.size()));
    size_t run_begin = 0;
    for (uint32_t position : squashed) {
        if (position < run_begin || position >= fetchStream.size()) {
            fatal(formatString("trace %zu: squashed position %u is not "
                               "ascending within its %zu-word fetch "
                               "stream",
                               traceIndex, position, fetchStream.size()));
        }
        retired.insert(retired.end(), fetchStream.begin() + run_begin,
                       fetchStream.begin() + position);
        run_begin = position + 1;
    }
    retired.insert(retired.end(), fetchStream.begin() + run_begin,
                   fetchStream.end());
    return retired;
}

/**
 * Everything the skeleton walk reads from one edge: the cycle's
 * packed forced signals and the control outputs and
 * source-state predicates that drive the occupancy, squash, pending
 * store and conflict-constraint bookkeeping. Packed into one word,
 * since the flow keeps one per graph edge: the signals in bits 0-15,
 * the fetched packet's class in 16-18, its instruction count (0-2)
 * in 19-20 and the flags in 21-28.
 */
struct VectorGenerator::EdgeSummary
{
    enum Flag : uint8_t
    {
        Fetch = 1 << 0,         ///< a packet enters RD
        Advance = 1 << 1,       ///< pipeline registers shift
        BranchTaken = 1 << 2,   ///< EX branch squashes younger stages
        BranchResolve = 1 << 3, ///< a branch in EX resolves
        StoreMark = 1 << 4,     ///< the store in MEM becomes pending
        StoreCommit = 1 << 5,   ///< the pending store's data is written
        ConflictCheck = 1 << 6, ///< the load in MEM is checked against
                                ///< the pending store's line
        SameLine = 1 << 7,      ///< ... and the check chose same-line
    };

    EdgeSummary() = default;
    EdgeSummary(rtl::PackedSignals signals, InstrClass fetch_class,
                unsigned fetch_count, uint8_t flags)
        : bits_(signals | uint32_t(fetch_class) << classShift |
                fetch_count << countShift | uint32_t(flags) << flagShift)
    {
    }

    rtl::PackedSignals signals() const
    {
        return static_cast<rtl::PackedSignals>(bits_);
    }
    InstrClass fetchClass() const
    {
        return static_cast<InstrClass>(bits_ >> classShift & 7);
    }
    unsigned fetchCount() const { return bits_ >> countShift & 3; }
    bool has(Flag flag) const { return bits_ >> flagShift & flag; }

  private:
    static constexpr unsigned classShift = 16;
    static constexpr unsigned countShift = 19;
    static constexpr unsigned flagShift = 21;
    static_assert(sizeof(rtl::PackedSignals) * 8 == classShift);
    static_assert(unsigned(InstrClass::Branch) < 8);

    uint32_t bits_ = 0;
};

VectorGenerator::VectorGenerator(const rtl::PpFsmModel &model,
                                 uint64_t seed)
    : model_(model), codec_(model.makeChoiceCodec()),
      dropsLoadCheck_(model.config().mutations.test(static_cast<size_t>(
          rtl::MutationId::ConflictDropsLoadCheck))),
      seed_(seed)
{
    const auto &vars = codec_.vars();
    for (size_t v = 0; v < vars.size(); ++v) {
        if (!rtl::fitsPackedSignal(v, vars[v].cardinality - 1))
            fatal(formatString(
                "vector generation packs each cycle into 16 bits: "
                "choice variable %s takes %u values, its field holds "
                "%u (with branches and alignment modelled, lineWords "
                "must be at most 16)",
                vars[v].name.c_str(), vars[v].cardinality,
                1u << rtl::packedSignalBits[v]));
    }
    signalIdOf_.assign(codec_.numCombinations(), noSignal);
}

VectorGenerator::SignalId
VectorGenerator::internChoice(uint64_t choice_code)
{
    if (choice_code >= signalIdOf_.size())
        fatal(formatString("choice code %llu is outside the model's "
                           "choice space",
                           static_cast<unsigned long long>(choice_code)));
    SignalId &id = signalIdOf_[choice_code];
    if (id == noSignal) {
        id = static_cast<SignalId>(choices_.size());
        const fsm::Choice &choice =
            choices_.emplace_back(codec_.decode(choice_code));
        rtl::ForcedSignals forced;
        std::copy_n(choice.begin(), rtl::numPpChoiceVars, forced.begin());
        // The constructor checked every value fits its field.
        signals_.push_back(*rtl::packSignals(forced));
    }
    return id;
}

void
VectorGenerator::internTrace(const graph::StateGraph &graph,
                             const graph::Trace &trace,
                             const graph::Routes *routes)
{
    for (graph::TraceCursor cursor(graph, trace, routes); cursor.next();)
        internChoice(graph.edge(cursor.edge()).choiceCode);
}

VectorGenerator::EdgeSummary
VectorGenerator::summarize(const rtl::PpControlState &src,
                           SignalId id) const
{
    const fsm::Choice &choice = choices_[id];
    const rtl::PpOutputs out = model_.outputsFor(src, choice);

    uint8_t flags = 0;
    auto set = [&](EdgeSummary::Flag flag, bool on) {
        if (on)
            flags |= flag;
    };
    set(EdgeSummary::Fetch, out.fetch);
    set(EdgeSummary::Advance, out.advance);
    set(EdgeSummary::BranchTaken, out.branchTaken);
    set(EdgeSummary::BranchResolve,
        src.exClass == InstrClass::Branch && out.advance);
    set(EdgeSummary::StoreMark,
        out.storeProbe ||
            (out.critWord && src.memClass == InstrClass::Store));
    set(EdgeSummary::StoreCommit, out.storeCommit);
    // The control examined SameLine this cycle for the load in MEM
    // against the pending store. (A control mutated to skip the check
    // never examines it, so no constraint is recorded and the load's
    // address falls back to biased-random — which is how such a bug
    // gets the chance to collide and manifest.)
    set(EdgeSummary::ConflictCheck,
        src.memClass == InstrClass::Load && !src.memDone &&
            src.drefill == DRefill::Idle && src.storePending &&
            !dropsLoadCheck_);
    set(EdgeSummary::SameLine,
        choice[varIndex(PpChoiceVar::SameLine)] != 0);
    return EdgeSummary(signals_[id], out.fetchClass, out.fetchCount,
                       flags);
}

std::vector<VectorGenerator::EdgeSummary>
VectorGenerator::summarizeGraph(const graph::StateGraph &graph) const
{
    static_assert(sizeof(EdgeSummary) == 4);
    telemetry::ScopedSpan span("vecgen.summarize", "edges",
                               graph.numEdges());
    std::vector<EdgeSummary> table(graph.numEdges());
    const size_t chunks =
        (graph.numStates() + summaryChunk - 1) / summaryChunk;
    parallelFor(chunks, workersFor(chunks), [&](size_t c) {
        const size_t end =
            std::min(graph.numStates(), (c + 1) * summaryChunk);
        for (size_t s = c * summaryChunk; s < end; ++s) {
            const graph::StateId src_id = static_cast<graph::StateId>(s);
            const rtl::PpControlState src =
                model_.unpack(graph.stateWords(src_id));
            for (graph::EdgeId e : graph.outEdges(src_id)) {
                table[e] = summarize(
                    src, signalIdOf_[graph.edge(e).choiceCode]);
            }
        }
    });
    telemetry::counter("vecgen.edges_summarized").add(graph.numEdges());
    return table;
}

template <typename SummaryOf>
TestTrace
VectorGenerator::walk(const graph::Trace &trace,
                      graph::TraceCursor cursor, size_t trace_index,
                      const SummaryOf &summary_of,
                      VecGenStats &stats) const
{
    TestTrace out;
    out.traceIndex = trace_index;
    out.cycles.reserve(cursor.length());

    // ------------------------------------------------------------------
    // Pass 1: walk the tour, record forced signals, track pipeline
    // occupancy for squash filtering and conflict constraints.
    // ------------------------------------------------------------------
    std::vector<Skeleton> skeletons;
    skeletons.reserve(trace.instructions); // a fetch brings one or two
    int rd_hold = -1, ex_hold = -1, mem_hold = -1;
    int pending_store = -1;
    size_t squashed_words = 0;

    // Running hash of the tour-edge prefix. Each packet's operand
    // draws are seeded from the hash at its fetch cycle, so traces
    // sharing a reset-rooted edge prefix materialize byte-identical
    // stimulus for that prefix while decorrelating right after the
    // walks diverge.
    uint64_t prefix_hash = prefixMix(0xcbf29ce484222325ull, seed_);

    while (cursor.next()) {
        const graph::EdgeId e = cursor.edge();
        prefix_hash = prefixMix(prefix_hash, e);
        const EdgeSummary s = summary_of(e);

        // Record the forced-signal vector for this cycle verbatim.
        out.cycles.push_back(s.signals());
        out.instructions += s.fetchCount();

        // Conflict-check constraint (see summarize()).
        if (s.has(EdgeSummary::ConflictCheck) && mem_hold >= 0 &&
            pending_store >= 0) {
            Skeleton &load = skeletons[mem_hold];
            if (!load.hasConstraint)
                ++stats.constrainedLoads;
            load.hasConstraint = true;
            load.sameLine = s.has(EdgeSummary::SameLine);
            load.storeRef = pending_store;
        }

        // Pending-store tracking (before the commit clears it).
        if (s.has(EdgeSummary::StoreMark))
            pending_store = mem_hold;
        if (s.has(EdgeSummary::StoreCommit))
            pending_store = -1;

        // Branch resolution bookkeeping (the branch sits in EX).
        if (s.has(EdgeSummary::BranchResolve) && ex_hold >= 0)
            skeletons[ex_hold].branchTaken =
                s.has(EdgeSummary::BranchTaken);

        // Pipeline occupancy.
        if (s.has(EdgeSummary::Advance)) {
            mem_hold = ex_hold;
            if (s.has(EdgeSummary::BranchTaken)) {
                if (rd_hold >= 0) {
                    skeletons[rd_hold].squashed = true;
                    ++stats.squashedPackets;
                    squashed_words += skeletons[rd_hold].count;
                }
                ex_hold = -1;
                rd_hold = -1;
            } else {
                ex_hold = rd_hold;
                if (s.has(EdgeSummary::Fetch)) {
                    Skeleton skel;
                    skel.cls = s.fetchClass();
                    skel.count = s.fetchCount();
                    skel.seedHash = prefix_hash;
                    skeletons.push_back(skel);
                    rd_hold = static_cast<int>(skeletons.size()) - 1;
                } else {
                    rd_hold = -1;
                }
            }
        }
    }

    if (out.instructions != trace.instructions) {
        fatal(formatString(
            "trace %zu: vector generator instruction accounting "
            "mismatch: %llu generated vs %llu in the tour",
            trace_index,
            static_cast<unsigned long long>(out.instructions),
            static_cast<unsigned long long>(trace.instructions)));
    }
    out.fetchStream.reserve(out.instructions);
    out.squashed.reserve(squashed_words);

    // ------------------------------------------------------------------
    // Pass 2: materialize concrete instructions. Everything the
    // control does not see is biased-random; load addresses honour
    // the recorded conflict constraints.
    // ------------------------------------------------------------------
    const uint32_t dmem_words = model_.config().machine.dmemWords;
    const uint32_t line_bytes = model_.config().lineWords * 4;

    auto random_addr = [&](Rng &r) -> uint32_t {
        return static_cast<uint32_t>(r.index(dmem_words)) * 4;
    };

    auto random_alu = [&](Rng &r) -> uint32_t {
        unsigned rd = 1 + static_cast<unsigned>(r.index(31));
        unsigned rs = static_cast<unsigned>(r.index(32));
        unsigned rt = static_cast<unsigned>(r.index(32));
        switch (r.index(8)) {
          case 0:
            return pp::encodeRType(pp::Funct::Add, rd, rs, rt);
          case 1:
            return pp::encodeRType(pp::Funct::Sub, rd, rs, rt);
          case 2:
            return pp::encodeRType(pp::Funct::Xor, rd, rs, rt);
          case 3:
            return pp::encodeRType(pp::Funct::Or, rd, rs, rt);
          case 4:
            return pp::encodeRType(pp::Funct::Slt, rd, rs, rt);
          case 5:
            return pp::encodeIType(
                pp::Opcode::Addi, rd, rs,
                static_cast<int16_t>(r.next() & 0xffff));
          case 6:
            return pp::encodeIType(
                pp::Opcode::Xori, rd, rs,
                static_cast<int16_t>(r.next() & 0x7fff));
          default:
            return pp::encodeRType(pp::Funct::Sll, rd, 0, rt,
                                   static_cast<unsigned>(
                                       r.index(32)));
        }
    };

    // Biased-random addressing: unconstrained loads occasionally
    // reuse the most recent store's address, so ordering bugs that
    // need an exact collision still get exercised.
    bool have_store_addr = false;
    uint32_t last_store_addr = 0;

    for (Skeleton &skel : skeletons) {
        Rng r(skel.seedHash);
        uint32_t slot0 = 0;
        switch (skel.cls) {
          case InstrClass::Alu:
            slot0 = random_alu(r);
            break;
          case InstrClass::Load: {
            uint32_t addr;
            if (!skel.hasConstraint && have_store_addr &&
                r.chance(1, 8)) {
                addr = last_store_addr;
                skel.memAddr = addr;
                slot0 = pp::encodeLw(
                    1 + static_cast<unsigned>(r.index(31)), 0,
                    static_cast<int16_t>(addr));
                break;
            }
            if (skel.hasConstraint && skel.storeRef >= 0) {
                uint32_t store_addr =
                    skeletons[skel.storeRef].memAddr;
                if (skel.sameLine) {
                    // Mostly the exact word (makes stale-data bugs
                    // visible), sometimes elsewhere in the line.
                    if (r.chance(3, 4)) {
                        addr = store_addr;
                    } else {
                        addr = (store_addr & ~(line_bytes - 1)) +
                               static_cast<uint32_t>(r.index(
                                   model_.config().lineWords)) * 4;
                    }
                } else {
                    do {
                        addr = random_addr(r);
                    } while (addr / line_bytes ==
                             store_addr / line_bytes);
                }
            } else {
                addr = random_addr(r);
            }
            skel.memAddr = addr;
            slot0 = pp::encodeLw(
                1 + static_cast<unsigned>(r.index(31)), 0,
                static_cast<int16_t>(addr));
            break;
          }
          case InstrClass::Store: {
            uint32_t addr = random_addr(r);
            skel.memAddr = addr;
            have_store_addr = true;
            last_store_addr = addr;
            slot0 = pp::encodeSw(static_cast<unsigned>(r.index(32)),
                                 0, static_cast<int16_t>(addr));
            break;
          }
          case InstrClass::Switch:
            slot0 = pp::encodeSwitch(
                1 + static_cast<unsigned>(r.index(31)));
            break;
          case InstrClass::Send:
            slot0 = pp::encodeSend(
                static_cast<unsigned>(r.index(32)));
            break;
          case InstrClass::Branch:
            // The outcome is dictated by the tour: encode a branch
            // that always resolves the chosen way.
            slot0 = skel.branchTaken
                        ? pp::encodeBranch(pp::Opcode::Beq, 0, 0, 0)
                        : pp::encodeBranch(pp::Opcode::Bne, 0, 0, 0);
            break;
          default:
            fatal(formatString("trace %zu: unexpected instruction "
                               "class %u in a fetch",
                               trace_index, unsigned(skel.cls)));
        }

        if (skel.squashed) {
            for (unsigned slot = 0; slot < skel.count; ++slot) {
                out.squashed.push_back(static_cast<uint32_t>(
                    out.fetchStream.size() + slot));
            }
        }
        out.fetchStream.push_back(slot0);
        if (skel.count == 2)
            out.fetchStream.push_back(random_alu(r));

        if (!skel.squashed && skel.cls == InstrClass::Switch)
            out.inbox.push_back(static_cast<uint32_t>(r.next()));
    }

    ++stats.traces;
    stats.cycles += out.cycles.size();
    stats.instructions += out.instructions;
    stats.traceBytes +=
        out.cycles.size() * sizeof(out.cycles[0]) +
        (out.fetchStream.size() + out.squashed.size() +
         out.inbox.size()) *
            sizeof(uint32_t);
    return out;
}

void
VectorGenerator::account(const VecGenStats &delta)
{
    stats_ += delta;
    telemetry::counter("vecgen.traces").add(delta.traces);
    telemetry::counter("vecgen.cycles").add(delta.cycles);
    telemetry::counter("vecgen.trace_bytes").add(delta.traceBytes);
}

TestTrace
VectorGenerator::generate(const graph::StateGraph &graph,
                          const graph::Trace &trace, size_t trace_index,
                          const graph::Routes *routes)
{
    requireStateWidth(graph, model_);
    internTrace(graph, trace, routes);

    // The walk calls summary_of once per traversal in walk order, so
    // an edge's source is where the previous one led; a trace whose
    // edges do not join up is summarized from each edge's own source.
    VecGenStats delta;
    graph::StateId at = graph.resetState();
    TestTrace out = walk(
        trace, graph::TraceCursor(graph, trace, routes), trace_index,
        [&](graph::EdgeId e) {
            const graph::StateId src =
                graph::contains(graph.outEdges(at), e) ? at
                                                       : graph.source(e);
            const graph::Edge edge = graph.edge(e);
            at = edge.dst;
            return summarize(model_.unpack(graph.stateWords(src)),
                             signalIdOf_[edge.choiceCode]);
        },
        delta);
    account(delta);
    telemetry::counter("vecgen.edges_summarized").add(out.cycles.size());
    return out;
}

std::vector<TestTrace>
VectorGenerator::generateAll(const graph::StateGraph &graph,
                             const graph::Tours &traces)
{
    if (traces.empty())
        return {};
    requireStateWidth(graph, model_);
    const unsigned workers = workersFor(traces.size());
    telemetry::ScopedSpan span("vecgen.generate_all", "traces",
                               traces.size(), "workers", workers);
    for (graph::EdgeId e = 0; e < graph.numEdges(); ++e)
        internChoice(graph.edge(e).choiceCode);
    const std::vector<EdgeSummary> table = summarizeGraph(graph);

    // Each trace writes only its own slots; the per-trace figures are
    // summed in trace order afterwards.
    std::vector<TestTrace> out(traces.size());
    std::vector<VecGenStats> per_trace(traces.size());
    parallelFor(traces.size(), workers, [&](size_t i) {
        out[i] = walk(
            traces[i], traces.cursor(graph, i), i,
            [&](graph::EdgeId e) { return table[e]; }, per_trace[i]);
    });

    VecGenStats delta;
    for (const VecGenStats &s : per_trace)
        delta += s;
    account(delta);
    return out;
}

std::string
VectorGenerator::renderForceScript(const TestTrace &trace) const
{
    const auto &vars = codec_.vars();
    std::string script;
    script += formatString(
        "// trace %zu: %zu cycles, %llu instructions, %zu fetch "
        "words\n",
        trace.traceIndex, trace.cycles.size(),
        static_cast<unsigned long long>(trace.instructions),
        trace.fetchStream.size());
    script += "initial begin\n";
    const std::vector<rtl::ForcedSignals> &rows = rtl::unpackTable();
    size_t fetch_pos = 0;
    for (size_t cycle = 0; cycle < trace.cycles.size(); ++cycle) {
        const rtl::ForcedSignals &signals = rows[trace.cycles[cycle]];
        script += formatString("  @cycle_%zu;", cycle);
        for (size_t v = 0; v < vars.size(); ++v) {
            if (vars[v].cardinality > 1) {
                script += formatString(" force %s = %u;",
                                       vars[v].name.c_str(),
                                       signals[v]);
            }
        }
        // Annotate the instruction entering on a fetch cycle.
        // ihit is canonical: non-zero only on cycles where the
        // control fetched, so it marks instruction consumption.
        uint32_t ihit = signals[varIndex(PpChoiceVar::IHit)];
        if (ihit && fetch_pos < trace.fetchStream.size()) {
            script += formatString(
                " // fetch %s",
                pp::decode(trace.fetchStream[fetch_pos])
                    .toString()
                    .c_str());
            fetch_pos += 1 + signals[varIndex(PpChoiceVar::Dual)];
        }
        script += "\n";
    }
    script += "  release_all;\nend\n";
    return script;
}

} // namespace archval::vecgen
