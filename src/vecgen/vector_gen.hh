/**
 * @file
 * Test vector generation — step 3 of the methodology (Figure 3.1).
 *
 * Converts a transition tour of the enumerated PP state graph into
 * simulation stimulus: per-cycle forced interface-signal values (the
 * paper's Verilog "force/release" commands) plus a concrete
 * instruction stream where the instruction class of each fetch is
 * fixed by the tour edge and everything that does not impact the
 * control logic — operands, data values, the precise operation within
 * a class — is chosen (biased-)randomly, exactly as Section 3.3
 * describes.
 *
 * Two details require care:
 *
 *  - Squash filtering: with the branch extension, a taken branch
 *    squashes the packet in RD, so the generator tracks pipeline
 *    occupancy along the tour and records where the squashed packets
 *    sit in the fetch stream; the executable specification runs the
 *    fetch stream without them (the *retired* stream).
 *  - Address constraints: the abstract "same_line" choice at a
 *    split-store conflict check must be honoured by the concrete
 *    load/store addresses, or a forced bypass over a pending store to
 *    the same word would produce a false architectural divergence.
 *    The generator records the constraint active at each load's
 *    completing probe and materializes addresses in a second pass.
 *
 * Everything the first pass needs from a tour edge is a pure function
 * of that edge (the control step is deterministic and the model's
 * mutation set is fixed), so it is condensed into a small per-edge
 * summary. generateAll() computes one summary per distinct edge in a
 * parallel pass and then walks the traces on several threads; the
 * output does not depend on the thread count (see DESIGN.md, "Vector
 * generation").
 */

#ifndef ARCHVAL_VECGEN_VECTOR_GEN_HH
#define ARCHVAL_VECGEN_VECTOR_GEN_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "graph/state_graph.hh"
#include "graph/tour.hh"
#include "rtl/pp_core.hh"
#include "rtl/pp_fsm_model.hh"
#include "support/rng.hh"

namespace archval::vecgen
{

/** One runnable test trace (a tour component turned into stimulus). */
struct TestTrace
{
    /** Forced interface-signal values, one packed entry per clock
     *  cycle (rtl::unpackTable() decodes them). */
    std::vector<rtl::PackedSignals> cycles;

    /** Instruction words in fetch order (consumed by the RTL core's
     *  abstract I-cache). */
    std::vector<uint32_t> fetchStream;

    /** Positions in fetchStream of the words a taken branch squashed,
     *  ascending. The other words, in order, are the retired
     *  program. */
    std::vector<uint32_t> squashed;

    /** Inbox words, one per SWITCH that reaches execution. */
    std::deque<uint32_t> inbox;

    /** Instructions in the fetch stream (tour accounting). */
    uint64_t instructions = 0;

    /** Index of the source tour trace. */
    size_t traceIndex = 0;

    /** @return the fetch stream without its squashed words: the
     *  program the executable specification runs in stream mode. */
    std::vector<uint32_t> retiredStream() const;
};

/** Generator statistics. */
struct VecGenStats
{
    uint64_t traces = 0;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t squashedPackets = 0;
    uint64_t constrainedLoads = 0;
    /** Bytes the generated traces hold: 2 per cycle, 4 per fetch
     *  word, squashed position and inbox word. */
    uint64_t traceBytes = 0;

    VecGenStats &
    operator+=(const VecGenStats &other)
    {
        traces += other.traces;
        cycles += other.cycles;
        instructions += other.instructions;
        squashedPackets += other.squashedPackets;
        constrainedLoads += other.constrainedLoads;
        traceBytes += other.traceBytes;
        return *this;
    }
};

/**
 * Generates test traces from tour components over a PP state graph.
 *
 * Malformed input — a trace naming an edge the graph lacks, or whose
 * instruction count disagrees with its edges — throws FatalError.
 * One generator must not be used from several threads at once.
 */
class VectorGenerator
{
  public:
    /**
     * @param model The enumerated PP FSM model (provides the choice
     *              codec, state unpacking and per-edge outputs).
     * @param seed Seed for all biased-random operand choices.
     * Throws FatalError when a choice variable takes more values than
     * its rtl::PackedSignals field holds (target alignment does when
     * branches and alignment are modelled with lineWords > 16).
     */
    VectorGenerator(const rtl::PpFsmModel &model, uint64_t seed = 1);

    /** Convert one tour component, summarizing each of its edge
     *  traversals as it goes. @p routes are the trees its implied
     *  legs follow (graph::TraceCursor); a one-run walk from reset
     *  needs none. */
    TestTrace generate(const graph::StateGraph &graph,
                       const graph::Trace &trace, size_t trace_index = 0,
                       const graph::Routes *routes = nullptr);

    /**
     * Convert every tour component: byte-identical to calling
     * generate() on each in order with the tour's routes. Summarizes
     * every edge of @p graph once (meant for trace sets that cover
     * the graph, such as a transition tour), then converts the traces
     * on min(hardware threads, traces) workers. The summary table is
     * freed before returning. The first exception a worker throws is
     * rethrown here once every worker has stopped.
     */
    std::vector<TestTrace> generateAll(const graph::StateGraph &graph,
                                       const graph::Tours &traces);

    /** @return accumulated statistics. */
    const VecGenStats &stats() const { return stats_; }

    /**
     * Render a trace as a human-readable force/release script — the
     * artifact the paper compiles with the Verilog model.
     */
    std::string renderForceScript(const TestTrace &trace) const;

  private:
    /** What the skeleton walk needs from one edge (vector_gen.cc). */
    struct EdgeSummary;

    /** Index of an interned choice in choices_/signals_. */
    using SignalId = uint32_t;

    /** Intern the choice of every edge @p trace traverses. */
    void internTrace(const graph::StateGraph &graph,
                     const graph::Trace &trace,
                     const graph::Routes *routes);

    /** @return the id of @p choice_code's decoded choice, interning
     *  it on first sight. */
    SignalId internChoice(uint64_t choice_code);

    /** Summarize the edge leaving @p src under interned choice @p id. */
    EdgeSummary summarize(const rtl::PpControlState &src,
                          SignalId id) const;

    /** @return the summary of every edge of @p graph, indexed by
     *  edge id, computed in parallel (all choices must already be
     *  interned). */
    std::vector<EdgeSummary> summarizeGraph(
        const graph::StateGraph &graph) const;

    /** Turn @p trace, expanded by @p cursor, into stimulus;
     *  @p summary_of maps an edge id to its EdgeSummary. Adds the
     *  trace's figures to @p stats. */
    template <typename SummaryOf>
    TestTrace walk(const graph::Trace &trace, graph::TraceCursor cursor,
                   size_t trace_index, const SummaryOf &summary_of,
                   VecGenStats &stats) const;

    /** Fold @p delta into stats_ and the telemetry counters. */
    void account(const VecGenStats &delta);

    const rtl::PpFsmModel &model_;
    fsm::ChoiceCodec codec_;
    /** The model skips the load/pending-store conflict check
     *  (MutationId::ConflictDropsLoadCheck). */
    bool dropsLoadCheck_;
    /** Interned choice id per choice code (noSignal: not seen yet). */
    std::vector<SignalId> signalIdOf_;
    /** Interned decoded choices, and the same as packed signals. */
    std::vector<fsm::Choice> choices_;
    std::vector<rtl::PackedSignals> signals_;
    /**
     * Operand draws are seeded per packet from a hash of (seed_,
     * tour-edge prefix), not from one sequential stream: a trace's
     * stimulus is a function of the seed and its own edges alone, so
     * traces can be generated in any order, and traces that share a
     * reset-rooted prefix materialize byte-identical stimulus for it.
     */
    uint64_t seed_;
    VecGenStats stats_;
};

} // namespace archval::vecgen

#endif // ARCHVAL_VECGEN_VECTOR_GEN_HH
