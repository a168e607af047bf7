/**
 * @file
 * State graph produced by full state enumeration.
 *
 * Vertices are reachable control states; each directed edge is a
 * clock-cycle transition labelled with the packed choice code (the
 * environment action) that caused it, plus the number of architectural
 * instructions that transition consumes (used by trace limits).
 */

#ifndef ARCHVAL_GRAPH_STATE_GRAPH_HH
#define ARCHVAL_GRAPH_STATE_GRAPH_HH

#include <cstdint>
#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "support/bitvec.hh"

namespace archval::graph
{

using StateId = uint32_t;
using EdgeId = uint32_t;

/** Sentinel for "no state". */
constexpr StateId invalidState = UINT32_MAX;

/** One labelled transition. */
struct Edge
{
    StateId src;         ///< source state
    StateId dst;         ///< destination state
    uint32_t choiceCode; ///< packed environment choice (ChoiceCodec)
    uint32_t instrCount; ///< instructions consumed by this transition
};
static_assert(sizeof(Edge) == 16);

/** The out-edges of one state: consecutive edge ids, because edges
 *  are stored in source order. */
using EdgeRange = std::ranges::iota_view<EdgeId, EdgeId>;

/**
 * Directed multigraph over enumerated states.
 *
 * Built incrementally by the enumerator, then used read-only by tour
 * generation and analysis. Holds the packed state vector of every
 * state: the enumerator expands each BFS level from it and vector
 * generation maps conditions through it. A structural graph (one
 * built by hand, without a model) holds zero-width states.
 *
 * Layout (see DESIGN.md, "The state graph"): edges live in one array
 * in non-decreasing source order, so a state's out-edges are one
 * contiguous id range found through a per-source offset (CSR);
 * states live in one word array at a fixed stride of ceil(bits / 64)
 * words.
 */
class StateGraph
{
  public:
    /**
     * Add a state with its packed vector (a zero-width vector is
     * legal: a model whose control state is fully implicit, or a
     * structural graph). The first state fixes the graph's width;
     * another width is a FatalError.
     * @return the new state's id.
     */
    StateId addState(const BitVec &packed);

    /** Bulk-append @p count states of @p state_bits bits, packed
     *  back to back in @p words at ceil(state_bits / 64) words each;
     *  ids are assigned consecutively starting at the current
     *  numStates(). */
    void addStates(size_t state_bits, size_t count,
                   std::span<const uint64_t> words);

    /**
     * Add an edge; @return the new edge's id. Edges must arrive in
     * non-decreasing source order, and the choice code must fit 32
     * bits; anything else is a FatalError that leaves the graph
     * unchanged.
     */
    EdgeId addEdge(StateId src, StateId dst, uint64_t choice_code,
                   uint32_t instr_count);

    /** Bulk-append edges (the addEdge() contract per edge; on a
     *  FatalError none of @p batch is added). */
    void addEdges(std::span<const Edge> batch);

    /** Release the arrays' growth slack once building is done. */
    void shrinkToFit();

    /** @return number of states. */
    size_t numStates() const { return numStates_; }

    /** @return number of edges. */
    size_t numEdges() const { return edges_.size(); }

    /** @return edge record for @p id. */
    const Edge &edge(EdgeId id) const { return edges_[id]; }

    /** @return ids of edges leaving @p state, in insertion order. */
    EdgeRange outEdges(StateId state) const;

    /** @return the packed state vector; panics when @p state is out
     *  of range. */
    BitVec packedState(StateId state) const;

    /** @return the packed words of @p state, ceil(stateBits() / 64)
     *  of them; panics like packedState(). */
    std::span<const uint64_t> stateWords(StateId state) const;

    /** @return the width of the states (0 before the first one). */
    size_t stateBits() const { return stateBits_; }

    /** @return the reset (initial) state id; always 0 by construction. */
    StateId resetState() const { return 0; }

    /** @return total instruction count across all edges. */
    uint64_t totalEdgeInstructions() const;

    /** @return heap bytes the graph's arrays have allocated. */
    size_t memoryBytes() const;

  private:
    void setWidth(size_t state_bits);

    std::vector<Edge> edges_;
    /** rowStart_[s] is the first out-edge id of state s, for every
     *  state up to the last edge's source; later states have none. */
    std::vector<EdgeId> rowStart_;
    std::vector<uint64_t> words_; ///< the states at stride_
    size_t numStates_ = 0;
    size_t stateBits_ = 0;
    size_t stride_ = 0; ///< words per state
};

/** Strongly-connected-component decomposition (iterative Tarjan). */
struct SccResult
{
    std::vector<uint32_t> componentOf; ///< state -> component index
    size_t numComponents = 0;
};

/** Compute SCCs of @p graph. */
SccResult stronglyConnectedComponents(const StateGraph &graph);

/** @return states reachable from @p start (BFS over out-edges). */
std::vector<bool> reachableFrom(const StateGraph &graph, StateId start);

/** Degree and connectivity summary for reports. */
struct GraphSummary
{
    size_t numStates = 0;
    size_t numEdges = 0;
    size_t maxOutDegree = 0;
    double meanOutDegree = 0.0;
    size_t numSinkStates = 0;  ///< states with no out-edges
    size_t numSccs = 0;
    size_t largestScc = 0;
};

/** Compute a summary of @p graph. */
GraphSummary summarize(const StateGraph &graph);

/** Render @p summary as a printable block. */
std::string renderSummary(const GraphSummary &summary);

/**
 * Order-sensitive structural fingerprint of a graph: an FNV-1a hash
 * over every edge record (in id order) and every packed state (in id
 * order). Two graphs fingerprint equal iff the same
 * states and edges were produced in the same order — the equality the
 * enumerator guarantees across memory budgets.
 */
uint64_t fingerprint(const StateGraph &graph);

} // namespace archval::graph

#endif // ARCHVAL_GRAPH_STATE_GRAPH_HH
