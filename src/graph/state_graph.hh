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
    StateId src;        ///< source state
    StateId dst;        ///< destination state
    uint64_t choiceCode; ///< packed environment choice (ChoiceCodec)
    uint32_t instrCount; ///< instructions consumed by this transition
};

/**
 * Directed multigraph over enumerated states.
 *
 * Built incrementally by the enumerator, then used read-only by tour
 * generation and analysis. Optionally retains the packed state vector
 * of every state for debugging and condition mapping.
 */
class StateGraph
{
  public:
    /**
     * Add a state whose packed vector is retained (a zero-width
     * vector is legal: a model whose control state is fully
     * implicit). The first insertion fixes the graph's retention
     * mode; mixing retained and unretained states is a FatalError.
     * @return the new state's id.
     */
    StateId addState(BitVec packed);

    /** Add a state without retaining a packed vector (see
     *  addState() for the retention-mode contract). */
    StateId addStateUnretained();

    /** Bulk-append retained states in order; ids are assigned
     *  consecutively starting at the current numStates(). */
    void addStates(std::vector<BitVec> &&packed);

    /** Bulk-append @p count unretained states. */
    void addStatesUnretained(size_t count);

    /** Add an edge; @return the new edge's id. */
    EdgeId addEdge(StateId src, StateId dst, uint64_t choice_code,
                   uint32_t instr_count);

    /** Bulk-append edges (one adjacency pass, no per-edge calls);
     *  sources and destinations must already exist. */
    void addEdges(const std::vector<Edge> &batch);

    /** @return number of states. */
    size_t numStates() const { return outEdges_.size(); }

    /** @return number of edges. */
    size_t numEdges() const { return edges_.size(); }

    /** @return edge record for @p id. */
    const Edge &edge(EdgeId id) const { return edges_[id]; }

    /** @return ids of edges leaving @p state. */
    const std::vector<EdgeId> &outEdges(StateId state) const;

    /** @return the packed state vector; panics when retention is
     *  off or @p state is out of range. */
    const BitVec &packedState(StateId state) const;

    /** @return true when packed states are retained. An empty graph
     *  reports true (retention is decided by the first insertion,
     *  and nothing contradicts it yet). */
    bool statesRetained() const { return retainStates_; }

    /** @return the reset (initial) state id; always 0 by construction. */
    StateId resetState() const { return 0; }

    /** @return total instruction count across all edges. */
    uint64_t totalEdgeInstructions() const;

    /** @return approximate heap bytes held by the graph. */
    size_t memoryBytes() const;

  private:
    void setRetention(bool retain);

    std::vector<Edge> edges_;
    std::vector<std::vector<EdgeId>> outEdges_;
    std::vector<BitVec> packedStates_;
    bool retainStates_ = true;  ///< retention mode (see statesRetained)
    bool retentionSet_ = false; ///< first insertion happened
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
 * over every edge record (in id order) and every retained packed
 * state (in id order). Two graphs fingerprint equal iff the same
 * states and edges were produced in the same order — the equality the
 * enumerator guarantees across worker counts and memory budgets.
 */
uint64_t fingerprint(const StateGraph &graph);

} // namespace archval::graph

#endif // ARCHVAL_GRAPH_STATE_GRAPH_HH
