/**
 * @file
 * Transition-tour generation over a state graph (paper Section 3.3).
 *
 * Implements the Figure 3.3 algorithm verbatim: a greedy depth-first
 * traversal that marks edges covered as it goes; when no untraversed
 * edge leaves the current state, a breadth-first "explore" finds the
 * nearest state that still has one and the shortest path to it is
 * appended to the tour (re-traversing edges is cheap in simulation,
 * backtracking is not). When nothing is reachable, a new trace is
 * started from reset. An optional per-trace instruction limit splits
 * long traces so any bug can be re-reached quickly (Table 3.3).
 *
 * A trace stores only what the depth-first search chose: its runs of
 * edges. The re-routing legs between runs always go through reset
 * along two routing trees (Routes) that every trace of a tour shares,
 * so they are implied, not copied; a TraceCursor expands a trace into
 * its full walk.
 */

#ifndef ARCHVAL_GRAPH_TOUR_HH
#define ARCHVAL_GRAPH_TOUR_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/state_graph.hh"

namespace archval::graph
{

/** Sentinel for "no edge". */
constexpr EdgeId invalidEdge = UINT32_MAX;

/**
 * One reset-rooted trace, stored as its runs: stretches of edges in
 * walk order. Before the first run, when it does not start at reset,
 * and between two runs the walk takes an implied leg through reset:
 * up the in-tree from where the previous run ended to reset, then
 * down the BFS tree to where the next run starts (Routes). A random
 * baseline's walk and a fuzz mutant are one run that starts at reset,
 * so they need no routes.
 */
struct Trace
{
    std::vector<EdgeId> edges; ///< the runs' edges, run after run
    /** End offset in edges of every run but the last (empty for a
     *  one-run walk); strictly increasing, no run is empty. */
    std::vector<uint32_t> runEnds;
    uint64_t instructions = 0; ///< of the whole walk, legs included
    bool limitTerminated = false; ///< cut by the per-trace limit
};

/**
 * The two static routing trees of a graph, rooted at reset: the
 * reverse-BFS in-tree (a shortest walk from each state to reset) and
 * the forward BFS tree (a shortest walk from reset to each state).
 * Each state keeps its hop toward the root plus the length and
 * instructions of its whole route, so a leg's figures are two reads.
 */
class Routes
{
  public:
    /** One hop of a route. */
    struct Hop
    {
        EdgeId edge = invalidEdge;   ///< invalidEdge: no route
        StateId next = invalidState; ///< the state one hop nearer reset
    };

    /** One tree, indexed by state. */
    struct Tree
    {
        std::vector<Hop> hops;
        std::vector<uint32_t> depth;  ///< hops from the state to reset
        std::vector<uint64_t> instrs; ///< instructions of those hops
    };

    Routes() = default;

    /**
     * Build both trees of @p graph. When @p bfs_order is set it
     * receives the states reachable from reset in forward BFS order.
     */
    explicit Routes(const StateGraph &graph,
                    std::vector<StateId> *bfs_order = nullptr);

    /** @return the root of both trees. */
    StateId reset() const { return reset_; }

    /** @return the number of states the trees index. */
    size_t numStates() const { return toReset_.hops.size(); }

    /** In-tree: hops[s].edge leaves s, and next is its destination. */
    const Tree &toReset() const { return toReset_; }

    /** BFS tree: hops[s].edge enters s, and next is its source. */
    const Tree &fromReset() const { return fromReset_; }

    /** @return true when reset is reachable from @p state. */
    bool
    reachesReset(StateId state) const
    {
        return state == reset_ || toReset_.hops[state].edge != invalidEdge;
    }

    /** @return true when @p state is reachable from reset. */
    bool
    reachedFromReset(StateId state) const
    {
        return state == reset_ ||
               fromReset_.hops[state].edge != invalidEdge;
    }

    /** @return heap bytes of the trees. */
    size_t memoryBytes() const;

  private:
    StateId reset_ = 0;
    Tree toReset_;
    Tree fromReset_;
};

/**
 * Expands a Trace into its walk, one traversal at a time: the edge
 * and the state it enters, legs included, in walk order. Every
 * consumer of a tour reads it through a cursor.
 *
 * Malformed input — run ends out of shape, an edge id outside the
 * graph, a run that does not start where a route reaches, or a trace
 * with implied legs but no routes — throws FatalError. The graph, the
 * trace and the routes must outlive the cursor.
 */
class TraceCursor
{
  public:
    /** @param routes The trees of @p graph; may be null only for a
     *  one-run trace that starts at reset. */
    TraceCursor(const StateGraph &graph, const Trace &trace,
                const Routes *routes = nullptr);

    /** Step to the next traversal. @return false past the last. */
    bool
    next()
    {
        if (legPos_ < leg_.size()) {
            edge_ = leg_[legPos_].edge;
            state_ = leg_[legPos_++].state;
            ++position_;
            return true;
        }
        if (pos_ < runEnd_) {
            if (pos_ + kAhead < runEnd_)
                prefetchEdge(pos_ + kAhead);
            edge_ = runEdge(pos_++);
            state_ = invalidState; // read from the graph on demand
            ++position_;
            return true;
        }
        return nextRun();
    }

    /** @return the current traversal's edge. */
    EdgeId edge() const { return edge_; }

    /** @return the state the current traversal enters. */
    StateId
    state() const
    {
        return state_ != invalidState ? state_ : graph_->edge(edge_).dst;
    }

    /** @return the traversals stepped so far: next() yields
     *  traversal number position() (0-based). */
    uint64_t position() const { return position_; }

    /** Position the cursor so that next() yields traversal @p cycle
     *  (past the end: next() returns false). O(runs in the trace). */
    void seek(uint64_t cycle);

    /** @return the number of traversals in the walk. O(runs). */
    uint64_t length() const;

  private:
    /** Run edges whose records are fetched ahead of state(). */
    static constexpr size_t kAhead = 8;

    /** One step of an expanded leg: the edge and the state it
     *  enters. */
    struct Step
    {
        EdgeId edge;
        StateId state;
    };

    /** The leg before a run. */
    struct Leg
    {
        StateId from; ///< where the previous run ended (reset for run 0)
        StateId to;   ///< where the run starts
        uint32_t up;  ///< hops from `from` to reset
        uint32_t down; ///< hops from reset to `to`
    };

    /** @return the edge at @p offset; FatalError outside the graph. */
    EdgeId
    runEdge(size_t offset) const
    {
        const EdgeId e = trace_->edges[offset];
        if (e >= graph_->numEdges())
            badEdge(e);
        return e;
    }

    [[noreturn]] void badEdge(EdgeId edge) const;

    /** Start loading the record of the edge at @p offset. */
    void
    prefetchEdge(size_t offset) const
    {
        const EdgeId e = trace_->edges[offset];
        if (e < graph_->numEdges())
            __builtin_prefetch(&graph_->edge(e));
    }

    size_t numRuns() const { return trace_->runEnds.size() + 1; }
    size_t runBegin(size_t run) const;
    size_t runEnd(size_t run) const;

    /** @return the leg before run @p run (checked against routes). */
    Leg legBefore(size_t run) const;

    /** Make run @p run current, at the start of its leg, which is
     *  expanded into leg_. */
    void enterRun(size_t run);

    /** Enter the next run, if any, and step into it. */
    bool nextRun();

    const StateGraph *graph_;
    const Trace *trace_;
    const Routes *routes_;

    size_t run_ = 0;
    size_t pos_ = 0;    ///< next edge offset of the current run
    size_t runEnd_ = 0; ///< end offset of the current run
    std::vector<Step> leg_; ///< the current run's leg, in walk order
    size_t legPos_ = 0;     ///< next step of leg_

    EdgeId edge_ = invalidEdge;
    StateId state_ = invalidState; ///< invalidState: a run edge's dst
    uint64_t position_ = 0;
};

/**
 * A transition tour: its traces and the Routes their implied legs
 * follow. Indexing and iteration reach the traces; cursor() expands
 * one.
 */
class Tours
{
  public:
    Tours() = default;
    Tours(Routes routes, std::vector<Trace> traces)
        : routes_(std::move(routes)), traces_(std::move(traces))
    {
    }

    size_t size() const { return traces_.size(); }
    bool empty() const { return traces_.empty(); }
    const Trace &operator[](size_t i) const { return traces_[i]; }
    std::vector<Trace>::const_iterator begin() const
    {
        return traces_.begin();
    }
    std::vector<Trace>::const_iterator end() const { return traces_.end(); }

    const std::vector<Trace> &traces() const { return traces_; }
    const Routes &routes() const { return routes_; }

    /** @return a cursor over trace @p i, which walks @p graph. */
    TraceCursor
    cursor(const StateGraph &graph, size_t i) const
    {
        return TraceCursor(graph, traces_[i], &routes_);
    }

    /** @return heap bytes of the traces and the routes. */
    size_t memoryBytes() const;

  private:
    Routes routes_;
    std::vector<Trace> traces_;
};

/** Tour generation options. */
struct TourOptions
{
    /** Per-trace instruction limit; 0 disables (paper compares
     *  unlimited vs a 10,000-instruction limit). */
    uint64_t maxInstructionsPerTrace = 0;
};

/** Statistics matching the paper's Table 3.3 rows. */
struct TourStats
{
    uint64_t numTraces = 0;
    uint64_t totalEdgeTraversals = 0;
    uint64_t totalInstructions = 0;
    uint64_t longestTraceEdges = 0;
    uint64_t longestTraceInstructions = 0;
    uint64_t tracesTerminatedByLimit = 0;
    double generationSeconds = 0.0;

    /** Render as an aligned table next to the paper's values. */
    std::string render() const;
};

/**
 * Generates a covering set of reset-rooted traces whose union
 * traverses every edge of the graph at least once.
 */
class TourGenerator
{
  public:
    /**
     * @param graph Graph to cover (must outlive the generator).
     * @param options Generation options.
     */
    explicit TourGenerator(const StateGraph &graph,
                           TourOptions options = {});

    /**
     * Run the Figure 3.3 algorithm.
     * @return traces whose union covers every edge, with the routes
     * their legs follow.
     */
    Tours run();

    /** @return statistics of the completed run. */
    const TourStats &stats() const { return stats_; }

  private:
    /** Greedy DFS from @p state; appends covered edges to @p trace.
     *  @return the state where no untraversed edge was available. */
    StateId traverseDfs(StateId state, Trace &trace);

    /**
     * Explore phase: take the leg from @p from to @p to, which
     * Figure 3.3 finds by a breadth-first search from every stuck
     * point; on large graphs that is quadratic (very plausibly the
     * dominant term in the paper's 161,159-second generation time).
     * This implementation instead routes *via reset* along the two
     * static Routes trees, consuming work states in increasing depth
     * order. Paths are a constant factor longer (bounded by twice the
     * graph's BFS depth) but re-traversal is exactly the cost the
     * paper calls cheap, and generation becomes linear in the graph
     * size. The leg's edges are implied, not appended: this marks
     * them covered and adds the leg's length and instructions.
     */
    void takeLeg(StateId from, StateId to, Trace &trace);

    /** Append the leg from @p from to @p to to @p trace as explicit
     *  edges (its figures were added when it was taken). */
    void appendLeg(StateId from, StateId to, Trace &trace) const;

    /** @return the shallowest state that still has untraversed
     *  out-edges, or invalidState when none remain. */
    StateId nextWorkState();

    /** @return true when @p state has an untraversed out-edge
     *  (advances its scan pointer past covered edges). */
    bool hasUncovered(StateId state);

    /** Mark @p edge traversed; update coverage bookkeeping. */
    void coverEdge(EdgeId edge);

    /** @return true when @p trace is at or past the instruction
     *  limit. */
    bool atLimit(const Trace &trace) const;

    const StateGraph &graph_;
    TourOptions options_;
    TourStats stats_;

    std::vector<bool> covered_;
    /** Per-state index of the first possibly-uncovered out-edge
     *  (advances monotonically; makes repeated DFS linear). */
    std::vector<uint32_t> nextUncovered_;
    uint64_t remainingUncovered_ = 0;

    /** Static routing (built once per run). @{ */
    Routes routes_;
    std::vector<StateId> depthOrder_; ///< states by BFS depth
    size_t workCursor_ = 0;           ///< scan position
    /** Per state: every in-tree edge of its route to reset is
     *  covered (path compression for the legs' marking). */
    std::vector<bool> routeCovered_;
    /** @} */

    uint64_t traceLength_ = 0; ///< traversals of the trace being built
};

/**
 * Verify @p tours against @p graph in O(run edges + states): every
 * route hop leaves its state and enters the next one with the
 * recorded length and instructions; every run is a connected walk
 * whose start a route reaches, and every run but a trace's last ends
 * where a route leads back to reset; each trace's recorded
 * instructions equal its runs' plus its legs'; and the runs plus the
 * legs cover every edge. @return empty string on success, else a
 * description of the first violation.
 */
std::string checkTourCoverage(const StateGraph &graph, const Tours &tours);

} // namespace archval::graph

#endif // ARCHVAL_GRAPH_TOUR_HH
