#include "tour.hh"

#include <algorithm>

#include "support/status.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"
#include "support/timer.hh"

namespace archval::graph
{

std::string
TourStats::render() const
{
    std::string out;
    out += formatString("Number of traces generated     %s\n",
                        withCommas(numTraces).c_str());
    out += formatString("Total edge traversals          %s\n",
                        withCommas(totalEdgeTraversals).c_str());
    out += formatString("Total instructions generated   %s\n",
                        withCommas(totalInstructions).c_str());
    out += formatString("Generation time                %.1f cpu secs\n",
                        generationSeconds);
    out += formatString("Est. simulation time @ 100Hz   %s\n",
                        humanSeconds(double(totalEdgeTraversals) / 100.0)
                            .c_str());
    out += formatString("Longest single trace           %s edges\n",
                        withCommas(longestTraceEdges).c_str());
    out += formatString("Est. sim time (longest trace)  %s\n",
                        humanSeconds(double(longestTraceEdges) / 100.0)
                            .c_str());
    out += formatString("Traces terminated by limit     %s\n",
                        withCommas(tracesTerminatedByLimit).c_str());
    return out;
}

Routes::Routes(const StateGraph &graph, std::vector<StateId> *bfs_order)
    : reset_(graph.resetState())
{
    const size_t n = graph.numStates();
    for (Tree *tree : {&toReset_, &fromReset_}) {
        tree->hops.assign(n, Hop{});
        tree->depth.assign(n, 0);
        tree->instrs.assign(n, 0);
    }
    if (bfs_order)
        bfs_order->clear();
    if (n == 0)
        return;

    // Forward BFS tree from reset: hops[v] is the tree edge entering
    // v. The queue is the BFS order itself.
    std::vector<StateId> order;
    order.reserve(n);
    {
        std::vector<bool> visited(n, false);
        visited[reset_] = true;
        order.push_back(reset_);
        for (size_t head = 0; head < order.size(); ++head) {
            const StateId u = order[head];
            for (EdgeId e : graph.outEdges(u)) {
                const Edge &edge = graph.edge(e);
                const StateId v = edge.dst;
                if (visited[v])
                    continue;
                visited[v] = true;
                fromReset_.hops[v] = {e, u};
                fromReset_.depth[v] = fromReset_.depth[u] + 1;
                fromReset_.instrs[v] =
                    fromReset_.instrs[u] + edge.instrCount;
                order.push_back(v);
            }
        }
    }

    // Reverse BFS in-tree toward reset: hops[v] is the first hop of a
    // shortest walk v -> ... -> reset (none when reset is unreachable
    // from v). Needs reverse adjacency, built here in CSR form by
    // counting sort.
    std::vector<uint32_t> offsets(n + 1, 0);
    for (EdgeId e = 0; e < graph.numEdges(); ++e)
        ++offsets[graph.edge(e).dst + 1];
    for (size_t i = 1; i < offsets.size(); ++i)
        offsets[i] += offsets[i - 1];
    std::vector<EdgeId> reverse_edges(graph.numEdges());
    {
        std::vector<uint32_t> cursor(offsets.begin(),
                                     offsets.end() - 1);
        for (EdgeId e = 0; e < graph.numEdges(); ++e)
            reverse_edges[cursor[graph.edge(e).dst]++] = e;
    }
    {
        std::vector<bool> visited(n, false);
        std::vector<StateId> queue;
        queue.reserve(n);
        visited[reset_] = true;
        queue.push_back(reset_);
        for (size_t head = 0; head < queue.size(); ++head) {
            const StateId u = queue[head];
            for (uint32_t i = offsets[u]; i < offsets[u + 1]; ++i) {
                const EdgeId e = reverse_edges[i];
                const Edge &edge = graph.edge(e);
                const StateId v = edge.src;
                if (visited[v])
                    continue;
                visited[v] = true;
                // forward edge v -> u -> ... -> reset
                toReset_.hops[v] = {e, u};
                toReset_.depth[v] = toReset_.depth[u] + 1;
                toReset_.instrs[v] = toReset_.instrs[u] + edge.instrCount;
                queue.push_back(v);
            }
        }
    }
    if (bfs_order)
        *bfs_order = std::move(order);
}

size_t
Routes::memoryBytes() const
{
    size_t bytes = 0;
    for (const Tree *tree : {&toReset_, &fromReset_}) {
        bytes += tree->hops.capacity() * sizeof(Hop) +
                 tree->depth.capacity() * sizeof(uint32_t) +
                 tree->instrs.capacity() * sizeof(uint64_t);
    }
    return bytes;
}

TraceCursor::TraceCursor(const StateGraph &graph, const Trace &trace,
                         const Routes *routes)
    : graph_(&graph), trace_(&trace), routes_(routes)
{
    size_t prev = 0;
    for (uint32_t end : trace.runEnds) {
        if (end <= prev || end >= trace.edges.size())
            fatal(formatString("trace run end %u is out of shape "
                               "(after %zu, %zu edges)",
                               end, prev, trace.edges.size()));
        prev = end;
    }
    if (!routes && !trace.runEnds.empty())
        fatal("a trace of several runs needs the routes of its legs");
    if (routes && routes->numStates() != graph.numStates())
        fatal(formatString("routes of %zu states for a graph of %zu",
                           routes->numStates(), graph.numStates()));
    if (!trace.edges.empty())
        enterRun(0);
}

void
TraceCursor::badEdge(EdgeId edge) const
{
    fatal(formatString("trace edge %u is not in the graph (%zu edges)",
                       edge, graph_->numEdges()));
}

size_t
TraceCursor::runBegin(size_t run) const
{
    return run == 0 ? 0 : trace_->runEnds[run - 1];
}

size_t
TraceCursor::runEnd(size_t run) const
{
    return run < trace_->runEnds.size() ? trace_->runEnds[run]
                                        : trace_->edges.size();
}

TraceCursor::Leg
TraceCursor::legBefore(size_t run) const
{
    const size_t begin = runBegin(run);
    const StateId reset = graph_->resetState();
    Leg leg;
    leg.from = run == 0 ? reset : graph_->edge(runEdge(begin - 1)).dst;
    leg.to = graph_->edge(runEdge(begin)).src;
    leg.up = 0;
    leg.down = 0;
    if (!routes_) {
        // Without routes only run 0 exists, and it must leave reset.
        if (leg.to != reset)
            fatal(formatString("a trace starting at state %u, not "
                               "reset, needs the routes of its legs",
                               leg.to));
        return leg;
    }
    if (!routes_->reachesReset(leg.from))
        fatal(formatString("trace run %zu ends at state %u, which has "
                           "no route to reset",
                           run - 1, leg.from));
    if (!routes_->reachedFromReset(leg.to))
        fatal(formatString("trace run %zu starts at state %u, which no "
                           "route from reset reaches",
                           run, leg.to));
    leg.up = routes_->toReset().depth[leg.from];
    leg.down = routes_->fromReset().depth[leg.to];
    return leg;
}

void
TraceCursor::enterRun(size_t run)
{
    run_ = run;
    pos_ = runBegin(run);
    runEnd_ = runEnd(run);
    // Run edges land anywhere in the edge array: fetch this run's
    // first records, and the next leg's ends, while the leg is
    // walked.
    for (size_t i = pos_; i < std::min(runEnd_, pos_ + kAhead); ++i)
        prefetchEdge(i);
    if (run + 1 < numRuns()) {
        prefetchEdge(runEnd_ - 1);
        prefetchEdge(runEnd_);
    }
    const Leg leg = legBefore(run);
    legPos_ = 0;
    leg_.resize(size_t(leg.up) + leg.down);
    // Up the in-tree in walk order; down the BFS tree, which links
    // each state to its parent, from the far end back.
    StateId s = leg.from;
    for (size_t i = 0; i < leg.up; ++i) {
        const Routes::Hop &hop = routes_->toReset().hops[s];
        leg_[i] = {hop.edge, hop.next};
        s = hop.next;
    }
    s = leg.to;
    for (size_t i = leg_.size(); i-- > leg.up;) {
        const Routes::Hop &hop = routes_->fromReset().hops[s];
        leg_[i] = {hop.edge, s};
        s = hop.next;
    }
}

bool
TraceCursor::nextRun()
{
    if (run_ + 1 >= numRuns())
        return false;
    enterRun(run_ + 1);
    return next();
}

void
TraceCursor::seek(uint64_t cycle)
{
    position_ = 0;
    if (trace_->edges.empty())
        return;
    for (size_t run = 0;; ++run) {
        const Leg leg = legBefore(run);
        const uint64_t leg_length = uint64_t(leg.up) + leg.down;
        const uint64_t span = leg_length + runEnd(run) - runBegin(run);
        if (cycle < span || run + 1 == numRuns()) {
            // Within this run's leg or edges, or past the end of the
            // last run.
            enterRun(run);
            const uint64_t into = std::min(cycle, span);
            legPos_ = std::min(into, leg_length);
            pos_ += into - legPos_;
            position_ += into;
            return;
        }
        cycle -= span;
        position_ += span;
    }
}

uint64_t
TraceCursor::length() const
{
    uint64_t total = trace_->edges.size();
    if (total == 0)
        return 0;
    for (size_t run = 0; run < numRuns(); ++run) {
        const Leg leg = legBefore(run);
        total += uint64_t(leg.up) + leg.down;
    }
    return total;
}

size_t
Tours::memoryBytes() const
{
    size_t bytes = traces_.capacity() * sizeof(Trace) +
                   routes_.memoryBytes();
    for (const Trace &trace : traces_) {
        bytes += trace.edges.capacity() * sizeof(EdgeId) +
                 trace.runEnds.capacity() * sizeof(uint32_t);
    }
    return bytes;
}

TourGenerator::TourGenerator(const StateGraph &graph, TourOptions options)
    : graph_(graph), options_(options)
{
}

void
TourGenerator::coverEdge(EdgeId edge)
{
    if (!covered_[edge]) {
        covered_[edge] = true;
        --remainingUncovered_;
    }
}

bool
TourGenerator::atLimit(const Trace &trace) const
{
    return options_.maxInstructionsPerTrace != 0 &&
           trace.instructions >= options_.maxInstructionsPerTrace;
}

StateId
TourGenerator::traverseDfs(StateId state, Trace &trace)
{
    // Follow untraversed edges greedily until none leave the current
    // state or the trace hits its instruction limit. States may be
    // revisited; only edge coverage matters. The limit is checked
    // *after* each edge so that every DFS entry makes progress (at
    // least one new edge per trace) — without this, a trace whose
    // reset-to-work BFS prefix already exhausts the budget would
    // cover nothing and generation would never terminate.
    for (;;) {
        const EdgeRange out = graph_.outEdges(state);
        uint32_t &pos = nextUncovered_[state];
        while (pos < out.size() && covered_[out[pos]])
            ++pos;
        if (pos >= out.size())
            return state;
        const EdgeId e = out[pos];
        const Edge &edge = graph_.edge(e);
        trace.edges.push_back(e);
        trace.instructions += edge.instrCount;
        ++traceLength_;
        coverEdge(e);
        state = edge.dst;
        if (atLimit(trace))
            return state;
    }
}

bool
TourGenerator::hasUncovered(StateId state)
{
    const EdgeRange out = graph_.outEdges(state);
    uint32_t &pos = nextUncovered_[state];
    while (pos < out.size() && covered_[out[pos]])
        ++pos;
    return pos < out.size();
}

StateId
TourGenerator::nextWorkState()
{
    // Coverage is monotone, so a single depth-ordered cursor visits
    // each state at most once across the whole run.
    while (workCursor_ < depthOrder_.size()) {
        StateId s = depthOrder_[workCursor_];
        if (hasUncovered(s))
            return s;
        ++workCursor_;
    }
    return invalidState;
}

void
TourGenerator::takeLeg(StateId from, StateId to, Trace &trace)
{
    // Up the in-tree to reset, re-traversing covered edges (cheap in
    // simulation). Marking stops at the first state whose whole route
    // an earlier leg covered, so each in-tree edge is marked once.
    const Routes::Tree &up = routes_.toReset();
    for (StateId s = from; s != routes_.reset() && !routeCovered_[s];
         s = up.hops[s].next) {
        routeCovered_[s] = true;
        coverEdge(up.hops[s].edge);
    }
    // Down the BFS tree to `to`, the first state in BFS order with an
    // uncovered out-edge. Every edge of its route leaves a state
    // earlier in that order, so the route is covered already.
    const Routes::Tree &down = routes_.fromReset();
    traceLength_ += uint64_t(up.depth[from]) + down.depth[to];
    trace.instructions += up.instrs[from] + down.instrs[to];
}

void
TourGenerator::appendLeg(StateId from, StateId to, Trace &trace) const
{
    const StateId reset = routes_.reset();
    const Routes::Tree &up = routes_.toReset();
    for (StateId s = from; s != reset; s = up.hops[s].next)
        trace.edges.push_back(up.hops[s].edge);
    const size_t down_begin = trace.edges.size();
    const Routes::Tree &down = routes_.fromReset();
    for (StateId s = to; s != reset; s = down.hops[s].next)
        trace.edges.push_back(down.hops[s].edge);
    std::reverse(trace.edges.begin() + down_begin, trace.edges.end());
}

Tours
TourGenerator::run()
{
    CpuTimer timer;

    covered_.assign(graph_.numEdges(), false);
    nextUncovered_.assign(graph_.numStates(), 0);
    remainingUncovered_ = graph_.numEdges();
    routes_ = Routes(graph_, &depthOrder_);
    workCursor_ = 0;
    routeCovered_.assign(graph_.numStates(), false);

    std::vector<Trace> traces;
    uint64_t traversals = 0;
    const StateId reset = graph_.resetState();

    Trace trace;
    traceLength_ = 0;
    StateId state = reset;
    // Where the last leg left from, until the run after it has been
    // walked (invalidState: no leg pending).
    StateId leg_from = invalidState;

    while (remainingUncovered_ > 0) {
        // Inner loop: DFS until stuck, then re-route through reset to
        // the shallowest state with work left; stop on the instruction
        // limit or when reset cannot be re-reached from here.
        for (;;) {
            const size_t run_start = trace.edges.size();
            const StateId run_from = state;
            state = traverseDfs(state, trace);
            if (leg_from != invalidState) {
                // The leg is implied between two runs. When the leg
                // itself covered its target's last edges, the DFS took
                // none and no run follows: the walk still went there,
                // so the leg's edges are spelled out in this run.
                if (trace.edges.size() > run_start)
                    trace.runEnds.push_back(
                        static_cast<uint32_t>(run_start));
                else
                    appendLeg(leg_from, run_from, trace);
                leg_from = invalidState;
            }
            if (remainingUncovered_ == 0)
                break;
            if (atLimit(trace)) {
                trace.limitTerminated = true;
                break;
            }
            const StateId target = nextWorkState();
            if (target == invalidState || !routes_.reachesReset(state))
                break; // must start a fresh trace
            takeLeg(state, target, trace);
            leg_from = state;
            state = target;
            // No limit check here: the next DFS pass must take at
            // least one new edge first, or traces that spend their
            // whole budget on the connecting path would make no
            // progress.
        }

        // Close the current output file. The copy is sized exactly
        // (the flow keeps every trace for its whole life); the working
        // trace keeps its capacity for the next one.
        if (!trace.edges.empty()) {
            if (trace.limitTerminated)
                ++stats_.tracesTerminatedByLimit;
            traversals += traceLength_;
            stats_.totalInstructions += trace.instructions;
            if (traceLength_ > stats_.longestTraceEdges) {
                stats_.longestTraceEdges = traceLength_;
                stats_.longestTraceInstructions = trace.instructions;
            }
            traces.push_back(trace);
        }
        trace.edges.clear();
        trace.runEnds.clear();
        trace.instructions = 0;
        trace.limitTerminated = false;
        traceLength_ = 0;

        if (remainingUncovered_ == 0)
            break;

        // Explore phase: start a new trace from reset and path to any
        // remaining untraversed edge (the leg is implied by the first
        // run's start).
        state = nextWorkState();
        if (state == invalidState) {
            // Untraversed edges exist but are unreachable from reset.
            // Cannot happen for graphs produced by enumeration from
            // reset; bail out rather than spin.
            panic("tour: uncovered edges unreachable from reset");
        }
        takeLeg(reset, state, trace);
    }

    // "Remove empty last output file": only non-empty traces were kept.
    stats_.numTraces = traces.size();
    stats_.totalEdgeTraversals += traversals;
    stats_.generationSeconds = timer.seconds();
    telemetry::counter("tour.traversals").add(traversals);
    return Tours(std::move(routes_), std::move(traces));
}

std::string
checkTourCoverage(const StateGraph &graph, const Tours &tours)
{
    const size_t n = graph.numStates();
    const StateId reset = graph.resetState();
    const Routes &routes = tours.routes();
    if (routes.numStates() != n)
        return formatString("routes index %zu states; the graph has %zu",
                            routes.numStates(), n);

    // Every hop leaves its state and enters the next one, one hop and
    // that edge's instructions nearer reset; so each route ends at
    // reset.
    auto check_tree = [&](const Routes::Tree &tree, bool up,
                          const char *name) -> std::string {
        if (tree.depth.size() != n || tree.instrs.size() != n)
            return formatString("%s routes: tables out of shape", name);
        if (n > 0 && (tree.hops[reset].edge != invalidEdge ||
                      tree.depth[reset] != 0 || tree.instrs[reset] != 0))
            return formatString("%s routes: reset has a route", name);
        for (StateId s = 0; s < n; ++s) {
            const Routes::Hop &hop = tree.hops[s];
            if (hop.edge == invalidEdge)
                continue;
            if (hop.edge >= graph.numEdges() || hop.next >= n)
                return formatString("%s routes: state %u hops outside "
                                    "the graph",
                                    name, s);
            const Edge &edge = graph.edge(hop.edge);
            const bool linked =
                up ? edge.src == s && edge.dst == hop.next
                   : edge.dst == s && edge.src == hop.next;
            if (!linked)
                return formatString("%s routes: edge %u does not link "
                                    "state %u to state %u",
                                    name, hop.edge, s, hop.next);
            if (hop.next != reset &&
                tree.hops[hop.next].edge == invalidEdge)
                return formatString("%s routes: state %u hops to "
                                    "unrouted state %u",
                                    name, s, hop.next);
            if (uint64_t(tree.depth[s]) != tree.depth[hop.next] + 1ull ||
                tree.instrs[s] != tree.instrs[hop.next] + edge.instrCount)
                return formatString("%s routes: state %u's length or "
                                    "instructions disagree with its hop",
                                    name, s);
        }
        return "";
    };
    std::string why = check_tree(routes.toReset(), true, "to-reset");
    if (why.empty())
        why = check_tree(routes.fromReset(), false, "from-reset");
    if (!why.empty())
        return why;

    // Runs are walked edge by edge; legs are marked along their
    // routes with path compression (a marked state's route is marked
    // through to reset), so the whole check is linear.
    std::vector<bool> covered(graph.numEdges(), false);
    std::vector<bool> up_marked(n, false), down_marked(n, false);
    auto mark = [&](const Routes::Tree &tree, std::vector<bool> &marked,
                    StateId s) {
        for (; s != reset && !marked[s]; s = tree.hops[s].next) {
            marked[s] = true;
            covered[tree.hops[s].edge] = true;
        }
    };
    for (size_t t = 0; t < tours.size(); ++t) {
        const Trace &trace = tours[t];
        if (trace.edges.empty())
            return formatString("trace %zu is empty", t);
        size_t prev = 0;
        for (uint32_t end : trace.runEnds) {
            if (end <= prev || end >= trace.edges.size())
                return formatString("trace %zu: run end %u is out of "
                                    "shape (%zu edges)",
                                    t, end, trace.edges.size());
            prev = end;
        }
        StateId at = reset;
        uint64_t instrs = 0;
        size_t run = 0;
        for (size_t i = 0; i < trace.edges.size(); ++i) {
            const EdgeId e = trace.edges[i];
            if (e >= graph.numEdges())
                return formatString("trace %zu: edge %u is not in the "
                                    "graph",
                                    t, e);
            const Edge &edge = graph.edge(e);
            const bool starts_run =
                i == 0 || (run < trace.runEnds.size() &&
                           i == trace.runEnds[run]);
            if (starts_run) {
                if (i > 0) {
                    ++run;
                    if (!routes.reachesReset(at))
                        return formatString(
                            "trace %zu: run %zu ends at state %u, which "
                            "has no route to reset",
                            t, run - 1, at);
                    instrs += routes.toReset().instrs[at];
                    mark(routes.toReset(), up_marked, at);
                }
                if (!routes.reachedFromReset(edge.src))
                    return formatString(
                        "trace %zu: run %zu starts at state %u, which "
                        "no route from reset reaches",
                        t, run, edge.src);
                instrs += routes.fromReset().instrs[edge.src];
                mark(routes.fromReset(), down_marked, edge.src);
            } else if (edge.src != at) {
                return formatString(
                    "trace %zu: edge %u departs from state %u but walk "
                    "is at state %u",
                    t, e, edge.src, at);
            }
            at = edge.dst;
            instrs += edge.instrCount;
            covered[e] = true;
        }
        if (instrs != trace.instructions) {
            return formatString(
                "trace %zu: recorded %llu instructions but edges and "
                "legs sum to %llu",
                t,
                static_cast<unsigned long long>(trace.instructions),
                static_cast<unsigned long long>(instrs));
        }
    }
    for (EdgeId e = 0; e < graph.numEdges(); ++e) {
        if (!covered[e])
            return formatString("edge %u never traversed", e);
    }
    return "";
}

} // namespace archval::graph
