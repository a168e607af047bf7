#include "tour.hh"

#include <algorithm>
#include <deque>

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

void
TourGenerator::takeEdge(EdgeId edge, uint32_t instrs, Trace &trace)
{
    trace.edges.push_back(edge);
    trace.instructions += instrs;
    ++stats_.totalEdgeTraversals;
    stats_.totalInstructions += instrs;
    coverEdge(edge);
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
        const Edge &edge = graph_.edge(out[pos]);
        takeEdge(out[pos], edge.instrCount, trace);
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

void
TourGenerator::buildStaticRoutes()
{
    const size_t n = graph_.numStates();
    const StateId reset = graph_.resetState();

    // Forward BFS tree from reset: fromReset_[v] is the tree edge
    // entering v; depthOrder_ lists states in BFS order.
    fromReset_.assign(n, {invalidEdge, invalidState, 0});
    depthOrder_.clear();
    depthOrder_.reserve(n);
    {
        std::vector<bool> visited(n, false);
        std::deque<StateId> queue;
        visited[reset] = true;
        queue.push_back(reset);
        depthOrder_.push_back(reset);
        while (!queue.empty()) {
            StateId u = queue.front();
            queue.pop_front();
            for (EdgeId e : graph_.outEdges(u)) {
                StateId v = graph_.edge(e).dst;
                if (visited[v])
                    continue;
                visited[v] = true;
                fromReset_[v] = {e, u, graph_.edge(e).instrCount};
                depthOrder_.push_back(v);
                queue.push_back(v);
            }
        }
    }

    // Reverse BFS in-tree toward reset: toReset_[v] is the first hop
    // of a shortest walk v -> ... -> reset (invalid when reset is
    // unreachable from v). Needs reverse adjacency, built here in
    // CSR form by counting sort.
    std::vector<uint32_t> offsets(n + 1, 0);
    for (EdgeId e = 0; e < graph_.numEdges(); ++e)
        ++offsets[graph_.edge(e).dst + 1];
    for (size_t i = 1; i < offsets.size(); ++i)
        offsets[i] += offsets[i - 1];
    std::vector<EdgeId> reverse_edges(graph_.numEdges());
    {
        std::vector<uint32_t> cursor(offsets.begin(),
                                     offsets.end() - 1);
        for (EdgeId e = 0; e < graph_.numEdges(); ++e)
            reverse_edges[cursor[graph_.edge(e).dst]++] = e;
    }

    toReset_.assign(n, {invalidEdge, invalidState, 0});
    {
        std::vector<bool> visited(n, false);
        std::deque<StateId> queue;
        visited[reset] = true;
        queue.push_back(reset);
        while (!queue.empty()) {
            StateId u = queue.front();
            queue.pop_front();
            for (uint32_t i = offsets[u]; i < offsets[u + 1]; ++i) {
                EdgeId e = reverse_edges[i];
                StateId v = graph_.edge(e).src;
                if (visited[v])
                    continue;
                visited[v] = true;
                // forward edge v -> u -> ... -> reset
                toReset_[v] = {e, u, graph_.edge(e).instrCount};
                queue.push_back(v);
            }
        }
    }

    workCursor_ = 0;
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

StateId
TourGenerator::traverseBfs(StateId state, Trace &trace)
{
    if (hasUncovered(state))
        return state;

    StateId target = nextWorkState();
    if (target == invalidState)
        return invalidState;

    const StateId reset = graph_.resetState();

    // Leg 1: back to reset along the static in-tree (re-traversing
    // covered edges is cheap in simulation).
    if (state != reset) {
        if (toReset_[state].edge == invalidEdge)
            return invalidState; // must start a fresh trace
        while (state != reset) {
            const Hop &hop = toReset_[state];
            takeEdge(hop.edge, hop.instrs, trace);
            state = hop.next;
        }
    }

    // Leg 2: reset to the target along the forward BFS tree.
    if (target != reset) {
        if (fromReset_[target].edge == invalidEdge)
            panic("tour: uncovered edges unreachable from reset");
        path_.clear();
        for (StateId cur = target; cur != reset;) {
            path_.push_back(fromReset_[cur]);
            cur = fromReset_[cur].next;
        }
        for (auto it = path_.rbegin(); it != path_.rend(); ++it)
            takeEdge(it->edge, it->instrs, trace);
    }
    return target;
}

std::vector<Trace>
TourGenerator::run()
{
    CpuTimer timer;

    covered_.assign(graph_.numEdges(), false);
    nextUncovered_.assign(graph_.numStates(), 0);
    remainingUncovered_ = graph_.numEdges();
    buildStaticRoutes();

    std::vector<Trace> traces;
    const StateId reset = graph_.resetState();

    Trace trace;
    StateId state = reset;

    while (remainingUncovered_ > 0) {
        // Inner loop: DFS until stuck, then BFS to the nearest state
        // with work left; stop on the instruction limit or when
        // nothing is reachable from here.
        for (;;) {
            state = traverseDfs(state, trace);
            if (remainingUncovered_ == 0)
                break;
            if (atLimit(trace)) {
                trace.limitTerminated = true;
                break;
            }
            StateId next = traverseBfs(state, trace);
            if (next == invalidState)
                break;
            state = next;
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
            traces.push_back(trace);
        }
        trace.edges.clear();
        trace.instructions = 0;
        trace.limitTerminated = false;

        if (remainingUncovered_ == 0)
            break;

        // Explore phase: start a new trace from reset and path to any
        // remaining untraversed edge.
        state = traverseBfs(reset, trace);
        if (state == invalidState) {
            // Untraversed edges exist but are unreachable from reset.
            // Cannot happen for graphs produced by enumeration from
            // reset; bail out rather than spin.
            panic("tour: uncovered edges unreachable from reset");
        }
    }

    // "Remove empty last output file": only non-empty traces were kept.
    stats_.numTraces = traces.size();
    uint64_t traversals = 0;
    for (const auto &t : traces) {
        traversals += t.edges.size();
        if (t.edges.size() > stats_.longestTraceEdges) {
            stats_.longestTraceEdges = t.edges.size();
            stats_.longestTraceInstructions = t.instructions;
        }
    }
    stats_.generationSeconds = timer.seconds();
    telemetry::counter("tour.traversals").add(traversals);
    return traces;
}

std::string
checkTourCoverage(const StateGraph &graph, const std::vector<Trace> &traces)
{
    std::vector<bool> covered(graph.numEdges(), false);
    for (size_t t = 0; t < traces.size(); ++t) {
        const Trace &trace = traces[t];
        if (trace.edges.empty())
            return formatString("trace %zu is empty", t);
        StateId at = graph.resetState();
        uint64_t instrs = 0;
        for (EdgeId e : trace.edges) {
            const Edge &edge = graph.edge(e);
            if (edge.src != at) {
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
                "trace %zu: recorded %llu instructions but edges sum "
                "to %llu",
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
