#include "postman.hh"

#include <algorithm>
#include <deque>
#include <limits>

#include "support/status.hh"
#include "support/strings.hh"

namespace archval::graph
{

namespace
{

/** Arc in the min-cost-flow network (paired with its residual). */
struct FlowArc
{
    uint32_t to;
    int64_t capacity;
    int64_t cost;
    EdgeId realEdge; ///< underlying graph edge, or resetReturnEdge
};

/** Successive-shortest-path min-cost flow with SPFA (handles the
 *  negative-cost residual arcs). Arcs are stored in pairs: arc 2k is
 *  forward, arc 2k+1 its residual. */
class MinCostFlow
{
  public:
    explicit MinCostFlow(size_t num_nodes) : adjacency_(num_nodes) {}

    size_t
    addArc(uint32_t from, uint32_t to, int64_t capacity, int64_t cost,
           EdgeId real_edge)
    {
        size_t id = arcs_.size();
        arcs_.push_back({to, capacity, cost, real_edge});
        arcs_.push_back({from, 0, -cost, real_edge});
        adjacency_[from].push_back(id);
        adjacency_[to].push_back(id + 1);
        return id;
    }

    /** Send up to @p amount units from @p source to @p sink.
     *  @return units actually sent. */
    int64_t
    send(uint32_t source, uint32_t sink, int64_t amount)
    {
        int64_t sent = 0;
        while (sent < amount) {
            if (!shortestPath(source, sink))
                break;
            // Find bottleneck along the path.
            int64_t push = amount - sent;
            for (uint32_t v = sink; v != source;) {
                size_t arc = parentArc_[v];
                push = std::min(push, arcs_[arc].capacity);
                v = arcs_[arc ^ 1].to;
            }
            for (uint32_t v = sink; v != source;) {
                size_t arc = parentArc_[v];
                arcs_[arc].capacity -= push;
                arcs_[arc ^ 1].capacity += push;
                v = arcs_[arc ^ 1].to;
            }
            sent += push;
        }
        return sent;
    }

    /** @return flow pushed through forward arc @p id. */
    int64_t flowOn(size_t id) const { return arcs_[id ^ 1].capacity; }

  private:
    bool
    shortestPath(uint32_t source, uint32_t sink)
    {
        const int64_t inf = std::numeric_limits<int64_t>::max() / 4;
        dist_.assign(adjacency_.size(), inf);
        inQueue_.assign(adjacency_.size(), false);
        parentArc_.assign(adjacency_.size(), SIZE_MAX);

        std::deque<uint32_t> queue;
        dist_[source] = 0;
        queue.push_back(source);
        inQueue_[source] = true;

        while (!queue.empty()) {
            uint32_t v = queue.front();
            queue.pop_front();
            inQueue_[v] = false;
            for (size_t arc : adjacency_[v]) {
                const FlowArc &a = arcs_[arc];
                if (a.capacity <= 0)
                    continue;
                int64_t nd = dist_[v] + a.cost;
                if (nd < dist_[a.to]) {
                    dist_[a.to] = nd;
                    parentArc_[a.to] = arc;
                    if (!inQueue_[a.to]) {
                        queue.push_back(a.to);
                        inQueue_[a.to] = true;
                    }
                }
            }
        }
        return parentArc_[sink] != SIZE_MAX ||
               (sink == source && false);
    }

    std::vector<FlowArc> arcs_;
    std::vector<std::vector<size_t>> adjacency_;
    std::vector<int64_t> dist_;
    std::vector<bool> inQueue_;
    std::vector<size_t> parentArc_;
};

} // namespace

PostmanResult
solveResettablePostman(const StateGraph &graph)
{
    const size_t n = graph.numStates();
    const StateId reset = graph.resetState();

    PostmanResult result;
    result.multiplicity.assign(graph.numEdges(), 1);

    // delta = indeg - outdeg with every edge traversed once. A node
    // with positive delta must originate extra traversals; negative
    // delta must terminate extra traversals.
    std::vector<int64_t> delta(n, 0);
    for (StateId s = 0; s < n; ++s) {
        for (EdgeId e : graph.outEdges(s)) {
            ++delta[graph.edge(e).dst];
            --delta[s];
        }
    }

    // Min-cost flow from surplus-in nodes to surplus-out nodes over
    // real arcs (cost 1) plus virtual v->reset arcs (cost 1). A single
    // super-source/super-sink carries all supply.
    const uint32_t super_source = static_cast<uint32_t>(n);
    const uint32_t super_sink = static_cast<uint32_t>(n + 1);
    MinCostFlow flow(n + 2);
    const int64_t inf = std::numeric_limits<int64_t>::max() / 8;

    std::vector<size_t> real_arc_ids(graph.numEdges());
    for (StateId s = 0; s < n; ++s) {
        for (EdgeId e : graph.outEdges(s))
            real_arc_ids[e] = flow.addArc(s, graph.edge(e).dst, inf, 1, e);
    }
    std::vector<size_t> virtual_arc_ids(n, SIZE_MAX);
    for (uint32_t v = 0; v < n; ++v) {
        if (v != reset) {
            virtual_arc_ids[v] =
                flow.addArc(v, reset, inf, 1, resetReturnEdge);
        }
    }

    int64_t total_supply = 0;
    for (uint32_t v = 0; v < n; ++v) {
        if (delta[v] > 0) {
            flow.addArc(super_source, v, delta[v], 0, resetReturnEdge);
            total_supply += delta[v];
        } else if (delta[v] < 0) {
            flow.addArc(v, super_sink, -delta[v], 0, resetReturnEdge);
        }
    }

    int64_t sent = flow.send(super_source, super_sink, total_supply);
    if (sent != total_supply)
        panic("postman: imbalance could not be routed");

    for (EdgeId e = 0; e < graph.numEdges(); ++e) {
        result.multiplicity[e] +=
            static_cast<uint32_t>(flow.flowOn(real_arc_ids[e]));
    }
    for (uint32_t v = 0; v < n; ++v) {
        if (virtual_arc_ids[v] != SIZE_MAX)
            result.resetReturns +=
                static_cast<uint64_t>(flow.flowOn(virtual_arc_ids[v]));
    }

    for (uint32_t m : result.multiplicity)
        result.totalTraversals += m;
    result.tourLength = result.totalTraversals + result.resetReturns;
    return result;
}

std::vector<EdgeId>
hierholzerTour(const StateGraph &graph, const PostmanResult &result)
{
    const size_t n = graph.numStates();
    const StateId reset = graph.resetState();

    // Remaining traversals per real edge, plus per-node virtual
    // returns computed from the balance (in - out over real edges).
    std::vector<uint32_t> remaining = result.multiplicity;
    std::vector<int64_t> balance(n, 0);
    for (StateId s = 0; s < n; ++s) {
        for (EdgeId e : graph.outEdges(s)) {
            balance[graph.edge(e).dst] += result.multiplicity[e];
            balance[s] -= result.multiplicity[e];
        }
    }
    std::vector<uint64_t> virtual_out(n, 0);
    for (uint32_t v = 0; v < n; ++v) {
        if (v != reset && balance[v] > 0)
            virtual_out[v] = static_cast<uint64_t>(balance[v]);
    }

    // Per-node scan position over its out-edge list.
    std::vector<uint32_t> position(n, 0);

    std::vector<EdgeId> tour;
    std::vector<std::pair<StateId, EdgeId>> stack;
    stack.push_back({reset, resetReturnEdge});

    while (!stack.empty()) {
        StateId v = stack.back().first;
        const EdgeRange out = graph.outEdges(v);
        uint32_t &pos = position[v];
        while (pos < out.size() && remaining[out[pos]] == 0)
            ++pos;
        if (pos < out.size()) {
            EdgeId e = out[pos];
            --remaining[e];
            stack.push_back({graph.edge(e).dst, e});
        } else if (virtual_out[v] > 0) {
            --virtual_out[v];
            stack.push_back({reset, resetReturnEdge});
        } else {
            // Dead end: pop and emit (tour built in reverse).
            EdgeId via = stack.back().second;
            stack.pop_back();
            if (!stack.empty())
                tour.push_back(via);
        }
    }
    std::reverse(tour.begin(), tour.end());
    return tour;
}

std::string
checkPostmanTour(const StateGraph &graph, const PostmanResult &result,
                 const std::vector<EdgeId> &tour)
{
    std::vector<uint32_t> seen(graph.numEdges(), 0);
    StateId at = graph.resetState();
    for (EdgeId e : tour) {
        if (e == resetReturnEdge) {
            at = graph.resetState();
            continue;
        }
        if (e >= graph.numEdges())
            return formatString("tour edge %u is not in the graph", e);
        if (!contains(graph.outEdges(at), e)) {
            return formatString(
                "tour discontinuity: edge %u leaves %u but walk at %u",
                e, graph.source(e), at);
        }
        at = graph.edge(e).dst;
        ++seen[e];
    }
    for (EdgeId e = 0; e < graph.numEdges(); ++e) {
        if (seen[e] != result.multiplicity[e]) {
            return formatString(
                "edge %u traversed %u times, expected %u", e, seen[e],
                result.multiplicity[e]);
        }
    }
    return "";
}

} // namespace archval::graph
