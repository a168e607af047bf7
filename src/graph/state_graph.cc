#include "state_graph.hh"

#include <algorithm>

#include "support/status.hh"
#include "support/strings.hh"

namespace archval::graph
{

void
StateGraph::setRetention(bool retain)
{
    if (!retentionSet_) {
        retainStates_ = retain;
        retentionSet_ = true;
    } else if (retainStates_ != retain) {
        fatal(retain
                  ? "StateGraph: retained state added to a graph "
                    "built without state retention"
                  : "StateGraph: unretained state added to a graph "
                    "built with state retention");
    }
}

StateId
StateGraph::addState(BitVec packed)
{
    setRetention(true);
    StateId id = static_cast<StateId>(outEdges_.size());
    outEdges_.emplace_back();
    packedStates_.push_back(std::move(packed));
    return id;
}

StateId
StateGraph::addStateUnretained()
{
    setRetention(false);
    StateId id = static_cast<StateId>(outEdges_.size());
    outEdges_.emplace_back();
    return id;
}

void
StateGraph::addStates(std::vector<BitVec> &&packed)
{
    setRetention(true);
    outEdges_.resize(outEdges_.size() + packed.size());
    if (packedStates_.empty()) {
        packedStates_ = std::move(packed);
    } else {
        for (BitVec &state : packed)
            packedStates_.push_back(std::move(state));
    }
    packed.clear();
}

void
StateGraph::addStatesUnretained(size_t count)
{
    setRetention(false);
    outEdges_.resize(outEdges_.size() + count);
}

EdgeId
StateGraph::addEdge(StateId src, StateId dst, uint64_t choice_code,
                    uint32_t instr_count)
{
    if (src >= outEdges_.size() || dst >= outEdges_.size())
        panic("StateGraph::addEdge out of range");
    EdgeId id = static_cast<EdgeId>(edges_.size());
    edges_.push_back({src, dst, choice_code, instr_count});
    outEdges_[src].push_back(id);
    return id;
}

void
StateGraph::addEdges(const std::vector<Edge> &batch)
{
    EdgeId id = static_cast<EdgeId>(edges_.size());
    for (const Edge &e : batch) {
        if (e.src >= outEdges_.size() || e.dst >= outEdges_.size())
            panic("StateGraph::addEdges out of range");
        edges_.push_back(e);
        outEdges_[e.src].push_back(id++);
    }
}

const std::vector<EdgeId> &
StateGraph::outEdges(StateId state) const
{
    if (state >= outEdges_.size())
        panic("StateGraph::outEdges out of range");
    return outEdges_[state];
}

const BitVec &
StateGraph::packedState(StateId state) const
{
    if (!retainStates_)
        panic("StateGraph::packedState: states were not retained");
    if (state >= packedStates_.size())
        panic("StateGraph::packedState out of range");
    return packedStates_[state];
}

uint64_t
StateGraph::totalEdgeInstructions() const
{
    uint64_t total = 0;
    for (const auto &e : edges_)
        total += e.instrCount;
    return total;
}

size_t
StateGraph::memoryBytes() const
{
    size_t bytes = edges_.capacity() * sizeof(Edge);
    for (const auto &adj : outEdges_)
        bytes += adj.capacity() * sizeof(EdgeId) + sizeof(adj);
    for (const auto &s : packedStates_)
        bytes += s.memoryBytes() + sizeof(s);
    return bytes;
}

SccResult
stronglyConnectedComponents(const StateGraph &graph)
{
    const size_t n = graph.numStates();
    SccResult result;
    result.componentOf.assign(n, UINT32_MAX);

    std::vector<uint32_t> index(n, UINT32_MAX);
    std::vector<uint32_t> lowlink(n, 0);
    std::vector<bool> onStack(n, false);
    std::vector<StateId> stack;
    uint32_t next_index = 0;

    // Iterative Tarjan: frame = (state, next out-edge position).
    struct Frame
    {
        StateId state;
        size_t edgePos;
    };
    std::vector<Frame> frames;

    for (StateId root = 0; root < n; ++root) {
        if (index[root] != UINT32_MAX)
            continue;
        frames.push_back({root, 0});
        index[root] = lowlink[root] = next_index++;
        stack.push_back(root);
        onStack[root] = true;

        while (!frames.empty()) {
            Frame &frame = frames.back();
            const auto &out = graph.outEdges(frame.state);
            bool descended = false;
            while (frame.edgePos < out.size()) {
                StateId dst = graph.edge(out[frame.edgePos]).dst;
                ++frame.edgePos;
                if (index[dst] == UINT32_MAX) {
                    index[dst] = lowlink[dst] = next_index++;
                    stack.push_back(dst);
                    onStack[dst] = true;
                    frames.push_back({dst, 0});
                    descended = true;
                    break;
                } else if (onStack[dst]) {
                    lowlink[frame.state] =
                        std::min(lowlink[frame.state], index[dst]);
                }
            }
            if (descended)
                continue;

            // All out-edges processed; pop and propagate lowlink.
            StateId state = frame.state;
            frames.pop_back();
            if (!frames.empty()) {
                StateId parent = frames.back().state;
                lowlink[parent] = std::min(lowlink[parent],
                                           lowlink[state]);
            }
            if (lowlink[state] == index[state]) {
                uint32_t comp = static_cast<uint32_t>(
                    result.numComponents++);
                for (;;) {
                    StateId member = stack.back();
                    stack.pop_back();
                    onStack[member] = false;
                    result.componentOf[member] = comp;
                    if (member == state)
                        break;
                }
            }
        }
    }
    return result;
}

std::vector<bool>
reachableFrom(const StateGraph &graph, StateId start)
{
    std::vector<bool> seen(graph.numStates(), false);
    if (start >= graph.numStates())
        return seen;
    std::vector<StateId> frontier = {start};
    seen[start] = true;
    while (!frontier.empty()) {
        StateId state = frontier.back();
        frontier.pop_back();
        for (EdgeId e : graph.outEdges(state)) {
            StateId dst = graph.edge(e).dst;
            if (!seen[dst]) {
                seen[dst] = true;
                frontier.push_back(dst);
            }
        }
    }
    return seen;
}

GraphSummary
summarize(const StateGraph &graph)
{
    GraphSummary s;
    s.numStates = graph.numStates();
    s.numEdges = graph.numEdges();
    for (StateId i = 0; i < graph.numStates(); ++i) {
        size_t degree = graph.outEdges(i).size();
        s.maxOutDegree = std::max(s.maxOutDegree, degree);
        if (degree == 0)
            ++s.numSinkStates;
    }
    s.meanOutDegree =
        s.numStates ? double(s.numEdges) / double(s.numStates) : 0.0;

    auto scc = stronglyConnectedComponents(graph);
    s.numSccs = scc.numComponents;
    std::vector<size_t> sizes(scc.numComponents, 0);
    for (uint32_t comp : scc.componentOf) {
        if (comp != UINT32_MAX)
            ++sizes[comp];
    }
    for (size_t size : sizes)
        s.largestScc = std::max(s.largestScc, size);
    return s;
}

std::string
renderSummary(const GraphSummary &s)
{
    std::string out;
    out += formatString("states          %s\n",
                        withCommas(s.numStates).c_str());
    out += formatString("edges           %s\n",
                        withCommas(s.numEdges).c_str());
    out += formatString("mean out-degree %.2f\n", s.meanOutDegree);
    out += formatString("max out-degree  %zu\n", s.maxOutDegree);
    out += formatString("sink states     %zu\n", s.numSinkStates);
    out += formatString("SCCs            %s (largest %s)\n",
                        withCommas(s.numSccs).c_str(),
                        withCommas(s.largestScc).c_str());
    return out;
}

uint64_t
fingerprint(const StateGraph &graph)
{
    uint64_t h = 0xcbf29ce484222325ull; // FNV offset basis
    auto mix = [&h](uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (value >> (byte * 8)) & 0xff;
            h *= 0x100000001b3ull; // FNV prime
        }
    };
    mix(graph.numStates());
    if (graph.statesRetained()) {
        for (StateId s = 0; s < graph.numStates(); ++s)
            mix(graph.packedState(s).hash());
    }
    mix(graph.numEdges());
    for (EdgeId e = 0; e < graph.numEdges(); ++e) {
        const Edge &edge = graph.edge(e);
        mix(edge.src);
        mix(edge.dst);
        mix(edge.choiceCode);
        mix(edge.instrCount);
    }
    return h;
}

} // namespace archval::graph
