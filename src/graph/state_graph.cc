#include "state_graph.hh"

#include <algorithm>

#include "support/status.hh"
#include "support/strings.hh"

namespace archval::graph
{

void
StateGraph::setWidth(size_t state_bits)
{
    if (numStates_ == 0) {
        stateBits_ = state_bits;
        stride_ = (state_bits + 63) / 64;
    } else if (state_bits != stateBits_) {
        fatal(formatString("StateGraph: a %zu-bit state added to a "
                           "graph of %zu-bit states",
                           state_bits, stateBits_));
    }
}

StateId
StateGraph::addState(const BitVec &packed)
{
    setWidth(packed.numBits());
    words_.insert(words_.end(), packed.words().begin(),
                  packed.words().end());
    return static_cast<StateId>(numStates_++);
}

void
StateGraph::addStates(size_t state_bits, size_t count,
                      std::span<const uint64_t> words)
{
    setWidth(state_bits);
    if (words.size() != count * stride_)
        panic("StateGraph::addStates: word count does not match");
    words_.insert(words_.end(), words.begin(), words.end());
    numStates_ += count;
}

EdgeId
StateGraph::addEdge(StateId src, StateId dst, uint64_t choice_code,
                    uint32_t instr_count)
{
    if (!EdgeRecord::fits(choice_code, instr_count)) {
        fatal(formatString("StateGraph: an edge of choice code %llu and "
                           "%u instructions does not fit its record "
                           "(%u-bit code, at most %llu instructions)",
                           static_cast<unsigned long long>(choice_code),
                           instr_count, EdgeRecord::codeBits,
                           static_cast<unsigned long long>(
                               EdgeRecord::maxInstrCount)));
    }
    const EdgeRecord edge(dst, static_cast<uint32_t>(choice_code),
                          instr_count);
    addRow(src, std::span<const EdgeRecord>(&edge, 1));
    return static_cast<EdgeId>(edges_.size() - 1);
}

void
StateGraph::addRow(StateId src, std::span<const EdgeRecord> row)
{
    if (src >= numStates_)
        panic("StateGraph::addRow out of range");
    for (const EdgeRecord &e : row) {
        if (e.dst() >= numStates_)
            panic("StateGraph::addRow out of range");
    }
    if (row.empty())
        return;
    // The last edge's source is the last state with a row offset.
    if (src + 1 < rowStart_.size()) {
        fatal(formatString("StateGraph: edge from state %u added "
                           "after an edge from state %zu (edges "
                           "must arrive in source order)",
                           src, rowStart_.size() - 1));
    }
    const EdgeId id = static_cast<EdgeId>(edges_.size());
    rowStart_.resize(size_t(src) + 1, id);
    edges_.insert(edges_.end(), row.begin(), row.end());
    while ((sampledSource_.size() << sampleShift) < edges_.size())
        sampledSource_.push_back(src);
}

void
StateGraph::reserveEdges(size_t total)
{
    edges_.reserve(total);
}

void
StateGraph::shrinkToFit()
{
    edges_.shrink_to_fit();
    rowStart_.shrink_to_fit();
    sampledSource_.shrink_to_fit();
    words_.shrink_to_fit();
}

StateId
StateGraph::source(EdgeId id) const
{
    if (id >= edges_.size())
        panic("StateGraph::source out of range");
    // The last state whose row starts at or before the edge (states
    // without out-edges share their offset with the next row), found
    // between the sources of the sampled edges before and after it.
    const size_t sample = id >> sampleShift;
    const size_t lo = sampledSource_[sample];
    const size_t hi = sample + 1 < sampledSource_.size()
                          ? sampledSource_[sample + 1]
                          : rowStart_.size() - 1;
    return static_cast<StateId>(
        std::upper_bound(rowStart_.begin() + lo + 1,
                         rowStart_.begin() + hi + 1, id) -
        rowStart_.begin() - 1);
}

EdgeRange
StateGraph::outEdges(StateId state) const
{
    if (state >= numStates_)
        panic("StateGraph::outEdges out of range");
    const EdgeId end = static_cast<EdgeId>(edges_.size());
    if (state >= rowStart_.size())
        return EdgeRange(end, end);
    return EdgeRange(rowStart_[state], state + 1 < rowStart_.size()
                                           ? rowStart_[state + 1]
                                           : end);
}

std::span<const uint64_t>
StateGraph::stateWords(StateId state) const
{
    if (state >= numStates_)
        panic("StateGraph: packed state out of range");
    return std::span<const uint64_t>(words_).subspan(state * stride_,
                                                     stride_);
}

BitVec
StateGraph::packedState(StateId state) const
{
    return BitVec(stateBits_, stateWords(state));
}

uint64_t
StateGraph::totalEdgeInstructions() const
{
    uint64_t total = 0;
    for (const EdgeRecord &e : edges_)
        total += e.unpack().instrCount;
    return total;
}

size_t
StateGraph::memoryBytes() const
{
    return edges_.capacity() * sizeof(EdgeRecord) +
           rowStart_.capacity() * sizeof(EdgeId) +
           sampledSource_.capacity() * sizeof(StateId) +
           words_.capacity() * sizeof(uint64_t);
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
            const EdgeRange out = graph.outEdges(frame.state);
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
    for (StateId s = 0; s < graph.numStates(); ++s)
        mix(hashPackedWords(graph.stateBits(), graph.stateWords(s)));
    mix(graph.numEdges());
    for (StateId s = 0; s < graph.numStates(); ++s) {
        for (EdgeId e : graph.outEdges(s)) {
            const Edge edge = graph.edge(e);
            mix(s);
            mix(edge.dst);
            mix(edge.choiceCode);
            mix(edge.instrCount);
        }
    }
    return h;
}

} // namespace archval::graph
