#include "mutator.hh"

#include <algorithm>
#include <unordered_map>

#include "support/strings.hh"

namespace archval::fuzz
{

const char *
mutationOpName(MutationOp op)
{
    switch (op) {
    case MutationOp::Splice:
        return "splice";
    case MutationOp::TruncateExtend:
        return "truncate_extend";
    case MutationOp::EdgeFlip:
        return "edge_flip";
    case MutationOp::ClassResample:
        return "class_resample";
    default:
        return "?";
    }
}

TraceMutator::TraceMutator(const graph::StateGraph &graph,
                           uint64_t max_instructions)
    : graph_(graph), maxInstructions_(max_instructions)
{
}

std::vector<graph::StateId>
TraceMutator::stateSequence(const graph::Trace &trace) const
{
    std::vector<graph::StateId> states;
    states.reserve(trace.edges.size() + 1);
    states.push_back(graph_.resetState());
    for (graph::EdgeId e : trace.edges)
        states.push_back(graph_.edge(e).dst);
    return states;
}

void
TraceMutator::refreshAccounting(graph::Trace &trace) const
{
    trace.instructions = 0;
    for (graph::EdgeId e : trace.edges)
        trace.instructions += graph_.edge(e).instrCount;
    trace.limitTerminated = false;
}

void
TraceMutator::extendRandomly(graph::Trace &trace,
                             graph::StateId state, uint64_t max_extra,
                             Rng &rng) const
{
    uint64_t added = 0;
    while (trace.instructions < maxInstructions_ &&
           added < max_extra) {
        const graph::EdgeRange out = graph_.outEdges(state);
        if (out.empty())
            break;
        graph::EdgeId e = out[rng.index(out.size())];
        trace.edges.push_back(e);
        trace.instructions += graph_.edge(e).instrCount;
        state = graph_.edge(e).dst;
        ++added;
    }
}

Candidate
TraceMutator::mutate(const Candidate &base, const Candidate &donor,
                     Rng &rng)
{
    auto op = static_cast<MutationOp>(
        rng.index(static_cast<size_t>(MutationOp::NumOps)));
    return apply(op, base, donor, rng);
}

Candidate
TraceMutator::apply(MutationOp op, const Candidate &base,
                    const Candidate &donor, Rng &rng)
{
    switch (op) {
    case MutationOp::Splice:
        return splice(base, donor, rng);
    case MutationOp::TruncateExtend:
        return truncateExtend(base, rng);
    case MutationOp::EdgeFlip:
        return edgeFlip(base, rng);
    case MutationOp::ClassResample:
    default:
        return classResample(base, rng);
    }
}

Candidate
TraceMutator::splice(const Candidate &base, const Candidate &donor,
                     Rng &rng)
{
    if (base.trace.edges.empty() || donor.trace.edges.empty())
        return truncateExtend(base, rng);

    // Index the donor's states so a shared state can be found from
    // any cut point in the base. Keep the *last* donor position per
    // state so splices tend to pull in the donor's tail behaviour.
    std::unordered_map<graph::StateId, size_t> donor_pos;
    std::vector<graph::StateId> donor_states =
        stateSequence(donor.trace);
    for (size_t i = 0; i < donor_states.size(); ++i)
        donor_pos[donor_states[i]] = i;

    std::vector<graph::StateId> base_states =
        stateSequence(base.trace);
    // Try a few random cut points before giving up.
    for (int attempt = 0; attempt < 4; ++attempt) {
        size_t cut = rng.index(base_states.size());
        auto it = donor_pos.find(base_states[cut]);
        if (it == donor_pos.end())
            continue;
        Candidate mutant;
        mutant.vecgenSeed = base.vecgenSeed;
        mutant.trace.edges.assign(base.trace.edges.begin(),
                                  base.trace.edges.begin() + cut);
        mutant.trace.edges.insert(
            mutant.trace.edges.end(),
            donor.trace.edges.begin() + it->second,
            donor.trace.edges.end());
        refreshAccounting(mutant.trace);
        if (!mutant.trace.edges.empty())
            return mutant;
    }
    return truncateExtend(base, rng);
}

Candidate
TraceMutator::truncateExtend(const Candidate &base, Rng &rng)
{
    Candidate mutant;
    mutant.vecgenSeed = base.vecgenSeed;
    size_t cut = base.trace.edges.empty()
                     ? 0
                     : rng.index(base.trace.edges.size());
    mutant.trace.edges.assign(base.trace.edges.begin(),
                              base.trace.edges.begin() + cut);
    refreshAccounting(mutant.trace);
    graph::StateId state =
        cut == 0 ? graph_.resetState()
                 : graph_.edge(mutant.trace.edges.back()).dst;
    extendRandomly(mutant.trace, state, 64 + rng.index(192), rng);
    if (mutant.trace.edges.empty()) {
        // Sink right at reset (degenerate graph): keep the base.
        mutant.trace = base.trace;
        refreshAccounting(mutant.trace);
    }
    return mutant;
}

Candidate
TraceMutator::edgeFlip(const Candidate &base, Rng &rng)
{
    if (base.trace.edges.empty())
        return truncateExtend(base, rng);

    Candidate mutant;
    mutant.vecgenSeed = base.vecgenSeed;
    size_t flip = rng.index(base.trace.edges.size());
    mutant.trace.edges.assign(base.trace.edges.begin(),
                              base.trace.edges.begin() + flip);

    graph::EdgeId original = base.trace.edges[flip];
    graph::StateId src = graph_.edge(original).src;
    const graph::EdgeRange out = graph_.outEdges(src);
    graph::EdgeId replacement = original;
    if (out.size() > 1) {
        // Draw among the other out-edges of the same state.
        size_t draw = rng.index(out.size() - 1);
        for (graph::EdgeId e : out) {
            if (e == original)
                continue;
            if (draw == 0) {
                replacement = e;
                break;
            }
            --draw;
        }
    }
    mutant.trace.edges.push_back(replacement);

    // Re-legalize the tail: rejoin the base's suffix at the first
    // later position whose source state matches where the flip
    // landed; random-walk when no rejoin exists.
    graph::StateId landed = graph_.edge(replacement).dst;
    size_t rejoin = base.trace.edges.size();
    for (size_t i = flip + 1; i < base.trace.edges.size(); ++i) {
        if (graph_.edge(base.trace.edges[i]).src == landed) {
            rejoin = i;
            break;
        }
    }
    if (rejoin < base.trace.edges.size()) {
        mutant.trace.edges.insert(mutant.trace.edges.end(),
                                  base.trace.edges.begin() + rejoin,
                                  base.trace.edges.end());
        refreshAccounting(mutant.trace);
    } else {
        refreshAccounting(mutant.trace);
        extendRandomly(mutant.trace, landed,
                       base.trace.edges.size() - flip, rng);
    }
    return mutant;
}

Candidate
TraceMutator::classResample(const Candidate &base, Rng &rng)
{
    Candidate mutant;
    mutant.trace = base.trace;
    refreshAccounting(mutant.trace);
    mutant.vecgenSeed = rng.next();
    return mutant;
}

std::string
checkTraceValid(const graph::StateGraph &graph,
                const graph::Trace &trace)
{
    graph::StateId at = graph.resetState();
    uint64_t instructions = 0;
    for (size_t i = 0; i < trace.edges.size(); ++i) {
        graph::EdgeId e = trace.edges[i];
        if (e >= graph.numEdges())
            return formatString("edge %zu: id %u out of range", i, e);
        if (graph.edge(e).src != at)
            return formatString(
                "edge %zu: source %u != current state %u", i,
                graph.edge(e).src, at);
        at = graph.edge(e).dst;
        instructions += graph.edge(e).instrCount;
    }
    if (instructions != trace.instructions)
        return formatString("instruction total %llu != recomputed %llu",
                            (unsigned long long)trace.instructions,
                            (unsigned long long)instructions);
    return {};
}

} // namespace archval::fuzz
