#include "coverage.hh"

#include "support/status.hh"

namespace archval::harness
{

CoverageTracker::CoverageTracker(const graph::StateGraph &graph)
    : graph_(graph), covered_(graph.numEdges(), false)
{
}

void
CoverageTracker::addEdge(graph::EdgeId edge, uint32_t instr_count)
{
    if (!covered_[edge]) {
        covered_[edge] = true;
        ++coveredCount_;
    }
    instructions_ += instr_count;
    ++cycles_;
}

void
CoverageTracker::addTrace(const graph::Trace &trace,
                          const graph::Routes *routes)
{
    for (graph::TraceCursor cursor(graph_, trace, routes); cursor.next();)
        addEdge(cursor.edge(), graph_.edge(cursor.edge()).instrCount);
}

void
CoverageTracker::samplePoint()
{
    curve_.push_back({instructions_, cycles_, coveredCount_});
}

void
CoverageTracker::merge(const CoverageTracker &other)
{
    if (covered_.size() != other.covered_.size())
        fatal("CoverageTracker::merge: trackers observe different "
              "graphs");
    for (size_t e = 0; e < covered_.size(); ++e) {
        if (other.covered_[e] && !covered_[e]) {
            covered_[e] = true;
            ++coveredCount_;
        }
    }
    instructions_ += other.instructions_;
    cycles_ += other.cycles_;
}

void
CoverageTracker::reset()
{
    covered_.assign(covered_.size(), false);
    coveredCount_ = 0;
    instructions_ = 0;
    cycles_ = 0;
    curve_.clear();
}

double
CoverageTracker::fraction() const
{
    return graph_.numEdges()
               ? double(coveredCount_) / double(graph_.numEdges())
               : 0.0;
}

} // namespace archval::harness
