/**
 * @file
 * Arc-coverage accounting over a state graph: the metric the paper's
 * methodology maximizes per simulation cycle.
 */

#ifndef ARCHVAL_HARNESS_COVERAGE_HH
#define ARCHVAL_HARNESS_COVERAGE_HH

#include <cstdint>
#include <vector>

#include "graph/state_graph.hh"
#include "graph/tour.hh"

namespace archval::harness
{

/** One point of a coverage-vs-cost curve. */
struct CoveragePoint
{
    uint64_t instructions = 0; ///< cumulative instructions simulated
    uint64_t cycles = 0;       ///< cumulative cycles simulated
    uint64_t coveredEdges = 0; ///< distinct arcs exercised so far
};

/**
 * Tracks which arcs of a graph have been exercised and samples a
 * coverage curve.
 */
class CoverageTracker
{
  public:
    /** @param graph Graph whose arcs are tracked (must outlive). */
    explicit CoverageTracker(const graph::StateGraph &graph);

    /** Record the traversal of one edge. */
    void addEdge(graph::EdgeId edge, uint32_t instr_count);

    /** Record a whole walk, expanded along @p routes (the trees its
     *  implied legs follow; a one-run walk from reset needs none). */
    void addTrace(const graph::Trace &trace,
                  const graph::Routes *routes = nullptr);

    /** Sample the current totals onto the curve. */
    void samplePoint();

    /**
     * Fold @p other into this tracker: the covered-edge sets are
     * OR-ed and the instruction/cycle totals summed. Both trackers
     * must observe the same graph. Sampled curves are per-tracker
     * and are not merged. Used to combine per-worker trackers.
     */
    void merge(const CoverageTracker &other);

    /** Clear all coverage, totals and the sampled curve. */
    void reset();

    /** @return distinct edges covered. */
    uint64_t coveredEdges() const { return coveredCount_; }

    /** @return true when @p edge has been exercised. */
    bool covered(graph::EdgeId edge) const { return covered_[edge]; }

    /** @return covered fraction in [0,1]. */
    double fraction() const;

    /** @return cumulative instructions over all recorded edges. */
    uint64_t instructions() const { return instructions_; }

    /** @return cumulative edge traversals (cycles). */
    uint64_t cycles() const { return cycles_; }

    /** @return the sampled curve. */
    const std::vector<CoveragePoint> &curve() const { return curve_; }

  private:
    const graph::StateGraph &graph_;
    std::vector<bool> covered_;
    uint64_t coveredCount_ = 0;
    uint64_t instructions_ = 0;
    uint64_t cycles_ = 0;
    std::vector<CoveragePoint> curve_;
};

} // namespace archval::harness

#endif // ARCHVAL_HARNESS_COVERAGE_HH
