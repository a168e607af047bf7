/**
 * @file
 * Top-level public API: the complete methodology of Figure 3.1 in
 * one object.
 *
 *   1. FSM model         (PpFsmModel, or any fsm::Model / HdlModel)
 *   2. state enumeration (murphi::Enumerator)
 *   3. transition tours  (graph::TourGenerator)
 *   4. test vectors      (vecgen::VectorGenerator)
 *   5. simulate+compare  (harness::ReplayEngine vs pp::RefSim,
 *                         with the tour lockstep checked)
 *
 * PpValidationFlow specializes the flow for the Protocol Processor
 * with optional fault injection; exploreModel() runs steps 2-3 for
 * any model (used for HDL-translated designs).
 */

#ifndef ARCHVAL_CORE_VALIDATION_FLOW_HH
#define ARCHVAL_CORE_VALIDATION_FLOW_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/state_graph.hh"
#include "graph/tour.hh"
#include "harness/vector_player.hh"
#include "murphi/enumerator.hh"
#include "rtl/pp_fsm_model.hh"
#include "vecgen/vector_gen.hh"

namespace archval::core
{

/** Options for a full validation run. */
struct FlowOptions
{
    murphi::EnumOptions enumeration;
    graph::TourOptions tour;
    uint64_t vectorSeed = 1;
    /** Stop the simulation phase at the first divergence. */
    bool stopAtFirstDivergence = false;
};

/** Report of the simulation phase. */
struct FlowReport
{
    uint64_t tracesPlayed = 0;
    uint64_t divergingTraces = 0;
    uint64_t lockstepErrors = 0;
    uint64_t cyclesSimulated = 0;
    uint64_t instructionsSimulated = 0;
    std::vector<std::string> divergences; ///< first few, for triage

    /** @return true when any trace diverged. */
    bool bugFound() const { return divergingTraces > 0; }

    /** Render a summary block. */
    std::string render() const;
};

/**
 * The full flow for the Protocol Processor. Steps are lazy: each
 * phase runs once on first demand, so benches can time them
 * separately. As each phase ends it sets the telemetry gauges
 * flow.<phase>.rss_bytes and flow.<phase>.peak_rss_bytes (phase
 * enumerate, tours, vectors or simulate) to the process's resident
 * and peak resident set sizes.
 */
class PpValidationFlow
{
  public:
    explicit PpValidationFlow(const rtl::PpConfig &config,
                              FlowOptions options = {});
    ~PpValidationFlow();

    /** Step 1+2: the FSM model and its reachable state graph. */
    const graph::StateGraph &enumerate();

    /** Step 3: covering transition tours. */
    const graph::Tours &makeTours();

    /** Step 4: test vectors for every tour component. */
    const std::vector<vecgen::TestTrace> &makeVectors();

    /** Step 5: play all vectors against the specification with
     *  @p bugs injected into the implementation, on a ReplayEngine
     *  with one worker per hardware thread. Every trace is also
     *  checked to keep the core's control in lockstep with its
     *  tour. */
    FlowReport simulate(const rtl::BugSet &bugs = {});

    /** Convenience: run everything. */
    FlowReport run(const rtl::BugSet &bugs = {});

    /** @name Accessors for intermediate products. @{ */
    const rtl::PpFsmModel &model() const { return *model_; }
    const murphi::EnumStats &enumStats() const { return enumStats_; }
    const graph::TourStats &tourStats() const { return tourStats_; }
    const vecgen::VecGenStats &vecStats() const { return vecStats_; }
    const rtl::PpConfig &config() const { return config_; }
    /** @} */

  private:
    rtl::PpConfig config_;
    FlowOptions options_;
    std::unique_ptr<rtl::PpFsmModel> model_;
    std::optional<graph::StateGraph> graph_;
    std::optional<graph::Tours> tours_;
    std::optional<std::vector<vecgen::TestTrace>> vectors_;
    murphi::EnumStats enumStats_;
    graph::TourStats tourStats_;
    vecgen::VecGenStats vecStats_;
};

/** Result of exploring an arbitrary model (steps 2-3). */
struct ModelExploration
{
    murphi::EnumStats enumStats;
    graph::TourStats tourStats;
    graph::GraphSummary summary;

    /** Render all three blocks. */
    std::string render() const;
};

/**
 * Enumerate and tour any synchronous model (e.g. one translated from
 * HDL); verifies tour coverage internally.
 */
ModelExploration exploreModel(const fsm::Model &model,
                              murphi::EnumOptions enum_options = {},
                              graph::TourOptions tour_options = {});

} // namespace archval::core

#endif // ARCHVAL_CORE_VALIDATION_FLOW_HH
