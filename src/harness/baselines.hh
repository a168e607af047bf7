/**
 * @file
 * The two baselines the paper argues against (Section 1): biased
 * random stimulus and hand-written directed tests.
 *
 *  - RandomWalker produces reset-rooted random walks over the
 *    enumerated state graph (equivalently: legal random stimulus at
 *    the control interfaces). Its walks feed the same vector
 *    generator and player as tours, so coverage and bug-detection
 *    latency are compared apples to apples.
 *  - The directed suite is a set of hand-written PP assembly
 *    programs of the kind a test writer would produce, run on the
 *    core in program mode against the reference simulator.
 */

#ifndef ARCHVAL_HARNESS_BASELINES_HH
#define ARCHVAL_HARNESS_BASELINES_HH

#include <deque>
#include <string>
#include <vector>

#include "graph/state_graph.hh"
#include "graph/tour.hh"
#include "rtl/faults.hh"
#include "rtl/pp_config.hh"
#include "rtl/pp_fsm_model.hh"
#include "support/rng.hh"

namespace archval::harness
{

/**
 * Uniform random walk over the out-edges of a state graph.
 */
class RandomWalker
{
  public:
    /**
     * @param graph Graph to walk (must outlive the walker).
     * @param seed Determines the whole walk sequence.
     */
    RandomWalker(const graph::StateGraph &graph, uint64_t seed);

    /**
     * Produce a reset-rooted random walk.
     *
     * @param max_instructions Stop once this many instructions have
     *        been generated (at least one edge is always taken).
     * @param max_edges Hard cycle bound (guards instruction-free
     *        livelock regions).
     */
    graph::Trace walk(uint64_t max_instructions,
                      uint64_t max_edges = 1'000'000);

  private:
    const graph::StateGraph &graph_;
    Rng rng_;
};

/**
 * Naturalistic event probabilities for the biased-random baseline —
 * what a 1995-style random test generator would produce: mostly
 * cache hits, mostly-ready interfaces, ALU-heavy instruction mixes.
 * Under these the paper's corner-case conjunctions are genuinely
 * improbable.
 */
struct EventBias
{
    double iHit = 0.99;        ///< I-cache hit probability
    double dHit = 0.97;        ///< D-cache hit probability
    double dirty = 0.15;       ///< victim-dirty probability
    double sameLine = 0.03;    ///< conflict line-match probability
    double inboxReady = 0.98;  ///< Inbox ready probability
    double outboxReady = 0.98; ///< Outbox ready probability
    double memReply = 0.85;    ///< reply-beat probability per cycle
    double dual = 0.50;        ///< second-slot issue probability
    double branchTaken = 0.30; ///< taken-branch probability
    double aluShare = 0.65;    ///< ALU share of the instruction mix
};

/**
 * Random walk driven by biased per-event draws — the paper's
 * "randomly-generated tests" baseline. Unlike RandomWalker, which
 * picks uniformly among graph edges (and therefore hits improbable
 * corners with probability ~1/outdegree), this walker never looks at
 * the graph's structure to choose: it samples each interface event
 * at its natural rate and only uses the graph to account coverage.
 */
class BiasedWalker
{
  public:
    /**
     * @param model Enumerated PP model (canonicalizes samples).
     * @param graph The model's state graph (coverage accounting).
     * @param seed Determines the whole walk sequence.
     * @param bias Event probabilities.
     */
    BiasedWalker(const rtl::PpFsmModel &model,
                 const graph::StateGraph &graph, uint64_t seed,
                 const EventBias &bias = {});

    /** Produce a reset-rooted biased-random walk. */
    graph::Trace walk(uint64_t max_instructions,
                      uint64_t max_edges = 1'000'000);

  private:
    const rtl::PpFsmModel &model_;
    const graph::StateGraph &graph_;
    Rng rng_;
    EventBias bias_;
};

/** One hand-written directed test. */
struct DirectedTest
{
    std::string name;
    std::string description;
    std::string source;           ///< PP assembly
    std::deque<uint32_t> inbox;   ///< Inbox preload
    bool needsBranches = false;   ///< requires modelBranches
};

/** @return the built-in directed test suite. */
const std::vector<DirectedTest> &directedSuite();

/** Outcome of one directed test run. */
struct DirectedResult
{
    std::string name;
    bool ran = false;      ///< skipped when config lacks a feature
    bool diverged = false; ///< implementation != specification
    std::string diff;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
};

/**
 * Run the directed suite on the core (program mode) with @p bugs
 * injected, comparing against the reference simulator.
 */
std::vector<DirectedResult> runDirectedSuite(const rtl::PpConfig &config,
                                             const rtl::BugSet &bugs);

} // namespace archval::harness

#endif // ARCHVAL_HARNESS_BASELINES_HH
