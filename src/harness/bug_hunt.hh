/**
 * @file
 * Bug-detection experiments: for an injected bug, how quickly does
 * each stimulus source (transition-tour vectors, random vectors,
 * directed tests) expose it as an architectural divergence? This
 * drives the Table 2.1 reproduction and the detection-latency bench.
 */

#ifndef ARCHVAL_HARNESS_BUG_HUNT_HH
#define ARCHVAL_HARNESS_BUG_HUNT_HH

#include <functional>
#include <string>
#include <vector>

#include "harness/baselines.hh"
#include "harness/replay_engine.hh"
#include "harness/vector_player.hh"

namespace archval::harness
{

/** Detection record for one stimulus source. */
struct Detection
{
    bool detected = false;
    uint64_t instructions = 0; ///< cumulative until first divergence
    uint64_t cycles = 0;       ///< cumulative until first divergence
    std::string detail;        ///< trace/test identification + diff
};

/** Full result for one bug. */
struct HuntResult
{
    rtl::BugId bug;
    Detection tour;     ///< generated transition-tour vectors
    Detection random;   ///< biased-random stimulus (same player)
    Detection directed; ///< hand-written program suite
    Detection fuzz;     ///< coverage-guided fuzzing (optional arm)
    bool fuzzRan = false; ///< true when the fuzz arm was installed
};

/**
 * Pluggable fourth stimulus arm: a coverage-guided fuzz campaign
 * against one bug. Implemented by src/fuzz (which layers on this
 * library, hence the inversion); installed per-hunt via
 * BugHunt::setFuzzArm().
 */
using FuzzArm = std::function<Detection(rtl::BugId bug)>;

/**
 * Runs the three stimulus sources against an injected bug.
 */
class BugHunt
{
  public:
    /**
     * @param config Machine configuration.
     * @param model Enumerated FSM model (for vector generation).
     * @param graph Enumerated state graph.
     * @param tour_traces Transition-tour test traces (pre-generated).
     * @param replay Replay-engine tuning (worker count, checkpoint
     *        budget) for the tour and random arms. Results are
     *        byte-identical to the sequential player regardless.
     */
    BugHunt(const rtl::PpConfig &config, const rtl::PpFsmModel &model,
            const graph::StateGraph &graph,
            const std::vector<vecgen::TestTrace> &tour_traces,
            ReplayOptions replay = {});

    /**
     * Hunt @p bug.
     *
     * @param random_budget Instruction budget for the random source.
     * @param seed Random-walk seed.
     */
    HuntResult hunt(rtl::BugId bug, uint64_t random_budget,
                    uint64_t seed = 12345);

    /** Install (or clear) the coverage-guided fuzz arm. */
    void setFuzzArm(FuzzArm arm) { fuzzArm_ = std::move(arm); }

    /**
     * Install (or clear) cross-hunt warm rows, one per tour trace.
     * With rows installed the tour arm plays {bug-free, bug} instead
     * of just {bug}: the first hunt's bug-free donor block fills
     * every tour trace's row with its result and pins, and each
     * later hunt's donor block collapses to warm copies — the pins
     * stay alive across hunt() calls, so a triggered bug resumes
     * from a checkpoint instead of replaying the bug-free lead from
     * reset. Opt in deliberately: the first hunt pays for the donor
     * block (a second pass over the tour corpus). Detection results
     * are unchanged either way. The random arm never reads them.
     */
    void setWarmRows(std::shared_ptr<WarmRows> rows)
    {
        warmRows_ = std::move(rows);
    }

  private:
    rtl::PpConfig config_;
    const rtl::PpFsmModel &model_;
    const graph::StateGraph &graph_;
    const std::vector<vecgen::TestTrace> &tourTraces_;
    ReplayOptions replay_;
    FuzzArm fuzzArm_;
    std::shared_ptr<WarmRows> warmRows_;
};

/** Render hunt results as the bench table. */
std::string renderHuntTable(const std::vector<HuntResult> &results);

} // namespace archval::harness

#endif // ARCHVAL_HARNESS_BUG_HUNT_HH
