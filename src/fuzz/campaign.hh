/**
 * @file
 * Parallel fuzz campaign: shards the coverage-guided loop across
 * std::thread workers while staying bit-deterministic for a fixed
 * (seed, worker-count) pair.
 *
 * Determinism scheme: the campaign proceeds in rounds. Within a
 * round every worker runs its own FuzzEngine — private RNG stream,
 * corpus, coverage tracker and architectural-hash set — against the
 * shared read-only model and graph, so thread scheduling cannot
 * influence any worker's results. At the round barrier the workers'
 * feedback state is exchanged in worker-index order: arc coverage is
 * OR-merged, hash sets are unioned, and every entry a worker
 * admitted is broadcast to all other corpora. Detections are
 * likewise resolved in worker-index order, making the reported
 * latency independent of which thread finished first.
 */

#ifndef ARCHVAL_FUZZ_CAMPAIGN_HH
#define ARCHVAL_FUZZ_CAMPAIGN_HH

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "fuzz/engine.hh"
#include "harness/bug_hunt.hh"

namespace archval::fuzz
{

/** Campaign tuning. */
struct CampaignOptions
{
    unsigned workers = 4;             ///< std::thread worker count
    uint64_t roundInstructions = 20'000; ///< per worker per round
    unsigned maxRounds = 8;           ///< campaign length bound
    uint64_t seed = 1;                ///< campaign master seed

    /** Cooperative cancellation: when non-null and it reads true,
     *  the campaign stops at the next round barrier with
     *  CampaignResult::cancelled set. The flag is only read. */
    const std::atomic<bool> *cancelFlag = nullptr;
};

/** Outcome of a campaign against one bug set. */
struct CampaignResult
{
    bool detected = false;
    bool cancelled = false; ///< stopped early by the cancel flag
    uint64_t instructions = 0; ///< deterministic latency (see .cc)
    uint64_t cycles = 0;
    std::string detail;
    unsigned detectionRound = 0;
    unsigned detectionWorker = 0;

    uint64_t totalInstructions = 0; ///< whole-campaign simulation
    uint64_t totalCycles = 0;
    uint64_t iterations = 0;        ///< candidates played (all workers)
    uint64_t coveredEdges = 0;      ///< merged arc coverage
    double coverageFraction = 0.0;
    size_t corpusSize = 0;          ///< merged corpus entries
};

/**
 * Runs sharded fuzz campaigns. Reusable: each run() builds fresh
 * workers from the campaign seed.
 */
class CampaignRunner
{
  public:
    /**
     * @param config Machine configuration.
     * @param model Enumerated FSM model (shared, read-only).
     * @param graph Enumerated state graph (shared, read-only).
     */
    CampaignRunner(const rtl::PpConfig &config,
                   const rtl::PpFsmModel &model,
                   const graph::StateGraph &graph,
                   CampaignOptions options = {},
                   FuzzOptions fuzz_options = {});

    /**
     * Fuzz against @p bugs, seeding every worker's corpus from
     * @p seed_tours.
     */
    CampaignResult run(const rtl::BugSet &bugs,
                       const graph::Tours &seed_tours);

  private:
    /** @return the deterministic per-worker engine seed. */
    uint64_t workerSeed(unsigned worker) const;

    rtl::PpConfig config_;
    const rtl::PpFsmModel &model_;
    const graph::StateGraph &graph_;
    CampaignOptions options_;
    FuzzOptions fuzzOptions_;
};

/**
 * Package a fuzz campaign as BugHunt's fourth stimulus arm. The
 * returned closure captures the references; they must outlive it.
 */
harness::FuzzArm
makeCampaignFuzzArm(const rtl::PpConfig &config,
                    const rtl::PpFsmModel &model,
                    const graph::StateGraph &graph,
                    const graph::Tours &seed_tours,
                    CampaignOptions options = {},
                    FuzzOptions fuzz_options = {});

} // namespace archval::fuzz

#endif // ARCHVAL_FUZZ_CAMPAIGN_HH
