/**
 * @file
 * Coverage-guided mutational fuzz loop — the third stimulus family
 * next to transition tours and random walks.
 *
 * The engine repeatedly draws a corpus entry, mutates it with the
 * graph-aware TraceMutator, concretizes it through the existing
 * VectorGenerator and plays it on the RTL core against the reference
 * simulator (the same player every other stimulus source uses). A
 * candidate is kept when it is *interesting* under either feedback
 * signal:
 *
 *  - arc novelty: the walk exercises a state-graph arc no previous
 *    candidate exercised (the paper's coverage metric, now used as
 *    live feedback instead of a precomputed objective);
 *  - architectural novelty: the reference execution of the
 *    candidate's retired stream ends in an architectural state
 *    (registers, memory, outbox) never hashed before — the
 *    ProcessorFuzz CSR-transition idea mapped onto PP architectural
 *    state, which rewards new datapath behaviour even on saturated
 *    arc coverage.
 *
 * A divergence between implementation and specification during any
 * play is recorded as a bug detection, exactly as in BugHunt.
 */

#ifndef ARCHVAL_FUZZ_ENGINE_HH
#define ARCHVAL_FUZZ_ENGINE_HH

#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "fuzz/corpus.hh"
#include "fuzz/mutator.hh"
#include "harness/coverage.hh"
#include "harness/vector_player.hh"
#include "rtl/faults.hh"

namespace archval::fuzz
{

/** Fuzz-loop tuning. */
struct FuzzOptions
{
    /** Instruction-length bound for candidate traces. */
    uint64_t maxTraceInstructions = 800;

    /** Tour traces (prefixes) admitted as seeds. */
    size_t seedTours = 4;

    /** Uniform random walks admitted as seeds. */
    size_t seedWalks = 4;

    /** Corpus size bound (0 = unbounded). */
    size_t corpusMax = 256;
};

/** First divergence found by a fuzz run. */
struct FuzzDetection
{
    bool detected = false;
    uint64_t iterations = 0;   ///< candidates played until detection
    uint64_t instructions = 0; ///< cumulative core instructions
    uint64_t cycles = 0;       ///< cumulative core cycles
    std::string detail;        ///< candidate identification + diff
};

/** Aggregated loop statistics. */
struct FuzzStats
{
    uint64_t iterations = 0;    ///< candidates evaluated
    uint64_t admitted = 0;      ///< candidates kept in the corpus
    uint64_t arcNovel = 0;      ///< kept for new arc coverage
    uint64_t stateNovel = 0;    ///< kept for new architectural hash
    uint64_t instructions = 0;  ///< core instructions simulated
    uint64_t cycles = 0;        ///< core cycles simulated
};

/**
 * Single-threaded coverage-guided fuzz loop. Deterministic for a
 * fixed seed; the CampaignRunner shards several engines and merges
 * their feedback state at round barriers.
 */
class FuzzEngine
{
  public:
    /**
     * @param config Machine configuration.
     * @param model Enumerated FSM model (concretization).
     * @param graph Enumerated state graph (mutation + coverage).
     * @param seed Determines the whole engine behaviour.
     */
    FuzzEngine(const rtl::PpConfig &config,
               const rtl::PpFsmModel &model,
               const graph::StateGraph &graph, uint64_t seed,
               FuzzOptions options = {});

    /**
     * Populate the corpus: prefixes of @p tours plus fresh uniform
     * random walks, all queued for evaluation. With sharding, worker
     * @p stride engines evaluate disjoint seed subsets starting at
     * @p offset (every engine still *holds* all seeds for mutation).
     */
    void seedCorpus(const graph::Tours &tours, size_t offset = 0,
                    size_t stride = 1);

    /**
     * Evaluate one candidate (a queued seed, else a fresh mutant)
     * against @p bugs.
     * @return the detection when this candidate diverged.
     */
    std::optional<FuzzDetection> step(const rtl::BugSet &bugs);

    /**
     * Run until a divergence or @p instruction_budget simulated
     * core instructions.
     */
    FuzzDetection run(const rtl::BugSet &bugs,
                      uint64_t instruction_budget);

    /** @return accumulated statistics. */
    const FuzzStats &stats() const { return stats_; }

    /** @return the corpus (insertion order). */
    const Corpus &corpus() const { return corpus_; }

    /** @return arc-coverage feedback state. */
    const harness::CoverageTracker &coverage() const
    {
        return coverage_;
    }

    /** @name Campaign-merge hooks (round barriers). @{ */

    /** Fold another engine's arc coverage into this one. */
    void mergeCoverage(const harness::CoverageTracker &other);

    /** Fold another engine's architectural-hash set into this one. */
    void mergeSeenHashes(const std::unordered_set<uint64_t> &other);

    /** @return architectural hashes seen so far. */
    const std::unordered_set<uint64_t> &seenHashes() const
    {
        return seenHashes_;
    }

    /** Adopt corpus entries discovered by another engine (adopted
     *  entries are not re-reported by takeRoundAdds()). */
    void adoptEntries(const std::vector<CorpusEntry> &entries);

    /** @return entries this engine admitted since the last call
     *  (move-out; robust against corpus eviction). */
    std::vector<CorpusEntry> takeRoundAdds();

    /** @} */

    /** @name Seed pre-play hooks (campaign replay arm). @{ */

    /** @return seed candidates not yet evaluated, in evaluation
     *  order. Their concretized traces — and therefore their
     *  PlayResults — are pure functions of the candidates, so a
     *  campaign can batch-replay them ahead of time. */
    std::vector<Candidate> pendingSeedCandidates() const;

    /**
     * Install precomputed PlayResults for the pending seeds, aligned
     * with pendingSeedCandidates(). step() consumes them instead of
     * re-simulating; each must equal what play() of the concretized
     * candidate would return (the campaign computes them through
     * harness::ReplayEngine, whose results carry that guarantee).
     */
    void primePendingSeedResults(std::vector<harness::PlayResult> results);

    /** @} */

  private:
    /** Evaluate @p candidate; updates feedback state and stats.
     *  @p from_seed suppresses corpus re-admission of unchanged
     *  seeds. @return detection when the play diverged. */
    std::optional<FuzzDetection>
    evaluate(const Candidate &candidate, const rtl::BugSet &bugs,
             bool from_seed, const char *origin,
             const harness::PlayResult *primed = nullptr);

    /** FNV-1a hash of the reference run's final architectural
     *  state. */
    uint64_t archSignature(const vecgen::TestTrace &trace) const;

    rtl::PpConfig config_;
    const rtl::PpFsmModel &model_;
    const graph::StateGraph &graph_;
    FuzzOptions options_;
    Rng rng_;
    Corpus corpus_;
    TraceMutator mutator_;
    harness::VectorPlayer player_;
    harness::CoverageTracker coverage_;
    std::unordered_set<uint64_t> seenHashes_;
    FuzzStats stats_;

    /** Seed candidates still awaiting evaluation. */
    std::vector<Candidate> pendingSeeds_;
    size_t nextPending_ = 0;

    /** Precomputed PlayResults for pendingSeeds_[primedOffset_..]. */
    std::vector<harness::PlayResult> primedSeedResults_;
    size_t primedOffset_ = 0;

    /** Entries admitted since the last takeRoundAdds(). */
    std::vector<CorpusEntry> roundAdds_;
};

} // namespace archval::fuzz

#endif // ARCHVAL_FUZZ_ENGINE_HH
