/**
 * @file
 * Coverage-guided fuzzing subsystem tests: corpus scheduling, trace
 * mutation validity, engine feedback behaviour, campaign determinism
 * across worker threads, and CoverageTracker merge/reset.
 *
 * Budgets honour ARCHVAL_FUZZ_SMOKE=1 (set by ctest) so the whole
 * file runs in seconds under the tier-1 suite; unset the variable
 * for a longer soak.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "fuzz/campaign.hh"
#include "fuzz/corpus.hh"
#include "fuzz/engine.hh"
#include "fuzz/mutator.hh"
#include "harness/bug_hunt.hh"
#include "murphi/enumerator.hh"

namespace archval::fuzz
{
namespace
{

using rtl::BugId;
using rtl::BugSet;
using rtl::PpConfig;
using rtl::PpFsmModel;

bool
smokeMode()
{
    const char *env = std::getenv("ARCHVAL_FUZZ_SMOKE");
    return env && env[0] == '1';
}

uint64_t
engineBudget()
{
    return smokeMode() ? 6'000 : 60'000;
}

CampaignOptions
campaignOptions()
{
    CampaignOptions options;
    options.workers = 4;
    options.roundInstructions = smokeMode() ? 2'000 : 10'000;
    options.maxRounds = smokeMode() ? 3 : 8;
    options.seed = 7;
    return options;
}

class FuzzFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        config_ = new PpConfig(PpConfig::smallPreset());
        model_ = new PpFsmModel(*config_);
        murphi::Enumerator enumerator(*model_);
        graph_ = new graph::StateGraph(enumerator.runOrThrow());
        graph::TourGenerator tour_gen(*graph_);
        tours_ = new graph::Tours(tour_gen.run());
    }

    static void
    TearDownTestSuite()
    {
        delete tours_;
        delete graph_;
        delete model_;
        delete config_;
        tours_ = nullptr;
        graph_ = nullptr;
        model_ = nullptr;
        config_ = nullptr;
    }

    /** Tour trace @p i as one run: its walk with the legs spelled
     *  out, as a fuzz candidate holds it. */
    static graph::Trace
    flatTour(size_t i)
    {
        graph::Trace flat;
        for (graph::TraceCursor cursor = tours_->cursor(*graph_, i);
             cursor.next();)
            flat.edges.push_back(cursor.edge());
        flat.instructions = (*tours_)[i].instructions;
        flat.limitTerminated = (*tours_)[i].limitTerminated;
        return flat;
    }

    static PpConfig *config_;
    static PpFsmModel *model_;
    static graph::StateGraph *graph_;
    static graph::Tours *tours_;
};

PpConfig *FuzzFixture::config_ = nullptr;
PpFsmModel *FuzzFixture::model_ = nullptr;
graph::StateGraph *FuzzFixture::graph_ = nullptr;
graph::Tours *FuzzFixture::tours_ = nullptr;

TEST_F(FuzzFixture, CoverageTrackerMergeUnionsArcs)
{
    harness::CoverageTracker a(*graph_), b(*graph_);
    const graph::Trace tour = flatTour(0);
    const size_t half = tour.edges.size() / 2;

    // The back half does not start at reset: its edges are added one
    // by one.
    auto add = [&](harness::CoverageTracker &tracker, size_t from,
                   size_t to) {
        for (size_t i = from; i < to; ++i)
            tracker.addEdge(tour.edges[i],
                            graph_->edge(tour.edges[i]).instrCount);
    };
    add(a, 0, half);
    add(b, half, tour.edges.size());

    uint64_t union_size = 0;
    {
        harness::CoverageTracker both(*graph_);
        add(both, 0, tour.edges.size());
        union_size = both.coveredEdges();
    }

    uint64_t a_instr = a.instructions(), b_instr = b.instructions();
    a.merge(b);
    EXPECT_EQ(a.coveredEdges(), union_size);
    EXPECT_EQ(a.instructions(), a_instr + b_instr);

    // Merging again must not double-count arcs.
    a.merge(b);
    EXPECT_EQ(a.coveredEdges(), union_size);
}

TEST_F(FuzzFixture, CoverageTrackerResetClears)
{
    harness::CoverageTracker tracker(*graph_);
    tracker.addTrace((*tours_)[0], &tours_->routes());
    tracker.samplePoint();
    ASSERT_GT(tracker.coveredEdges(), 0u);

    tracker.reset();
    EXPECT_EQ(tracker.coveredEdges(), 0u);
    EXPECT_EQ(tracker.instructions(), 0u);
    EXPECT_EQ(tracker.cycles(), 0u);
    EXPECT_TRUE(tracker.curve().empty());
    EXPECT_DOUBLE_EQ(tracker.fraction(), 0.0);
}

TEST_F(FuzzFixture, CorpusPicksAreEnergyWeightedAndDeterministic)
{
    Corpus corpus;
    Candidate candidate;
    candidate.trace = flatTour(0);
    corpus.add(candidate, 1);
    corpus.add(candidate, 1'000'000);

    Rng rng(3);
    size_t heavy_picks = 0;
    for (int i = 0; i < 20; ++i) {
        if (corpus.pick(rng) == 1)
            ++heavy_picks;
    }
    // The heavy entry dominates even as its energy halves.
    EXPECT_GE(heavy_picks, 15u);

    // Same seed, same pick sequence (fresh corpora: picks decay
    // energy, so state must match too).
    Corpus fresh_a, fresh_b;
    for (Corpus *c : {&fresh_a, &fresh_b}) {
        c->add(candidate, 1);
        c->add(candidate, 1'000'000);
    }
    Rng rng_a(99), rng_b(99);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(fresh_a.pick(rng_a), fresh_b.pick(rng_b));
}

TEST_F(FuzzFixture, CorpusEvictsLowestEnergyPastBound)
{
    Corpus corpus(3);
    Candidate candidate;
    candidate.trace = flatTour(0);
    corpus.add(candidate, 10);
    corpus.add(candidate, 2); // victim
    corpus.add(candidate, 30);
    corpus.add(candidate, 20);
    ASSERT_EQ(corpus.size(), 3u);
    for (const CorpusEntry &entry : corpus.entries())
        EXPECT_NE(entry.energy, 2u);
}

TEST_F(FuzzFixture, EveryMutationOperatorPreservesWalkValidity)
{
    TraceMutator mutator(*graph_, 600);
    Rng rng(11);

    Candidate base, donor;
    base.trace = flatTour(0);
    donor.trace = flatTour(tours_->size() > 1 ? 1 : 0);

    for (size_t op = 0;
         op < static_cast<size_t>(MutationOp::NumOps); ++op) {
        for (int i = 0; i < 40; ++i) {
            Candidate mutant =
                mutator.apply(static_cast<MutationOp>(op), base,
                              donor, rng);
            EXPECT_EQ(checkTraceValid(*graph_, mutant.trace), "")
                << mutationOpName(static_cast<MutationOp>(op))
                << " iteration " << i;
            EXPECT_FALSE(mutant.trace.edges.empty());
        }
    }
}

TEST_F(FuzzFixture, MutantsOfMutantsStayValid)
{
    // Chained mutation is the actual fuzz-loop workload.
    TraceMutator mutator(*graph_, 600);
    Rng rng(23);
    Candidate current;
    current.trace = flatTour(0);
    for (int i = 0; i < 120; ++i) {
        current = mutator.mutate(current, current, rng);
        ASSERT_EQ(checkTraceValid(*graph_, current.trace), "")
            << "generation " << i;
    }
}

TEST_F(FuzzFixture, ClassResampleKeepsWalkChangesSeed)
{
    TraceMutator mutator(*graph_, 600);
    Rng rng(5);
    Candidate base;
    base.trace = flatTour(0);
    base.vecgenSeed = 1234;
    Candidate mutant = mutator.apply(MutationOp::ClassResample, base,
                                     base, rng);
    EXPECT_EQ(mutant.trace.edges, base.trace.edges);
    EXPECT_NE(mutant.vecgenSeed, base.vecgenSeed);
}

TEST_F(FuzzFixture, EngineIsDeterministicForFixedSeed)
{
    FuzzEngine a(*config_, *model_, *graph_, 42);
    FuzzEngine b(*config_, *model_, *graph_, 42);
    a.seedCorpus(*tours_);
    b.seedCorpus(*tours_);
    FuzzDetection da = a.run(BugSet{}, engineBudget() / 4);
    FuzzDetection db = b.run(BugSet{}, engineBudget() / 4);
    EXPECT_EQ(da.detected, db.detected);
    EXPECT_EQ(a.stats().iterations, b.stats().iterations);
    EXPECT_EQ(a.stats().instructions, b.stats().instructions);
    EXPECT_EQ(a.stats().cycles, b.stats().cycles);
    EXPECT_EQ(a.coverage().coveredEdges(),
              b.coverage().coveredEdges());
    EXPECT_EQ(a.corpus().size(), b.corpus().size());
}

TEST_F(FuzzFixture, EngineNeverDivergesBugFree)
{
    FuzzEngine engine(*config_, *model_, *graph_, 17);
    engine.seedCorpus(*tours_);
    FuzzDetection detection =
        engine.run(BugSet{}, engineBudget() / 2);
    EXPECT_FALSE(detection.detected) << detection.detail;
    EXPECT_GT(engine.stats().iterations, 0u);
}

TEST_F(FuzzFixture, EngineCoverageFeedbackGrowsCorpus)
{
    FuzzOptions options;
    options.seedTours = 1;
    options.seedWalks = 1;
    options.maxTraceInstructions = 300;
    FuzzEngine engine(*config_, *model_, *graph_, 19, options);
    engine.seedCorpus(*tours_);
    size_t seeded = engine.corpus().size();
    engine.run(BugSet{}, engineBudget() / 2);
    // The mutation loop must have admitted interesting candidates
    // and credited them to a feedback signal.
    EXPECT_GT(engine.corpus().size(), seeded);
    EXPECT_GT(engine.stats().arcNovel + engine.stats().stateNovel,
              0u);
    EXPECT_GT(engine.coverage().coveredEdges(), 0u);
}

TEST_F(FuzzFixture, EngineDetectsInjectedBug)
{
    BugSet bugs;
    bugs.set(static_cast<size_t>(BugId::Bug3ConflictAddr));
    FuzzEngine engine(*config_, *model_, *graph_, 2024);
    engine.seedCorpus(*tours_);
    FuzzDetection detection = engine.run(bugs, engineBudget());
    EXPECT_TRUE(detection.detected) << "fuzz engine missed bug3";
    EXPECT_GT(detection.instructions, 0u);
    EXPECT_FALSE(detection.detail.empty());
}

TEST_F(FuzzFixture, CampaignIsBitDeterministicForFixedSeedAndWorkers)
{
    BugSet bugs;
    bugs.set(static_cast<size_t>(BugId::Bug3ConflictAddr));
    CampaignOptions options = campaignOptions();

    CampaignRunner runner_a(*config_, *model_, *graph_, options);
    CampaignRunner runner_b(*config_, *model_, *graph_, options);
    CampaignResult a = runner_a.run(bugs, *tours_);
    CampaignResult b = runner_b.run(bugs, *tours_);

    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.detail, b.detail);
    EXPECT_EQ(a.detectionRound, b.detectionRound);
    EXPECT_EQ(a.detectionWorker, b.detectionWorker);
    EXPECT_EQ(a.totalInstructions, b.totalInstructions);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.coveredEdges, b.coveredEdges);
    EXPECT_EQ(a.corpusSize, b.corpusSize);
}

TEST_F(FuzzFixture, CampaignDetectsInjectedBug)
{
    BugSet bugs;
    bugs.set(static_cast<size_t>(BugId::Bug3ConflictAddr));
    CampaignRunner runner(*config_, *model_, *graph_,
                          campaignOptions());
    CampaignResult result = runner.run(bugs, *tours_);
    EXPECT_TRUE(result.detected) << "campaign missed bug3";
    EXPECT_GT(result.instructions, 0u);
}

TEST_F(FuzzFixture, CampaignMergesWorkerCoverage)
{
    CampaignOptions options = campaignOptions();
    CampaignRunner runner(*config_, *model_, *graph_, options);
    CampaignResult merged = runner.run(BugSet{}, *tours_);

    CampaignOptions solo = options;
    solo.workers = 1;
    CampaignRunner solo_runner(*config_, *model_, *graph_, solo);
    CampaignResult single = solo_runner.run(BugSet{}, *tours_);

    // Four workers spend ~4x the simulation and pool their feedback,
    // so merged coverage cannot trail a single worker's.
    EXPECT_GE(merged.coveredEdges, single.coveredEdges);
    EXPECT_GT(merged.totalInstructions, single.totalInstructions);
}

TEST_F(FuzzFixture, FuzzArmPlugsIntoBugHunt)
{
    vecgen::VectorGenerator generator(*model_, 42);
    std::vector<vecgen::TestTrace> vectors =
        generator.generateAll(*graph_, *tours_);
    harness::BugHunt hunt(*config_, *model_, *graph_, vectors);
    hunt.setFuzzArm(makeCampaignFuzzArm(*config_, *model_, *graph_,
                                        *tours_, campaignOptions()));
    harness::HuntResult result =
        hunt.hunt(BugId::Bug3ConflictAddr, 2'000);
    EXPECT_TRUE(result.fuzzRan);
    EXPECT_TRUE(result.fuzz.detected);
    std::string table = harness::renderHuntTable({result});
    EXPECT_NE(table.find("fuzz campaign"), std::string::npos);
}

} // namespace
} // namespace archval::fuzz
