/**
 * @file
 * End-to-end methodology tests: enumerate -> tour -> vectors ->
 * simulate-and-compare. Bug-free runs must show zero divergence and
 * perfect control lockstep with the intended tour path; each injected
 * Table 2.1 bug must be exposed by the tour vectors.
 */

#include <gtest/gtest.h>

#include "harness/baselines.hh"
#include "harness/bug_hunt.hh"
#include "harness/coverage.hh"
#include "harness/replay_engine.hh"
#include "harness/vector_player.hh"
#include "murphi/enumerator.hh"

namespace archval::harness
{
namespace
{

using rtl::BugId;
using rtl::BugSet;
using rtl::PpConfig;
using rtl::PpFsmModel;

class PlayerFixture : public ::testing::Test
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
        vecgen::VectorGenerator generator(*model_, 42);
        traces_ = new std::vector<vecgen::TestTrace>(
            generator.generateAll(*graph_, *tours_));
    }

    static void
    TearDownTestSuite()
    {
        delete traces_;
        delete tours_;
        delete graph_;
        delete model_;
        delete config_;
        traces_ = nullptr;
        tours_ = nullptr;
        graph_ = nullptr;
        model_ = nullptr;
        config_ = nullptr;
    }

    static PpConfig *config_;
    static PpFsmModel *model_;
    static graph::StateGraph *graph_;
    static graph::Tours *tours_;
    static std::vector<vecgen::TestTrace> *traces_;
};

PpConfig *PlayerFixture::config_ = nullptr;
PpFsmModel *PlayerFixture::model_ = nullptr;
graph::StateGraph *PlayerFixture::graph_ = nullptr;
graph::Tours *PlayerFixture::tours_ = nullptr;
std::vector<vecgen::TestTrace> *PlayerFixture::traces_ = nullptr;

TEST_F(PlayerFixture, BugFreeRunsNeverDiverge)
{
    VectorPlayer player(*config_);
    for (const auto &trace : *traces_) {
        PlayResult result = player.play(trace);
        EXPECT_FALSE(result.diverged)
            << "trace " << trace.traceIndex << ": " << result.diff;
        EXPECT_TRUE(result.drained)
            << "trace " << trace.traceIndex << " did not drain";
    }
}

TEST_F(PlayerFixture, ControlFollowsTourInLockstep)
{
    // The forced vectors must drive the RTL control through exactly
    // the arcs the tour prescribes — the paper's central mechanism.
    const long checked = std::min<long>(tours_->size(), 25);
    const graph::Tours tours(
        tours_->routes(),
        std::vector<graph::Trace>(tours_->begin(),
                                  tours_->begin() + checked));
    const std::vector<vecgen::TestTrace> traces(
        traces_->begin(), traces_->begin() + checked);
    const LockstepReference lockstep{*model_, *graph_, tours};
    ReplayEngine engine(*config_);
    std::vector<PlayResult> results =
        engine.playAll(traces, BugSet{}, &lockstep);
    ASSERT_EQ(results.size(), traces.size());
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].lockstepErrors, 0u) << "trace " << i;
        EXPECT_FALSE(results[i].diverged) << results[i].diff;
    }
}

TEST_F(PlayerFixture, EveryInjectedBugIsExposedByTourVectors)
{
    VectorPlayer player(*config_);
    for (size_t b = 0; b < rtl::numBugs; ++b) {
        BugSet bugs;
        bugs.set(b);
        bool detected = false;
        for (const auto &trace : *traces_) {
            PlayResult result = player.play(trace, bugs);
            if (result.diverged) {
                detected = true;
                break;
            }
        }
        EXPECT_TRUE(detected)
            << "tour vectors missed "
            << rtl::bugName(static_cast<BugId>(b)) << " ("
            << rtl::bugSummary(static_cast<BugId>(b)) << ")";
    }
}

TEST_F(PlayerFixture, RandomWalkerProducesValidWalks)
{
    RandomWalker walker(*graph_, 5);
    graph::Trace walk = walker.walk(500);
    ASSERT_FALSE(walk.edges.empty());
    // Walk continuity from reset.
    graph::StateId at = graph_->resetState();
    for (auto e : walk.edges) {
        EXPECT_EQ(graph_->source(e), at);
        at = graph_->edge(e).dst;
    }
    EXPECT_GE(walk.instructions, 500u);
}

TEST_F(PlayerFixture, RandomWalkerIsDeterministicPerSeed)
{
    // Identical seeds reproduce the walk bit-for-bit; distinct
    // seeds diverge. Checked on two graph sizes because the walker's
    // draws depend on per-state out-degrees.
    auto check = [](const graph::StateGraph &graph) {
        RandomWalker a(graph, 1234), b(graph, 1234), c(graph, 4321);
        graph::Trace wa = a.walk(2'000);
        graph::Trace wb = b.walk(2'000);
        graph::Trace wc = c.walk(2'000);
        EXPECT_EQ(wa.edges, wb.edges);
        EXPECT_EQ(wa.instructions, wb.instructions);
        EXPECT_NE(wa.edges, wc.edges);

        // A reseeded walker replays its whole sequence of walks.
        RandomWalker d(graph, 777), e(graph, 777);
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(d.walk(500).edges, e.walk(500).edges)
                << "walk " << i;
    };

    check(*graph_);

    PpConfig larger = PpConfig::smallPreset();
    larger.lineWords = 3; // deeper refill counters, larger graph
    PpFsmModel larger_model(larger);
    murphi::Enumerator enumerator(larger_model);
    graph::StateGraph larger_graph = enumerator.runOrThrow();
    ASSERT_GT(larger_graph.numStates(), graph_->numStates());
    check(larger_graph);
}

TEST_F(PlayerFixture, BiasedWalkerProducesValidWalks)
{
    BiasedWalker walker(*model_, *graph_, 31);
    graph::Trace walk = walker.walk(400);
    ASSERT_FALSE(walk.edges.empty());
    graph::StateId at = graph_->resetState();
    uint64_t instrs = 0;
    for (auto e : walk.edges) {
        EXPECT_EQ(graph_->source(e), at);
        at = graph_->edge(e).dst;
        instrs += graph_->edge(e).instrCount;
    }
    EXPECT_EQ(instrs, walk.instructions);
    EXPECT_GE(walk.instructions, 400u);
}

TEST_F(PlayerFixture, BiasedWalkerRefusesGraphOfAnotherWidth)
{
    // The walker unpacks and compares states as this model's packed
    // words; a graph of zero-width states is not one of this model's.
    graph::StateGraph structural;
    structural.addState(BitVec(0));
    EXPECT_THROW(BiasedWalker(*model_, structural, 31), FatalError);
}

TEST_F(PlayerFixture, LockstepTableRefusesGraphOfAnotherWidth)
{
    // The lockstep table unpacks each state from the graph's words,
    // so the graph must hold this model's states.
    graph::StateGraph structural;
    structural.addState(BitVec(0));
    EXPECT_THROW(VectorPlayer::expectedStates(*model_, structural),
                 FatalError);
}

TEST_F(PlayerFixture, BiasedWalkerVectorsDoNotDivergeBugFree)
{
    BiasedWalker walker(*model_, *graph_, 33);
    vecgen::VectorGenerator generator(*model_, 55);
    VectorPlayer player(*config_);
    for (int i = 0; i < 8; ++i) {
        graph::Trace walk = walker.walk(300);
        vecgen::TestTrace trace =
            generator.generate(*graph_, walk, i);
        PlayResult result = player.play(trace);
        EXPECT_FALSE(result.diverged)
            << "walk " << i << ": " << result.diff;
    }
}

TEST_F(PlayerFixture, BiasedWalkerFavorsCommonPaths)
{
    // Under naturalistic event rates a biased walk covers far fewer
    // distinct arcs per instruction than the uniform walker.
    BiasedWalker biased(*model_, *graph_, 77);
    RandomWalker uniform(*graph_, 77);
    CoverageTracker biased_cov(*graph_), uniform_cov(*graph_);
    biased_cov.addTrace(biased.walk(5'000));
    uniform_cov.addTrace(uniform.walk(5'000));
    EXPECT_LT(biased_cov.coveredEdges(), uniform_cov.coveredEdges());
}

TEST_F(PlayerFixture, RandomWalkVectorsDoNotDivergeBugFree)
{
    RandomWalker walker(*graph_, 9);
    vecgen::VectorGenerator generator(*model_, 77);
    VectorPlayer player(*config_);
    for (int i = 0; i < 10; ++i) {
        graph::Trace walk = walker.walk(300);
        vecgen::TestTrace trace =
            generator.generate(*graph_, walk, i);
        PlayResult result = player.play(trace);
        EXPECT_FALSE(result.diverged)
            << "walk " << i << ": " << result.diff;
    }
}

TEST_F(PlayerFixture, CoverageTrackerMatchesTourTotals)
{
    CoverageTracker tracker(*graph_);
    for (const auto &tour : *tours_)
        tracker.addTrace(tour, &tours_->routes());
    EXPECT_EQ(tracker.coveredEdges(), graph_->numEdges());
    EXPECT_DOUBLE_EQ(tracker.fraction(), 1.0);
}

TEST_F(PlayerFixture, RandomCoverageLagsTourCoverage)
{
    // At equal instruction budget, the tour covers more arcs — the
    // paper's efficiency claim.
    uint64_t tour_instructions = 0;
    for (const auto &tour : *tours_)
        tour_instructions += tour.instructions;

    CoverageTracker random_tracker(*graph_);
    RandomWalker walker(*graph_, 21);
    while (random_tracker.instructions() < tour_instructions) {
        graph::Trace walk = walker.walk(1'000);
        if (walk.edges.empty())
            break;
        random_tracker.addTrace(walk);
    }
    EXPECT_LT(random_tracker.coveredEdges(), graph_->numEdges());
}

TEST_F(PlayerFixture, DirectedSuitePassesBugFree)
{
    for (const auto &result :
         runDirectedSuite(*config_, BugSet{})) {
        if (result.ran) {
            EXPECT_FALSE(result.diverged)
                << result.name << ": " << result.diff;
        }
    }
}

TEST_F(PlayerFixture, DirectedSuiteRunsOnFullPreset)
{
    PpConfig full = PpConfig::fullPreset();
    for (const auto &result : runDirectedSuite(full, BugSet{})) {
        EXPECT_TRUE(result.ran) << result.name;
        EXPECT_FALSE(result.diverged)
            << result.name << ": " << result.diff;
    }
}

TEST_F(PlayerFixture, BugHuntReportsTourDetection)
{
    BugHunt hunt(*config_, *model_, *graph_, *traces_);
    HuntResult result = hunt.hunt(BugId::Bug3ConflictAddr, 5'000);
    EXPECT_TRUE(result.tour.detected) << "tour missed bug3";
    std::string table = renderHuntTable({result});
    EXPECT_NE(table.find("bug3"), std::string::npos);
}

} // namespace
} // namespace archval::harness
