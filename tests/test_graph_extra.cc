/**
 * @file
 * Additional graph-layer tests: state-graph bookkeeping, summaries,
 * SCC structure of enumerated models, and the postman baseline on a
 * real enumerated graph (not just hand-built ones).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/postman.hh"
#include "graph/state_graph.hh"
#include "graph/tour.hh"
#include "murphi/enumerator.hh"
#include "rtl/pp_fsm_model.hh"
#include "support/status.hh"

namespace archval::graph
{
namespace
{

TEST(StateGraph, AddStateAndEdgeBookkeeping)
{
    StateGraph g;
    BitVec a(4), b(4);
    b.setField(0, 4, 9);
    StateId s0 = g.addState(a);
    StateId s1 = g.addState(b);
    EXPECT_EQ(s0, 0u);
    EXPECT_EQ(s1, 1u);
    EXPECT_EQ(g.stateBits(), 4u);
    EXPECT_EQ(g.packedState(1).getField(0, 4), 9u);

    EdgeId e = g.addEdge(s0, s1, 77, 2);
    EXPECT_EQ(g.source(e), s0);
    EXPECT_EQ(g.edge(e).dst, s1);
    EXPECT_EQ(g.edge(e).choiceCode, 77u);
    EXPECT_EQ(g.edge(e).instrCount, 2u);
    EXPECT_EQ(g.outEdges(s0).size(), 1u);
    EXPECT_TRUE(g.outEdges(s1).empty());
    EXPECT_EQ(g.totalEdgeInstructions(), 2u);
    EXPECT_GT(g.memoryBytes(), 0u);
}

TEST(StateGraph, RetentionTrackedByFlagNotContents)
{
    // A zero-bit packed state is still a state the graph holds: a
    // structural graph is a graph of zero-width states.
    StateGraph g;
    g.addState(BitVec(0));
    g.addStates(0, 2, {});
    EXPECT_EQ(g.numStates(), 3u);
    EXPECT_EQ(g.stateBits(), 0u);
    EXPECT_EQ(g.packedState(0).numBits(), 0u);
    EXPECT_TRUE(g.stateWords(2).empty());
}

TEST(StateGraph, MixedRetentionRejected)
{
    // A 4-bit graph and a zero-width graph each refuse the other's
    // states, one at a time or in bulk.
    StateGraph g;
    g.addState(BitVec(4));
    EXPECT_THROW(g.addState(BitVec(0)), FatalError);
    EXPECT_THROW(g.addStates(0, 2, {}), FatalError);

    StateGraph u;
    u.addState(BitVec(0));
    EXPECT_THROW(u.addState(BitVec(4)), FatalError);
    const std::vector<uint64_t> bulk(1, 0);
    EXPECT_THROW(u.addStates(4, 1, bulk), FatalError);
    EXPECT_EQ(g.numStates(), 1u);
    EXPECT_EQ(u.numStates(), 1u);
}

TEST(StateGraph, FirstRetainedStateFixesTheWidth)
{
    StateGraph g;
    g.addState(BitVec(4));
    EXPECT_EQ(g.stateBits(), 4u);
    EXPECT_THROW(g.addState(BitVec(5)), FatalError);
    const std::vector<uint64_t> bulk(2, 0);
    EXPECT_THROW(g.addStates(70, 1, bulk), FatalError);
    EXPECT_EQ(g.numStates(), 1u);
}

TEST(StateGraph, BulkInsertionMatchesIncremental)
{
    StateGraph bulk;
    const std::vector<uint64_t> states = {0, 1, 2, 3};
    bulk.addStates(4, states.size(), states);
    // Rows of states 0, 1 and 2; state 3 has none.
    const std::vector<std::vector<EdgeRecord>> rows = {
        {{1, 5, 1}, {2, 7, 2}}, {{2, 6, 0}}, {{3, 8, 0}}};
    bulk.reserveEdges(4);
    for (StateId s = 0; s < rows.size(); ++s)
        bulk.addRow(s, rows[s]);
    bulk.shrinkToFit();
    // Four edges, three row offsets, one sampled source and four
    // one-word states.
    EXPECT_EQ(bulk.memoryBytes(), 4 * sizeof(EdgeRecord) +
                                      3 * sizeof(EdgeId) +
                                      1 * sizeof(StateId) +
                                      4 * sizeof(uint64_t));

    StateGraph one;
    for (uint64_t i = 0; i < 4; ++i) {
        BitVec v(4);
        v.setField(0, 4, i);
        one.addState(v);
    }
    for (StateId s = 0; s < rows.size(); ++s) {
        for (const EdgeRecord &r : rows[s]) {
            const Edge e = r.unpack();
            one.addEdge(s, e.dst, e.choiceCode, e.instrCount);
        }
    }

    ASSERT_EQ(bulk.numStates(), one.numStates());
    ASSERT_EQ(bulk.numEdges(), one.numEdges());
    for (StateId s = 0; s < bulk.numStates(); ++s) {
        EXPECT_EQ(bulk.packedState(s), one.packedState(s));
        EXPECT_TRUE(std::ranges::equal(bulk.outEdges(s), one.outEdges(s)));
    }
    for (EdgeId e = 0; e < bulk.numEdges(); ++e) {
        EXPECT_EQ(bulk.source(e), one.source(e));
        EXPECT_EQ(bulk.edge(e).dst, one.edge(e).dst);
        EXPECT_EQ(bulk.edge(e).choiceCode, one.edge(e).choiceCode);
        EXPECT_EQ(bulk.edge(e).instrCount, one.edge(e).instrCount);
    }
}

/** Seven zero-width states with out-edges only from states 1, 4 and
 *  5: edges 0-2 leave state 1, edge 3 leaves state 4 and edges 4-5
 *  leave state 5; states 0, 2, 3 and 6 have none. */
StateGraph
sparseRowsGraph()
{
    StateGraph g;
    for (int i = 0; i < 7; ++i)
        g.addState(BitVec(0));
    g.addEdge(1, 2, 10, 1);
    g.addEdge(1, 4, 11, 0);
    g.addEdge(1, 1, 12, 2);
    g.addEdge(4, 5, 13, 0);
    g.addEdge(5, 0, 14, 1);
    g.addEdge(5, 6, 15, 3);
    return g;
}

TEST(StateGraph, SourceOfTheFirstAndLastEdgeOfARow)
{
    const StateGraph g = sparseRowsGraph();
    ASSERT_EQ(*g.outEdges(1).begin(), 0u);
    ASSERT_EQ(g.outEdges(1).size(), 3u);
    EXPECT_EQ(g.source(0), 1u);
    EXPECT_EQ(g.source(1), 1u);
    EXPECT_EQ(g.source(2), 1u);
}

TEST(StateGraph, SourceSkipsStatesWithoutOutEdges)
{
    // State 0 before the first row, states 2 and 3 between two rows.
    const StateGraph g = sparseRowsGraph();
    for (StateId s : {0u, 2u, 3u, 6u})
        EXPECT_TRUE(g.outEdges(s).empty()) << "state " << s;
    EXPECT_EQ(g.source(0), 1u);
    EXPECT_EQ(g.source(3), 4u);
    EXPECT_EQ(g.source(4), 5u);
    // Every edge's source is the state whose row holds it.
    for (StateId s = 0; s < g.numStates(); ++s) {
        for (EdgeId e : g.outEdges(s)) {
            EXPECT_EQ(g.source(e), s) << "edge " << e;
            EXPECT_TRUE(contains(g.outEdges(s), e));
        }
    }
    EXPECT_FALSE(contains(g.outEdges(2), 3));
    EXPECT_FALSE(contains(g.outEdges(4), 2));
    EXPECT_FALSE(contains(g.outEdges(4), 4));
}

TEST(StateGraph, SourceOfTheGraphsLastEdge)
{
    // The last edge's row is followed by a state without out-edges.
    const StateGraph g = sparseRowsGraph();
    ASSERT_EQ(g.numEdges(), 6u);
    EXPECT_EQ(g.source(5), 5u);
    EXPECT_EQ(g.edge(5).dst, 6u);
    EXPECT_EQ(g.edge(5).choiceCode, 15u);
    EXPECT_EQ(g.edge(5).instrCount, 3u);
}

TEST(StateGraph, SourceAcrossSampledRows)
{
    // 400 states of out-degree s % 8 (a quarter of them without
    // out-edges) give 1,400 edges: source() must agree with the
    // state walk on every edge, across the sampled edges too.
    StateGraph g;
    for (int i = 0; i < 400; ++i)
        g.addState(BitVec(0));
    for (StateId s = 0; s < 400; ++s) {
        for (StateId k = 0; k < s % 8; ++k)
            g.addEdge(s, (s + k) % 400, k, 0);
    }
    ASSERT_EQ(g.numEdges(), 1400u);
    for (StateId s = 0; s < g.numStates(); ++s) {
        for (EdgeId e : g.outEdges(s))
            ASSERT_EQ(g.source(e), s) << "edge " << e;
    }
}

TEST(StateGraph, RecordLimitsAreFatal)
{
    // An edge is 8 bytes: the choice code has 24 bits and the
    // instruction count 8. At the limits both read back; past them
    // the edge is refused, never truncated, and the graph unchanged.
    static_assert(sizeof(EdgeRecord) == 8);
    StateGraph g;
    g.addState(BitVec(0));
    g.addState(BitVec(0));
    const uint64_t max_code = (uint64_t(1) << 24) - 1;
    const EdgeId e = g.addEdge(0, 1, max_code, 255);
    EXPECT_EQ(g.edge(e).choiceCode, max_code);
    EXPECT_EQ(g.edge(e).instrCount, 255u);
    EXPECT_THROW(g.addEdge(1, 0, max_code + 1, 0), FatalError);
    EXPECT_THROW(g.addEdge(1, 0, 0, 256), FatalError);
    EXPECT_EQ(g.numEdges(), 1u);
    EXPECT_TRUE(g.outEdges(1).empty());
}

TEST(StateGraph, ParallelEdgesPreserved)
{
    StateGraph g;
    g.addState(BitVec(0));
    g.addState(BitVec(0));
    g.addEdge(0, 1, 0, 0);
    g.addEdge(0, 1, 1, 0);
    g.addEdge(0, 1, 2, 0);
    EXPECT_EQ(g.numEdges(), 3u);
    EXPECT_EQ(g.outEdges(0).size(), 3u);
}

TEST(StateGraph, SelfLoopsCount)
{
    StateGraph g;
    g.addState(BitVec(0));
    g.addEdge(0, 0, 0, 1);
    auto summary = summarize(g);
    EXPECT_EQ(summary.numSccs, 1u);
    EXPECT_EQ(summary.numSinkStates, 0u);
    EXPECT_DOUBLE_EQ(summary.meanOutDegree, 1.0);
}

TEST(StateGraph, SummaryRenderHasRows)
{
    StateGraph g;
    g.addState(BitVec(0));
    std::string text = renderSummary(summarize(g));
    EXPECT_NE(text.find("states"), std::string::npos);
    EXPECT_NE(text.find("SCCs"), std::string::npos);
}

class EnumeratedGraphFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        rtl::PpConfig config = rtl::PpConfig::smallPreset();
        config.lineWords = 1; // keep the postman solve cheap
        model_ = new rtl::PpFsmModel(config);
        murphi::Enumerator enumerator(*model_);
        graph_ = new StateGraph(enumerator.runOrThrow());
    }

    static void
    TearDownTestSuite()
    {
        delete graph_;
        delete model_;
        graph_ = nullptr;
        model_ = nullptr;
    }

    static rtl::PpFsmModel *model_;
    static StateGraph *graph_;
};

rtl::PpFsmModel *EnumeratedGraphFixture::model_ = nullptr;
StateGraph *EnumeratedGraphFixture::graph_ = nullptr;

TEST_F(EnumeratedGraphFixture, EverythingReachableFromReset)
{
    auto reach = reachableFrom(*graph_, graph_->resetState());
    for (StateId s = 0; s < graph_->numStates(); ++s)
        EXPECT_TRUE(reach[s]) << "state " << s;
}

TEST_F(EnumeratedGraphFixture, ControlGraphIsOneBigScc)
{
    // The PP control always drains back to quiescence, so the
    // enumerated graph collapses into a single strongly-connected
    // component (this is why one unlimited trace suffices).
    auto summary = summarize(*graph_);
    EXPECT_EQ(summary.largestScc, graph_->numStates());
    EXPECT_EQ(summary.numSinkStates, 0u);
}

TEST_F(EnumeratedGraphFixture, PostmanSolvesEnumeratedGraph)
{
    auto result = solveResettablePostman(*graph_);
    auto tour = hierholzerTour(*graph_, result);
    EXPECT_EQ(checkPostmanTour(*graph_, result, tour), "");
    // Lower bound sanity: at least every edge once.
    EXPECT_GE(result.totalTraversals, graph_->numEdges());
}

TEST_F(EnumeratedGraphFixture, PostmanNoWorseThanGreedy)
{
    auto postman = solveResettablePostman(*graph_);
    TourGenerator generator(*graph_);
    auto traces = generator.run();
    ASSERT_EQ(checkTourCoverage(*graph_, traces), "");
    uint64_t greedy_cost = generator.stats().totalEdgeTraversals +
                           (generator.stats().numTraces - 1);
    EXPECT_LE(postman.tourLength, greedy_cost);
}

TEST_F(EnumeratedGraphFixture, TourDeterministicAcrossRuns)
{
    TourGenerator a(*graph_), b(*graph_);
    auto ta = a.run();
    auto tb = b.run();
    ASSERT_EQ(ta.size(), tb.size());
    for (size_t i = 0; i < ta.size(); ++i) {
        EXPECT_EQ(ta[i].edges, tb[i].edges) << "trace " << i;
        EXPECT_EQ(ta[i].runEnds, tb[i].runEnds) << "trace " << i;
    }
}

TEST_F(EnumeratedGraphFixture, LimitMonotonicity)
{
    // Tighter limits never reduce the trace count.
    uint64_t previous = 0;
    for (uint64_t limit : {0ull, 50'000ull, 5'000ull, 500ull}) {
        TourOptions options;
        options.maxInstructionsPerTrace = limit;
        TourGenerator generator(*graph_, options);
        auto traces = generator.run();
        ASSERT_EQ(checkTourCoverage(*graph_, traces), "");
        EXPECT_GE(traces.size(), previous);
        previous = traces.size();
    }
}

} // namespace
} // namespace archval::graph
