/**
 * @file
 * Unit tests for the Chinese Postman baseline: balanced
 * augmentation, Euler tour construction, and comparison against the
 * greedy tour generator.
 */

#include <gtest/gtest.h>

#include "graph/postman.hh"
#include "graph/tour.hh"

namespace archval::graph
{
namespace
{

StateGraph
ringGraph(unsigned n)
{
    StateGraph g;
    for (unsigned i = 0; i < n; ++i)
        g.addState(BitVec(0));
    for (unsigned i = 0; i < n; ++i)
        g.addEdge(i, (i + 1) % n, i, 1);
    return g;
}

TEST(Postman, RingNeedsNoAugmentation)
{
    auto graph = ringGraph(7);
    auto result = solveResettablePostman(graph);
    for (auto m : result.multiplicity)
        EXPECT_EQ(m, 1u);
    EXPECT_EQ(result.resetReturns, 0u);
    EXPECT_EQ(result.totalTraversals, 7u);
    auto tour = hierholzerTour(graph, result);
    EXPECT_EQ(checkPostmanTour(graph, result, tour), "");
}

TEST(Postman, DeadEndUsesResetReturn)
{
    // 0 -> 1 with no way back: the postman must use a virtual return.
    StateGraph graph;
    graph.addState(BitVec(0));
    graph.addState(BitVec(0));
    graph.addEdge(0, 1, 0, 1);
    auto result = solveResettablePostman(graph);
    EXPECT_EQ(result.resetReturns, 1u);
    EXPECT_EQ(result.totalTraversals, 1u);
    auto tour = hierholzerTour(graph, result);
    EXPECT_EQ(checkPostmanTour(graph, result, tour), "");
}

TEST(Postman, ImbalancedNodeDuplicatesShortPath)
{
    // 0 -> 1 (x2 parallel edges), 1 -> 0 (x1): one edge must repeat.
    StateGraph graph;
    graph.addState(BitVec(0));
    graph.addState(BitVec(0));
    graph.addEdge(0, 1, 0, 1);
    graph.addEdge(0, 1, 1, 1);
    graph.addEdge(1, 0, 2, 1);
    auto result = solveResettablePostman(graph);
    // Either the 1->0 edge repeats or a reset return is used; both
    // cost 1, total traversals + returns = 4.
    EXPECT_EQ(result.tourLength, 4u);
    auto tour = hierholzerTour(graph, result);
    EXPECT_EQ(checkPostmanTour(graph, result, tour), "");
}

TEST(Postman, BranchyGraphStillBalances)
{
    // Reset fans out to two rings of different lengths: 0 -> 1 -> 2
    // -> 0 and 0 -> 3 -> 4 -> 5 -> 0 (edges in source order).
    StateGraph graph;
    for (int i = 0; i < 6; ++i)
        graph.addState(BitVec(0));
    graph.addEdge(0, 1, 0, 1);
    graph.addEdge(0, 3, 3, 1);
    graph.addEdge(1, 2, 1, 1);
    graph.addEdge(2, 0, 2, 1);
    graph.addEdge(3, 4, 4, 1);
    graph.addEdge(4, 5, 5, 1);
    graph.addEdge(5, 0, 6, 1);
    auto result = solveResettablePostman(graph);
    auto tour = hierholzerTour(graph, result);
    EXPECT_EQ(checkPostmanTour(graph, result, tour), "");
    EXPECT_EQ(result.totalTraversals, 7u);
    EXPECT_EQ(result.resetReturns, 0u);
}

TEST(Postman, CheckerRejectsBrokenTours)
{
    // 0 -> 1 -> 0: a tour must walk edges that leave where it is, and
    // only edges of the graph.
    StateGraph graph;
    graph.addState(BitVec(0));
    graph.addState(BitVec(0));
    graph.addEdge(0, 1, 0, 1);
    graph.addEdge(1, 0, 1, 1);
    const auto result = solveResettablePostman(graph);
    EXPECT_EQ(checkPostmanTour(graph, result, {0, 1}), "");
    EXPECT_NE(checkPostmanTour(graph, result, {1, 0})
                  .find("edge 1 leaves 1 but walk at 0"),
              std::string::npos);
    EXPECT_NE(checkPostmanTour(graph, result, {0, 2})
                  .find("tour edge 2 is not in the graph"),
              std::string::npos);
}

TEST(Postman, LowerBoundsGreedyTour)
{
    // On any graph, the postman tour length (traversals + returns) is
    // a lower bound for the greedy generator's cost (traversals +
    // trace restarts).
    StateGraph graph;
    for (int i = 0; i < 8; ++i)
        graph.addState(BitVec(0));
    // A messy graph: hub with spokes and back edges (in source
    // order).
    graph.addEdge(0, 1, 0, 1);
    graph.addEdge(0, 6, 8, 1);
    graph.addEdge(1, 2, 1, 1);
    graph.addEdge(1, 3, 3, 1);
    graph.addEdge(2, 0, 2, 1);
    graph.addEdge(2, 4, 5, 1);
    graph.addEdge(3, 1, 4, 1);
    graph.addEdge(4, 5, 6, 1);
    graph.addEdge(5, 2, 7, 1);
    graph.addEdge(6, 7, 9, 1);
    graph.addEdge(7, 6, 10, 1); // 6<->7 trap: no way back to 0

    auto postman = solveResettablePostman(graph);
    auto tour = hierholzerTour(graph, postman);
    ASSERT_EQ(checkPostmanTour(graph, postman, tour), "");

    TourGenerator generator(graph);
    auto traces = generator.run();
    ASSERT_EQ(checkTourCoverage(graph, traces), "");
    uint64_t greedy_cost = generator.stats().totalEdgeTraversals +
                           (generator.stats().numTraces - 1);
    EXPECT_LE(postman.tourLength, greedy_cost);
}

TEST(Postman, TourVisitsEveryEdgeAtLeastOnce)
{
    // A 5-ring with a self loop at 2 (edges in source order).
    StateGraph graph;
    for (unsigned i = 0; i < 5; ++i)
        graph.addState(BitVec(0));
    for (unsigned i = 0; i < 5; ++i) {
        graph.addEdge(i, (i + 1) % 5, i, 1);
        if (i == 2)
            graph.addEdge(2, 2, 99, 1);
    }
    auto result = solveResettablePostman(graph);
    auto tour = hierholzerTour(graph, result);
    EXPECT_EQ(checkPostmanTour(graph, result, tour), "");
    std::vector<bool> seen(graph.numEdges(), false);
    for (EdgeId e : tour) {
        if (e != resetReturnEdge)
            seen[e] = true;
    }
    for (bool s : seen)
        EXPECT_TRUE(s);
}

} // namespace
} // namespace archval::graph
