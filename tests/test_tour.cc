/**
 * @file
 * Unit tests for the Figure 3.3 tour generator: coverage, reset
 * rooting, instruction limits, trace splitting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <utility>

#include "fsm/built_model.hh"
#include "graph/state_graph.hh"
#include "graph/tour.hh"
#include "hdl/corpus.hh"
#include "murphi/enumerator.hh"
#include "rtl/pp_fsm_model.hh"
#include "support/status.hh"

namespace archval::graph
{
namespace
{

/** Build a small graph by hand. Edges get instrCount 1 by default. */
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

TEST(Tour, SingleRingIsOneTrace)
{
    auto graph = ringGraph(5);
    TourGenerator generator(graph);
    auto traces = generator.run();
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_EQ(traces[0].edges.size(), 5u);
    EXPECT_EQ(checkTourCoverage(graph, traces), "");
    EXPECT_EQ(generator.stats().totalEdgeTraversals, 5u);
    EXPECT_EQ(generator.stats().totalInstructions, 5u);
}

TEST(Tour, EmptyGraphYieldsNoTraces)
{
    StateGraph graph;
    graph.addState(BitVec(0));
    TourGenerator generator(graph);
    auto traces = generator.run();
    EXPECT_TRUE(traces.empty());
}

TEST(Tour, ResetOnlyEdgesForceMultipleTraces)
{
    // Reset (0) has two edges into a ring that never returns to 0:
    // both edges can only be covered by separate traces — the paper's
    // "edges that can only be reached from reset" lower bound.
    StateGraph graph;
    for (int i = 0; i < 3; ++i)
        graph.addState(BitVec(0));
    graph.addEdge(0, 1, 0, 1);
    graph.addEdge(0, 2, 1, 1);
    graph.addEdge(1, 2, 2, 1);
    graph.addEdge(2, 1, 3, 1);

    TourGenerator generator(graph);
    auto traces = generator.run();
    EXPECT_EQ(traces.size(), 2u);
    EXPECT_EQ(checkTourCoverage(graph, traces), "");
}

TEST(Tour, BfsBridgesDisconnectedCoverage)
{
    // Two loops joined at reset; DFS exhausts one loop, BFS must
    // route back through covered edges to reach the other.
    StateGraph graph;
    for (int i = 0; i < 5; ++i)
        graph.addState(BitVec(0));
    // Loop A: 0 -> 1 -> 0; loop B: 0 -> 2 -> 3 -> 4 -> 0 (edges are
    // added in source order).
    graph.addEdge(0, 1, 0, 1);
    graph.addEdge(0, 2, 2, 1);
    graph.addEdge(1, 0, 1, 1);
    graph.addEdge(2, 3, 3, 1);
    graph.addEdge(3, 4, 4, 1);
    graph.addEdge(4, 0, 5, 1);

    TourGenerator generator(graph);
    auto traces = generator.run();
    EXPECT_EQ(traces.size(), 1u);
    EXPECT_EQ(checkTourCoverage(graph, traces), "");
}

TEST(Tour, RevisitsStatesWithRemainingEdges)
{
    // Diamond with parallel edges: 0->1 (x2), 1->0 (x2).
    StateGraph graph;
    graph.addState(BitVec(0));
    graph.addState(BitVec(0));
    graph.addEdge(0, 1, 0, 1);
    graph.addEdge(0, 1, 1, 1);
    graph.addEdge(1, 0, 2, 1);
    graph.addEdge(1, 0, 3, 1);

    TourGenerator generator(graph);
    auto traces = generator.run();
    EXPECT_EQ(traces.size(), 1u);
    EXPECT_EQ(traces[0].edges.size(), 4u);
    EXPECT_EQ(checkTourCoverage(graph, traces), "");
}

TEST(Tour, InstructionLimitSplitsTraces)
{
    auto graph = ringGraph(30);
    TourOptions options;
    options.maxInstructionsPerTrace = 10;
    TourGenerator generator(graph, options);
    auto traces = generator.run();
    EXPECT_GT(traces.size(), 1u);
    // The limit is approximate (a trace may exceed it by its
    // reset-connecting prefix plus one edge) but every limited trace
    // must have reached it, and each trace must make progress.
    for (const auto &t : traces) {
        if (t.limitTerminated) {
            EXPECT_GE(t.instructions, 10u);
        }
        EXPECT_FALSE(t.edges.empty());
    }
    EXPECT_EQ(checkTourCoverage(graph, traces), "");
    EXPECT_GT(generator.stats().tracesTerminatedByLimit, 0u);
}

TEST(Tour, LimitCountsInstructionsNotEdges)
{
    // Ring where only every third edge carries an instruction: the
    // limit should allow ~3x the edges.
    StateGraph graph;
    const unsigned n = 30;
    for (unsigned i = 0; i < n; ++i)
        graph.addState(BitVec(0));
    for (unsigned i = 0; i < n; ++i)
        graph.addEdge(i, (i + 1) % n, i, i % 3 == 0 ? 1 : 0);

    TourOptions options;
    options.maxInstructionsPerTrace = 5;
    TourGenerator generator(graph, options);
    auto traces = generator.run();
    EXPECT_EQ(checkTourCoverage(graph, traces), "");
    EXPECT_GT(traces.size(), 1u);
    // Zero-instruction edges must not count toward the limit: the
    // first trace walks 5 instruction-carrying edges, which in this
    // ring means well over 5 edges traversed.
    EXPECT_GT(traces[0].edges.size(), 5u);
    EXPECT_EQ(traces[0].instructions, 5u);
}

TEST(Tour, StatsConsistentWithTraces)
{
    auto graph = ringGraph(12);
    TourGenerator generator(graph);
    auto traces = generator.run();
    uint64_t edges = 0, instrs = 0, longest = 0;
    for (const auto &t : traces) {
        edges += t.edges.size();
        instrs += t.instructions;
        longest = std::max<uint64_t>(longest, t.edges.size());
    }
    EXPECT_EQ(generator.stats().totalEdgeTraversals, edges);
    EXPECT_EQ(generator.stats().totalInstructions, instrs);
    EXPECT_EQ(generator.stats().longestTraceEdges, longest);
    EXPECT_EQ(generator.stats().numTraces, traces.size());
}

TEST(Tour, CoverageCheckerDetectsGap)
{
    auto graph = ringGraph(4);
    TourGenerator generator(graph);
    auto traces = generator.run();
    ASSERT_EQ(traces.size(), 1u);
    traces[0].instructions -=
        graph.edge(traces[0].edges.back()).instrCount;
    traces[0].edges.pop_back();
    EXPECT_NE(checkTourCoverage(graph, traces), "");
}

TEST(Tour, CoverageCheckerDetectsDiscontinuity)
{
    auto graph = ringGraph(4);
    std::vector<Trace> traces(1);
    traces[0].edges = {0, 2}; // skips edge 1: walk breaks at state 1
    traces[0].instructions = 2;
    EXPECT_NE(checkTourCoverage(graph, traces), "");
}

TEST(Tour, WorksOnEnumeratedModel)
{
    // End-to-end: enumerate a counter model, tour it, verify.
    fsm::LambdaModel model(
        "counter",
        std::vector<fsm::StateVarInfo>{{"count", 5, 0}},
        std::vector<fsm::ChoiceVarInfo>{{"delta", 3}},
        [](const BitVec &state, const fsm::Choice &choice)
            -> std::optional<BitVec> {
            BitVec next(5);
            next.setField(0, 5,
                          (state.getField(0, 5) + choice[0]) & 31);
            return next;
        },
        [](const BitVec &, const fsm::Choice &choice) -> unsigned {
            return choice[0] > 0 ? 1 : 0;
        });
    murphi::Enumerator enumerator(model);
    auto graph = enumerator.runOrThrow();
    TourGenerator generator(graph);
    auto traces = generator.run();
    EXPECT_EQ(checkTourCoverage(graph, traces), "");
    EXPECT_GE(generator.stats().totalEdgeTraversals, graph.numEdges());
}

TEST(Tour, OutEdgesKeepInsertionOrderWithinASource)
{
    StateGraph graph;
    for (int i = 0; i < 3; ++i)
        graph.addState(BitVec(0));
    const EdgeId a = graph.addEdge(0, 2, 5, 1);
    const EdgeId b = graph.addEdge(0, 1, 7, 0);
    const EdgeId c = graph.addEdge(0, 2, 9, 2);
    graph.addEdge(2, 0, 11, 1);
    const std::vector<EdgeId> out(graph.outEdges(0).begin(),
                                  graph.outEdges(0).end());
    EXPECT_EQ(out, (std::vector<EdgeId>{a, b, c}));
    EXPECT_EQ(graph.edge(out[0]).choiceCode, 5u);
    EXPECT_EQ(graph.edge(out[1]).choiceCode, 7u);
    EXPECT_EQ(graph.edge(out[2]).choiceCode, 9u);
    EXPECT_TRUE(graph.outEdges(1).empty());
    EXPECT_EQ(graph.outEdges(2).size(), 1u);

    // Edges are stored in source order: going back to an earlier
    // source is rejected, and the graph is left as it was.
    EXPECT_THROW(graph.addEdge(1, 0, 13, 0), FatalError);
    EXPECT_THROW(graph.addEdges(std::vector<Edge>{{0, 1, 15, 0}}),
                 FatalError);
    EXPECT_EQ(graph.numEdges(), 4u);
    EXPECT_EQ(graph.outEdges(0).size(), 3u);
}

// --- Golden tours -------------------------------------------------------
//
// These constants pin the traces themselves: an FNV-1a hash over every
// trace's edge ids, instruction total and limit flag, in trace order.
// A change here is a change of the generated stimulus.

uint64_t
tourHash(const std::vector<Trace> &traces)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (value >> (byte * 8)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    mix(traces.size());
    for (const Trace &trace : traces) {
        mix(trace.edges.size());
        for (EdgeId e : trace.edges)
            mix(e);
        mix(trace.instructions);
        mix(trace.limitTerminated);
    }
    return h;
}

uint64_t
goldenTourHash(const fsm::Model &model, uint64_t limit)
{
    murphi::Enumerator enumerator(model);
    const StateGraph graph = enumerator.runOrThrow();
    TourOptions options;
    options.maxInstructionsPerTrace = limit;
    TourGenerator generator(graph, options);
    const std::vector<Trace> traces = generator.run();
    EXPECT_EQ(checkTourCoverage(graph, traces), "");
    return tourHash(traces);
}

TEST(TourGolden, PpSmallPresetAtTwoLimits)
{
    rtl::PpFsmModel model(rtl::PpConfig::smallPreset());
    EXPECT_EQ(goldenTourHash(model, 0), 0x8cb4955d34c7d9baull);
    EXPECT_EQ(goldenTourHash(model, 1000), 0xdf7b958bcb47fcc5ull);
}

TEST(TourGolden, CorpusDesigns)
{
    const std::pair<const char *, uint64_t> golden[] = {
        {"elevator", 0x72bb01e4724e99a0ull},
        {"credit_sender", 0xe88f701be58e61ccull},
        {"dma_arbiter", 0x2b6d9e544e260ff4ull},
        {"barrel_rotator", 0x3c5bc5aefc3c2e04ull},
    };
    ASSERT_EQ(hdl::designCorpus().size(), std::size(golden));
    for (size_t i = 0; i < std::size(golden); ++i) {
        const hdl::CorpusDesign &design = hdl::designCorpus()[i];
        ASSERT_STREQ(design.name, golden[i].first);
        auto result = hdl::translateCorpus(design);
        ASSERT_TRUE(result.ok()) << design.name << ": "
                                 << result.errorMessage();
        EXPECT_EQ(goldenTourHash(*result.value().model, 0),
                  golden[i].second)
            << design.name;
    }
}

TEST(GraphAnalysis, SccOnRing)
{
    auto graph = ringGraph(6);
    auto scc = stronglyConnectedComponents(graph);
    EXPECT_EQ(scc.numComponents, 1u);
}

TEST(GraphAnalysis, SccSeparatesDag)
{
    StateGraph graph;
    for (int i = 0; i < 3; ++i)
        graph.addState(BitVec(0));
    graph.addEdge(0, 1, 0, 0);
    graph.addEdge(1, 2, 0, 0);
    auto scc = stronglyConnectedComponents(graph);
    EXPECT_EQ(scc.numComponents, 3u);
}

TEST(GraphAnalysis, ReachabilityFromReset)
{
    StateGraph graph;
    for (int i = 0; i < 4; ++i)
        graph.addState(BitVec(0));
    graph.addEdge(0, 1, 0, 0);
    graph.addEdge(2, 3, 0, 0); // island
    auto reach = reachableFrom(graph, 0);
    EXPECT_TRUE(reach[0]);
    EXPECT_TRUE(reach[1]);
    EXPECT_FALSE(reach[2]);
    EXPECT_FALSE(reach[3]);
}

TEST(GraphAnalysis, SummaryCounts)
{
    auto graph = ringGraph(6);
    auto summary = summarize(graph);
    EXPECT_EQ(summary.numStates, 6u);
    EXPECT_EQ(summary.numEdges, 6u);
    EXPECT_EQ(summary.maxOutDegree, 1u);
    EXPECT_EQ(summary.numSinkStates, 0u);
    EXPECT_EQ(summary.largestScc, 6u);
}

} // namespace
} // namespace archval::graph
