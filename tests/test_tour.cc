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

/** Reset (0) fans out to three loops 0 -> 1 -> 2 -> 0,
 *  0 -> 3 -> 4 -> 0 and 0 -> 5 -> 6 -> 0, each with one chord back:
 *  the DFS covers the loops in one run, and each chord needs a leg
 *  through reset, so the tour is one trace of several runs. */
StateGraph
spokeGraph()
{
    StateGraph graph;
    for (int i = 0; i < 7; ++i)
        graph.addState(BitVec(0));
    graph.addEdge(0, 1, 0, 1);
    graph.addEdge(0, 3, 1, 1);
    graph.addEdge(0, 5, 2, 1);
    graph.addEdge(1, 2, 3, 1);
    graph.addEdge(2, 0, 4, 1);
    graph.addEdge(2, 1, 5, 2);
    graph.addEdge(3, 4, 6, 1);
    graph.addEdge(4, 0, 7, 1);
    graph.addEdge(4, 3, 8, 2);
    graph.addEdge(5, 6, 9, 1);
    graph.addEdge(6, 5, 10, 1);
    graph.addEdge(6, 0, 11, 2);
    return graph;
}

/** @return every traversal of trace @p i: (edge, state entered). */
std::vector<std::pair<EdgeId, StateId>>
expand(const StateGraph &graph, const Tours &tours, size_t i)
{
    std::vector<std::pair<EdgeId, StateId>> out;
    for (TraceCursor cursor = tours.cursor(graph, i); cursor.next();)
        out.emplace_back(cursor.edge(), cursor.state());
    return out;
}

TEST(Tour, StatsConsistentWithTraces)
{
    for (const StateGraph &graph : {ringGraph(12), spokeGraph()}) {
        TourGenerator generator(graph);
        auto traces = generator.run();
        uint64_t edges = 0, instrs = 0, longest = 0;
        for (size_t i = 0; i < traces.size(); ++i) {
            const uint64_t length = traces.cursor(graph, i).length();
            EXPECT_EQ(length, expand(graph, traces, i).size());
            edges += length;
            instrs += traces[i].instructions;
            longest = std::max<uint64_t>(longest, length);
        }
        EXPECT_EQ(generator.stats().totalEdgeTraversals, edges);
        EXPECT_EQ(generator.stats().totalInstructions, instrs);
        EXPECT_EQ(generator.stats().longestTraceEdges, longest);
        EXPECT_EQ(generator.stats().numTraces, traces.size());
    }
}

TEST(Tour, LegsAreImpliedBetweenRuns)
{
    const StateGraph graph = spokeGraph();
    TourGenerator generator(graph);
    const Tours tours = generator.run();
    ASSERT_EQ(tours.size(), 1u);
    EXPECT_EQ(checkTourCoverage(graph, tours), "");
    // The DFS runs 0 -> 1 -> 2 -> 0 -> 3 -> 4 -> 0 -> 5 -> 6 -> 5 and
    // is stuck. The leg up the in-tree (5 -> 6 -> 0) covers chord
    // 6 -> 0 and goes down the BFS tree to 2 for chord 2 -> 1; the
    // next leg (1 -> 2 -> 0, then 0 -> 3 -> 4) reaches chord 4 -> 3.
    const Trace &trace = tours[0];
    EXPECT_EQ(trace.edges,
              (std::vector<EdgeId>{0, 3, 4, 1, 6, 7, 2, 9, 10, 5, 8}));
    EXPECT_EQ(trace.runEnds, (std::vector<uint32_t>{9, 10}));
    std::vector<EdgeId> walk;
    StateId at = graph.resetState();
    for (const auto &[edge, state] : expand(graph, tours, 0)) {
        EXPECT_EQ(graph.source(edge), at);
        EXPECT_EQ(graph.edge(edge).dst, state);
        at = state;
        walk.push_back(edge);
    }
    EXPECT_EQ(walk, (std::vector<EdgeId>{0, 3, 4, 1, 6, 7, 2, 9, 10, 9,
                                         11, 0, 3, 5, 3, 4, 1, 6, 8}));
    EXPECT_EQ(trace.instructions, 22u);
    EXPECT_EQ(generator.stats().totalEdgeTraversals, walk.size());
    EXPECT_EQ(generator.stats().longestTraceEdges, walk.size());
    EXPECT_EQ(tours.memoryBytes(),
              sizeof(Trace) + 11 * sizeof(EdgeId) +
                  2 * sizeof(uint32_t) + tours.routes().memoryBytes());
}

TEST(Tour, LegCoveringItsTargetIsSpelledOut)
{
    // 0 -A-> 2 -D-> 1 -B-> 2 is stuck at 2, with 1 -C-> 0 left. The
    // leg to 1 goes up the in-tree (2 -D-> 1 -C-> 0), which covers C,
    // then down the BFS tree (0 -A-> 2 -D-> 1); the DFS from 1 then
    // takes nothing. Figure 3.3 still walked that leg, so its edges
    // are written into the run.
    StateGraph graph;
    for (int i = 0; i < 3; ++i)
        graph.addState(BitVec(0));
    const EdgeId a = graph.addEdge(0, 2, 0, 1);
    const EdgeId b = graph.addEdge(1, 2, 1, 1);
    const EdgeId c = graph.addEdge(1, 0, 2, 1);
    const EdgeId d = graph.addEdge(2, 1, 3, 1);
    TourGenerator generator(graph);
    const Tours tours = generator.run();
    ASSERT_EQ(tours.size(), 1u);
    EXPECT_EQ(checkTourCoverage(graph, tours), "");
    EXPECT_EQ(tours[0].edges, (std::vector<EdgeId>{a, d, b, d, c, a, d}));
    EXPECT_TRUE(tours[0].runEnds.empty());
    EXPECT_EQ(tours[0].instructions, 7u);
    EXPECT_EQ(generator.stats().totalEdgeTraversals, 7u);
}

TEST(Tour, CursorWithoutRoutesIsFatal)
{
    const StateGraph graph = spokeGraph();
    const Tours tours = TourGenerator(graph).run();
    ASSERT_FALSE(tours[0].runEnds.empty());
    EXPECT_THROW(TraceCursor(graph, tours[0]), FatalError);

    // One run from reset needs no routes; one starting elsewhere does.
    Trace walk;
    walk.edges = {0, 3};
    TraceCursor from_reset(graph, walk);
    EXPECT_TRUE(from_reset.next());
    EXPECT_EQ(from_reset.state(), 1u);
    walk.edges = {3, 4};
    EXPECT_THROW(TraceCursor(graph, walk), FatalError);

    // Run ends out of shape, and edges outside the graph.
    walk.edges = {0, 3, 4};
    walk.runEnds = {3};
    EXPECT_THROW(TraceCursor(graph, walk, &tours.routes()), FatalError);
    walk.runEnds = {0};
    EXPECT_THROW(TraceCursor(graph, walk, &tours.routes()), FatalError);
    walk.runEnds = {};
    walk.edges = {0, EdgeId(graph.numEdges())};
    TraceCursor bad(graph, walk);
    EXPECT_TRUE(bad.next());
    EXPECT_THROW(bad.next(), FatalError);
}

TEST(Tour, CoverageCheckerDetectsGap)
{
    auto graph = ringGraph(4);
    TourGenerator generator(graph);
    const Tours tours = generator.run();
    ASSERT_EQ(tours.size(), 1u);
    std::vector<Trace> traces = tours.traces();
    traces[0].instructions -=
        graph.edge(traces[0].edges.back()).instrCount;
    traces[0].edges.pop_back();
    EXPECT_EQ(checkTourCoverage(graph, Tours(tours.routes(), traces)),
              "edge 3 never traversed");
}

TEST(Tour, CoverageCheckerDetectsDiscontinuity)
{
    auto graph = ringGraph(4);
    std::vector<Trace> traces(1);
    traces[0].edges = {0, 2}; // skips edge 1: walk breaks at state 1
    traces[0].instructions = 2;
    EXPECT_NE(checkTourCoverage(graph, Tours(Routes(graph), traces)),
              "");

    // The same break inside one run of a multi-run trace.
    const StateGraph spokes = spokeGraph();
    const Tours tours = TourGenerator(spokes).run();
    traces = tours.traces();
    ASSERT_GE(traces[0].runEnds.size(), 1u);
    const size_t first_end = traces[0].runEnds[0];
    ASSERT_GE(first_end, 2u);
    std::swap(traces[0].edges[first_end - 2],
              traces[0].edges[first_end - 1]);
    const std::string why =
        checkTourCoverage(spokes, Tours(tours.routes(), traces));
    EXPECT_NE(why.find("departs from state"), std::string::npos) << why;
}

TEST(Tour, CoverageCheckerDetectsRunEndOutOfRange)
{
    const StateGraph graph = spokeGraph();
    const Tours tours = TourGenerator(graph).run();
    std::vector<Trace> traces = tours.traces();
    ASSERT_FALSE(traces[0].runEnds.empty());
    traces[0].runEnds.back() =
        static_cast<uint32_t>(traces[0].edges.size());
    const std::string why =
        checkTourCoverage(graph, Tours(tours.routes(), traces));
    EXPECT_NE(why.find("run end"), std::string::npos) << why;

    // Not increasing: an empty run.
    traces = tours.traces();
    traces[0].runEnds.push_back(traces[0].runEnds.back());
    EXPECT_NE(checkTourCoverage(graph, Tours(tours.routes(), traces))
                  .find("run end"),
              std::string::npos);
}

TEST(Tour, CoverageCheckerDetectsInstructionMismatch)
{
    const StateGraph graph = spokeGraph();
    const Tours tours = TourGenerator(graph).run();
    std::vector<Trace> traces = tours.traces();
    // The legs' instructions count: the runs' edges alone sum to less.
    uint64_t run_instrs = 0;
    for (EdgeId e : traces[0].edges)
        run_instrs += graph.edge(e).instrCount;
    ASSERT_LT(run_instrs, traces[0].instructions);
    traces[0].instructions += 1;
    const std::string why =
        checkTourCoverage(graph, Tours(tours.routes(), traces));
    EXPECT_NE(why.find("instructions"), std::string::npos) << why;
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
    EXPECT_THROW(graph.addRow(0, std::vector<EdgeRecord>{{1, 15, 0}}),
                 FatalError);
    EXPECT_EQ(graph.numEdges(), 4u);
    EXPECT_EQ(graph.outEdges(0).size(), 3u);
}

// --- Golden tours -------------------------------------------------------
//
// These constants pin the walks themselves: an FNV-1a hash over every
// trace's expanded length, its edge ids in walk order (legs included),
// its instruction total and its limit flag, in trace order. A change
// here is a change of the generated stimulus.

uint64_t
tourHash(const StateGraph &graph, const Tours &traces)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (value >> (byte * 8)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    mix(traces.size());
    for (size_t i = 0; i < traces.size(); ++i) {
        TraceCursor cursor = traces.cursor(graph, i);
        mix(cursor.length());
        while (cursor.next())
            mix(cursor.edge());
        mix(traces[i].instructions);
        mix(traces[i].limitTerminated);
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
    const Tours traces = generator.run();
    EXPECT_EQ(checkTourCoverage(graph, traces), "");
    return tourHash(graph, traces);
}

/** @return the cycles where trace @p i's legs and runs begin and end:
 *  per run, its leg's start, the leg's pass through reset, the run's
 *  start and its end. */
std::vector<uint64_t>
segmentBoundaries(const StateGraph &graph, const Tours &tours, size_t i)
{
    const Trace &trace = tours[i];
    const Routes &routes = tours.routes();
    std::vector<uint64_t> out;
    uint64_t at = 0;
    for (size_t run = 0; run <= trace.runEnds.size(); ++run) {
        const size_t begin = run == 0 ? 0 : trace.runEnds[run - 1];
        const size_t end = run < trace.runEnds.size() ? trace.runEnds[run]
                                                      : trace.edges.size();
        const StateId from =
            run == 0 ? graph.resetState()
                     : graph.edge(trace.edges[begin - 1]).dst;
        const StateId to = graph.source(trace.edges[begin]);
        out.push_back(at);
        at += routes.toReset().depth[from];
        out.push_back(at);
        at += routes.fromReset().depth[to];
        out.push_back(at);
        at += end - begin;
    }
    out.push_back(at);
    return out;
}

TEST(TourCursor, SeekMatchesFullReadOnPpSmallPreset)
{
    // From every run and leg boundary +-1 and every 97th cycle, a
    // seek and a read must give the suffix of a full read from 0.
    // The 1000-instruction tour's traces are read to the end from
    // every start. The unlimited tour is one 309,530-cycle trace of
    // thousands of runs, where each seek costs O(runs): there the
    // boundaries of every 37th run are sought, every start reads 512
    // cycles and every 64th reads to the end.
    rtl::PpFsmModel model(rtl::PpConfig::smallPreset());
    murphi::Enumerator enumerator(model);
    const StateGraph graph = enumerator.runOrThrow();
    for (uint64_t limit : {0ull, 1000ull}) {
        TourOptions options;
        options.maxInstructionsPerTrace = limit;
        const Tours tours = TourGenerator(graph, options).run();
        size_t multi_run = 0;
        for (size_t t = 0; t < tours.size(); ++t) {
            const auto full = expand(graph, tours, t);
            const uint64_t length = tours.cursor(graph, t).length();
            ASSERT_EQ(full.size(), length) << "trace " << t;
            multi_run += !tours[t].runEnds.empty();

            const std::vector<uint64_t> bounds =
                segmentBoundaries(graph, tours, t);
            EXPECT_EQ(bounds.back(), length);
            std::vector<uint64_t> starts;
            const size_t run_stride = limit == 0 ? 37 : 1;
            for (size_t i = 0; i < bounds.size(); ++i) {
                const uint64_t b = bounds[i];
                if ((i / 3) % run_stride != 0 && i + 1 != bounds.size())
                    continue;
                for (uint64_t d : {b - 1, b, b + 1}) {
                    if (b > 0 || d == b)
                        starts.push_back(d);
                }
            }
            for (uint64_t c = 0; c <= length; c += 97)
                starts.push_back(c);
            std::sort(starts.begin(), starts.end());
            starts.erase(std::unique(starts.begin(), starts.end()),
                         starts.end());

            TraceCursor cursor = tours.cursor(graph, t);
            for (size_t s = 0; s < starts.size(); ++s) {
                const uint64_t start = starts[s];
                const uint64_t end = limit == 0 && s % 64 != 0
                                         ? std::min(length, start + 512)
                                         : length;
                cursor.seek(start);
                ASSERT_EQ(cursor.position(), std::min(start, length));
                uint64_t c = start;
                while (c < end && cursor.next() &&
                       cursor.edge() == full[c].first &&
                       cursor.state() == full[c].second)
                    ++c;
                ASSERT_EQ(c, std::max(start, end))
                    << "trace " << t << " from " << start;
                if (end == length) {
                    ASSERT_FALSE(cursor.next());
                }
            }
        }
        EXPECT_GT(multi_run, 0u) << "limit " << limit;
    }
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
