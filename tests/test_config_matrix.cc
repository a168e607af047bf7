/**
 * @file
 * Property sweep across the PP model's configuration matrix: every
 * combination of feature flags must enumerate to a deadlock-free
 * graph with sound edge labels, admit a covering tour, generate the
 * same stimulus from the multi-threaded generateAll() as from a
 * per-trace generate() loop, and survive a bug-free vector replay
 * without divergence. This is the "the model
 * is valid at every abstraction point" property behind the
 * enum-scaling ablation.
 */

#include <gtest/gtest.h>

#include "harness/vector_player.hh"
#include "support/strings.hh"
#include "murphi/enumerator.hh"
#include "vecgen/vector_gen.hh"

namespace archval::rtl
{
namespace
{

struct MatrixPoint
{
    unsigned lineWords;
    bool dualIssue;
    bool modelBranches;
    bool modelWbStage;
    bool modelAlignment;
};

std::string
pointName(const MatrixPoint &p)
{
    return formatString("L%u%s%s%s%s", p.lineWords,
                        p.dualIssue ? "_dual" : "",
                        p.modelBranches ? "_br" : "",
                        p.modelWbStage ? "_wb" : "",
                        p.modelAlignment ? "_al" : "");
}

PpConfig
configFor(const MatrixPoint &p)
{
    PpConfig config = PpConfig::smallPreset();
    config.lineWords = p.lineWords;
    config.dualIssue = p.dualIssue;
    config.modelBranches = p.modelBranches;
    config.modelWbStage = p.modelWbStage;
    config.modelAlignment = p.modelAlignment;
    return config;
}

class ConfigMatrix : public ::testing::TestWithParam<MatrixPoint>
{
};

TEST_P(ConfigMatrix, EnumeratesToursAndReplaysClean)
{
    PpConfig config = configFor(GetParam());
    PpFsmModel model(config);

    murphi::EnumOptions options;
    options.maxStates = 400'000;
    murphi::Enumerator enumerator(model, options);
    auto graph = enumerator.runOrThrow();

    ASSERT_GT(graph.numStates(), 50u) << pointName(GetParam());

    // No deadlock: every reachable state has a successor.
    for (graph::StateId s = 0; s < graph.numStates(); ++s) {
        ASSERT_FALSE(graph.outEdges(s).empty())
            << pointName(GetParam()) << " deadlocks in "
            << model.unpack(graph.packedState(s)).toString();
    }

    // Edge labels are sound: re-applying a sample of recorded
    // conditions reproduces the recorded destinations.
    auto codec = model.makeChoiceCodec();
    size_t checked = 0;
    for (graph::StateId s = 0;
         s < graph.numStates() && checked < 2'000; s += 97) {
        for (auto e : graph.outEdges(s)) {
            const auto &edge = graph.edge(e);
            auto t = model.next(graph.packedState(s),
                                codec.decode(edge.choiceCode));
            ASSERT_TRUE(t.has_value()) << pointName(GetParam());
            ASSERT_EQ(t->next, graph.packedState(edge.dst))
                << pointName(GetParam());
            ++checked;
        }
    }

    // A covering tour exists and verifies.
    graph::TourOptions tour_options;
    tour_options.maxInstructionsPerTrace = 5'000;
    graph::TourGenerator tours(graph, tour_options);
    auto traces = tours.run();
    ASSERT_EQ(checkTourCoverage(graph, traces), "")
        << pointName(GetParam());

    // The multi-threaded generateAll() reproduces a per-trace
    // generate() loop byte for byte, figures included.
    vecgen::VectorGenerator batch_gen(model, 1234);
    vecgen::VectorGenerator loop_gen(model, 1234);
    auto vectors = batch_gen.generateAll(graph, traces);
    ASSERT_EQ(vectors.size(), traces.size()) << pointName(GetParam());
    for (size_t i = 0; i < traces.size(); ++i) {
        // Field by field, everything serializeTrace() writes (the
        // text form itself costs over a minute across the matrix).
        const vecgen::TestTrace &a = vectors[i];
        const vecgen::TestTrace b =
            loop_gen.generate(graph, traces[i], i, &traces.routes());
        ASSERT_TRUE(a.traceIndex == b.traceIndex &&
                    a.instructions == b.instructions &&
                    a.cycles == b.cycles &&
                    a.fetchStream == b.fetchStream &&
                    a.squashed == b.squashed &&
                    a.inbox == b.inbox)
            << pointName(GetParam()) << " trace " << i;
    }
    const vecgen::VecGenStats &batch = batch_gen.stats();
    const vecgen::VecGenStats &loop = loop_gen.stats();
    EXPECT_EQ(batch.traces, loop.traces) << pointName(GetParam());
    EXPECT_EQ(batch.cycles, loop.cycles) << pointName(GetParam());
    EXPECT_EQ(batch.instructions, loop.instructions)
        << pointName(GetParam());
    EXPECT_EQ(batch.squashedPackets, loop.squashedPackets)
        << pointName(GetParam());
    EXPECT_EQ(batch.constrainedLoads, loop.constrainedLoads)
        << pointName(GetParam());

    // Bug-free replay of a few traces stays clean.
    harness::VectorPlayer player(config);
    size_t to_play = std::min<size_t>(traces.size(), 3);
    for (size_t i = 0; i < to_play; ++i) {
        auto result = player.play(vectors[i]);
        EXPECT_FALSE(result.diverged)
            << pointName(GetParam()) << " trace " << i << ": "
            << result.diff;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Rtl, ConfigMatrix,
    ::testing::Values(
        MatrixPoint{1, false, false, false, false},
        MatrixPoint{2, false, false, false, false},
        MatrixPoint{2, true, false, false, false},
        MatrixPoint{2, false, true, false, false},
        MatrixPoint{2, false, false, true, false},
        MatrixPoint{2, true, true, false, false},
        MatrixPoint{2, true, false, false, true},
        MatrixPoint{2, true, true, true, true},
        MatrixPoint{3, false, false, false, false},
        MatrixPoint{4, false, false, false, false},
        MatrixPoint{4, true, true, false, false}),
    [](const ::testing::TestParamInfo<MatrixPoint> &info) {
        return pointName(info.param);
    });

} // namespace
} // namespace archval::rtl
