/**
 * @file
 * Determinism suite for the enumerator: for each HDL example design
 * and the PP FSM model, runs at worker counts {1, 2, 8} must produce
 * a graph byte-identical to the single-worker run — same ids, same
 * packed states, same edges in the same order — in both
 * edge-recording modes; and golden graph fingerprints pin the output
 * itself. Registered under the ctest label `enum`.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fsm/built_model.hh"
#include "graph/state_graph.hh"
#include "hdl/corpus.hh"
#include "hdl/translate.hh"
#include "murphi/enumerator.hh"
#include "rtl/pp_fsm_model.hh"

namespace archval
{
namespace
{

/**
 * Serialize every observable byte of a graph: per state the packed
 * vector, per edge (in id order) all four fields, and the adjacency
 * lists. Two graphs with equal fingerprints are interchangeable for
 * every downstream consumer (tours, vectors, fuzzing, coverage).
 */
std::string
fingerprintBytes(const graph::StateGraph &graph)
{
    std::string bytes;
    auto put64 = [&bytes](uint64_t value) {
        for (int i = 0; i < 8; ++i)
            bytes.push_back(char(value >> (8 * i)));
    };
    put64(graph.numStates());
    put64(graph.numEdges());
    put64(graph.statesRetained());
    for (graph::StateId s = 0; s < graph.numStates(); ++s) {
        if (graph.statesRetained()) {
            const BitVec &packed = graph.packedState(s);
            put64(packed.numBits());
            bytes += packed.toString();
        }
        for (graph::EdgeId e : graph.outEdges(s))
            put64(e);
    }
    for (graph::EdgeId e = 0; e < graph.numEdges(); ++e) {
        const graph::Edge &edge = graph.edge(e);
        put64(edge.src);
        put64(edge.dst);
        put64(edge.choiceCode);
        put64(edge.instrCount);
    }
    return bytes;
}

/** Enumerate @p model and compare graphs across worker counts. */
void
expectIdenticalAcrossWorkerCounts(const fsm::Model &model,
                                  murphi::EdgeRecording recording,
                                  bool retain_states = true)
{
    murphi::EnumOptions options;
    options.recording = recording;
    options.retainStates = retain_states;

    options.numThreads = 1;
    murphi::Enumerator single(model, options);
    auto baseline = single.runOrThrow();
    const std::string expected = fingerprintBytes(baseline);
    ASSERT_GT(baseline.numStates(), 0u);

    for (unsigned threads : {1u, 2u, 8u}) {
        options.numThreads = threads;
        murphi::Enumerator parallel(model, options);
        auto graph = parallel.runOrThrow();

        // Byte-identical, and state-for-state / edge-for-edge equal.
        EXPECT_EQ(fingerprintBytes(graph), expected)
            << model.name() << " diverges at " << threads
            << " threads";
        ASSERT_EQ(graph.numStates(), baseline.numStates());
        ASSERT_EQ(graph.numEdges(), baseline.numEdges());
        for (graph::StateId s = 0; s < graph.numStates(); ++s) {
            if (retain_states) {
                ASSERT_EQ(graph.packedState(s),
                          baseline.packedState(s))
                    << "state " << s << " at " << threads
                    << " threads";
            }
            ASSERT_TRUE(std::ranges::equal(graph.outEdges(s),
                                           baseline.outEdges(s)));
        }
        for (graph::EdgeId e = 0; e < graph.numEdges(); ++e) {
            const graph::Edge &got = graph.edge(e);
            const graph::Edge &want = baseline.edge(e);
            ASSERT_EQ(got.src, want.src) << "edge " << e;
            ASSERT_EQ(got.dst, want.dst) << "edge " << e;
            ASSERT_EQ(got.choiceCode, want.choiceCode)
                << "edge " << e;
            ASSERT_EQ(got.instrCount, want.instrCount)
                << "edge " << e;
        }

        // Search-shape statistics are scheduling-independent too.
        EXPECT_EQ(parallel.stats().numStates,
                  single.stats().numStates);
        EXPECT_EQ(parallel.stats().numEdges,
                  single.stats().numEdges);
        EXPECT_EQ(parallel.stats().transitionsTried,
                  single.stats().transitionsTried);
        EXPECT_EQ(parallel.stats().transitionsValid,
                  single.stats().transitionsValid);
        ASSERT_EQ(parallel.stats().levels.size(),
                  single.stats().levels.size());
        for (size_t i = 0; i < parallel.stats().levels.size(); ++i) {
            EXPECT_EQ(parallel.stats().levels[i].frontierWidth,
                      single.stats().levels[i].frontierWidth);
            EXPECT_EQ(parallel.stats().levels[i].newStates,
                      single.stats().levels[i].newStates);
            EXPECT_EQ(parallel.stats().levels[i].newEdges,
                      single.stats().levels[i].newEdges);
        }
    }
}

void
expectIdenticalInBothModes(const fsm::Model &model)
{
    expectIdenticalAcrossWorkerCounts(
        model, murphi::EdgeRecording::FirstCondition);
    expectIdenticalAcrossWorkerCounts(
        model, murphi::EdgeRecording::AllConditions);
}

/** The HDL example designs from the end-to-end design suite. */
const char *elevator = R"(
module elevator(clk, req0, req1);
  input clk;
  input req0;
  input req1;
  reg floor;        // vfsm state floor reset 0
  reg [1:0] mode;   // vfsm state mode reset 0
  reg [1:0] timer;  // vfsm state timer reset 0
  reg pend0;        // vfsm state pend0 reset 0
  reg pend1;        // vfsm state pend1 reset 0

  wire want_here;
  wire want_there;
  assign want_here = (floor == 1'b0 && pend0) ||
                     (floor == 1'b1 && pend1);
  assign want_there = (floor == 1'b0 && pend1) ||
                      (floor == 1'b1 && pend0);

  always @(posedge clk) begin
    if (req0) pend0 <= 1'b1;
    if (req1) pend1 <= 1'b1;
    case (mode)
      2'd0: begin
        if (want_here) begin
          mode <= 2'd2;
          timer <= 2'd0;
        end else if (want_there)
          mode <= 2'd1;
      end
      2'd1: begin
        floor <= !floor;
        mode <= 2'd2;
        timer <= 2'd0;
      end
      2'd2: begin
        if (timer == 2'd1) begin
          if (floor == 1'b0) pend0 <= 1'b0;
          else pend1 <= 1'b0;
          mode <= 2'd0;
        end else
          timer <= timer + 2'd1;
      end
      default: mode <= 2'd0;
    endcase
  end
endmodule
)";

const char *creditSender = R"(
module credit_sender(clk, want_send, credit_return);
  input clk;
  input want_send;
  input credit_return;
  parameter MAX = 3;
  reg [1:0] credits;  // vfsm state credits reset 3
  wire can_send;
  assign can_send = credits != 2'd0;  // vfsm instr sent
  wire sent;
  assign sent = want_send && can_send;

  always @(posedge clk) begin
    if (sent && !credit_return)
      credits <= credits - 2'd1;
    else if (!sent && credit_return && credits != MAX)
      credits <= credits + 2'd1;
  end
endmodule
)";

TEST(EnumParallel, ElevatorIdenticalAcrossWorkerCounts)
{
    auto result = hdl::translateSource(elevator, "elevator");
    ASSERT_TRUE(result.ok()) << result.errorMessage();
    expectIdenticalInBothModes(*result.value().model);
}

TEST(EnumParallel, CreditSenderIdenticalAcrossWorkerCounts)
{
    auto result = hdl::translateSource(creditSender, "credit_sender");
    ASSERT_TRUE(result.ok()) << result.errorMessage();
    expectIdenticalInBothModes(*result.value().model);
}

TEST(EnumParallel, PpFsmModelIdenticalAcrossWorkerCounts)
{
    rtl::PpFsmModel model(rtl::PpConfig::smallPreset());
    expectIdenticalInBothModes(model);
}

TEST(EnumParallel, PpFsmModelLargerConfigIdentical)
{
    // A mid-size PP configuration by default; set ARCHVAL_ENUM_SOAK
    // to run the paper-scale full preset (adds ~10s). FirstCondition
    // only to keep the suite fast (AllConditions is covered above).
    rtl::PpConfig config = rtl::PpConfig::smallPreset();
    config.lineWords = 4;
    config.dualIssue = true;
    if (std::getenv("ARCHVAL_ENUM_SOAK"))
        config = rtl::PpConfig::fullPreset();
    rtl::PpFsmModel model(config);
    expectIdenticalAcrossWorkerCounts(
        model, murphi::EdgeRecording::FirstCondition);
}

TEST(EnumParallel, UnretainedGraphsIdenticalToo)
{
    rtl::PpFsmModel model(rtl::PpConfig::smallPreset());
    expectIdenticalAcrossWorkerCounts(
        model, murphi::EdgeRecording::FirstCondition,
        /*retain_states=*/false);
}

TEST(EnumParallel, WideShallowModelExercisesSlicing)
{
    // One root fanning out to 256 states in a single level: the
    // level barrier must assign ids in canonical order even when
    // every worker owns a disjoint slice of a single wide level.
    auto model = std::make_unique<fsm::LambdaModel>(
        "wide",
        std::vector<fsm::StateVarInfo>{{"s", 9, 0}},
        std::vector<fsm::ChoiceVarInfo>{{"c", 256}},
        [](const BitVec &state, const fsm::Choice &choice)
            -> std::optional<BitVec> {
            BitVec next(9);
            uint64_t v = state.getField(0, 9);
            next.setField(0, 9, v == 0 ? 256 + choice[0] - 255 : v);
            return next;
        });
    expectIdenticalInBothModes(*model);
}

// --- Golden fingerprints ----------------------------------------------
//
// The suites above compare configurations of the enumerator with one
// another; these constants pin the graphs themselves. Each is the
// graph::fingerprint of a default-option enumeration. A change here
// is a change of the enumerator's output, never of its schedule.

uint64_t
defaultFingerprint(const fsm::Model &model,
                   murphi::EdgeRecording recording)
{
    murphi::EnumOptions options;
    options.recording = recording;
    murphi::Enumerator enumerator(model, options);
    return graph::fingerprint(enumerator.runOrThrow());
}

struct GoldenFingerprints
{
    const char *design;
    uint64_t firstCondition;
    uint64_t allConditions;
};

const GoldenFingerprints kCorpusGolden[] = {
    {"elevator", 0x00000a548ac9efd9ull,
     0x3d54dfdf23480b71ull},
    {"credit_sender", 0xc2c6846906441a91ull,
     0x2b75100fbb7de7a8ull},
    {"dma_arbiter", 0x11c4adc531284dcdull,
     0x0cb05b0a1f026b38ull},
    {"barrel_rotator", 0x3dfa43f7c76b12b9ull,
     0x9619d86d35895319ull},
};

TEST(EnumGolden, CorpusDesignsInBothModes)
{
    ASSERT_EQ(hdl::designCorpus().size(), std::size(kCorpusGolden));
    for (size_t i = 0; i < std::size(kCorpusGolden); ++i) {
        const hdl::CorpusDesign &design = hdl::designCorpus()[i];
        const GoldenFingerprints &golden = kCorpusGolden[i];
        ASSERT_STREQ(design.name, golden.design);
        auto result = hdl::translateCorpus(design);
        ASSERT_TRUE(result.ok()) << design.name << ": "
                                 << result.errorMessage();
        const fsm::Model &model = *result.value().model;
        EXPECT_EQ(defaultFingerprint(
                      model, murphi::EdgeRecording::FirstCondition),
                  golden.firstCondition)
            << design.name << " FirstCondition";
        EXPECT_EQ(defaultFingerprint(
                      model, murphi::EdgeRecording::AllConditions),
                  golden.allConditions)
            << design.name << " AllConditions";
    }
}

TEST(EnumGolden, PpSmallPresetInBothModes)
{
    rtl::PpFsmModel model(rtl::PpConfig::smallPreset());
    EXPECT_EQ(defaultFingerprint(model,
                                 murphi::EdgeRecording::FirstCondition),
              0xca7f1934b24593b0ull);
    EXPECT_EQ(defaultFingerprint(model,
                                 murphi::EdgeRecording::AllConditions),
              0xc44702de4dd61783ull);
}

/**
 * A 100-bit built model whose fields straddle the 64-bit word
 * boundary. A 10-bit counter n, kept in the low bits, steps by one to
 * four or jumps to 5n + step; each field holds a fixed scramble of n,
 * so every state fills both words. A jump by step 3 is illegal, and
 * an edge consumes `step` instructions.
 */
std::unique_ptr<fsm::LambdaModel>
wideWordModel()
{
    auto encode = [](uint64_t n) {
        constexpr uint64_t mask30 = (uint64_t(1) << 30) - 1;
        constexpr uint64_t mask40 = (uint64_t(1) << 40) - 1;
        BitVec state(100);
        state.setField(0, 40,
                       (n | (n * 0x9e3779b97f4a7c15ull) << 10) & mask40);
        state.setField(40, 30, (n * 0x2545f491ull) & mask30);
        state.setField(70, 30, ((n ^ 0x155) * 0x5851f42dull) & mask30);
        return state;
    };
    return std::make_unique<fsm::LambdaModel>(
        "wide_words",
        std::vector<fsm::StateVarInfo>{
            {"lo", 40, 0}, {"mid", 30, 0}, {"hi", 30, 0}},
        std::vector<fsm::ChoiceVarInfo>{{"step", 4}, {"jump", 2}},
        [encode](const BitVec &state, const fsm::Choice &choice)
            -> std::optional<BitVec> {
            if (choice[1] && choice[0] == 3)
                return std::nullopt;
            const uint64_t n = state.getField(0, 10);
            return encode(choice[1] ? (n * 5 + choice[0]) % 1000
                                    : (n + choice[0] + 1) % 1000);
        },
        [](const BitVec &, const fsm::Choice &choice) -> unsigned {
            return choice[0];
        });
}

TEST(EnumGolden, WideStatesAcrossWordBoundary)
{
    auto model = wideWordModel();
    ASSERT_EQ(model->stateBits(), 100u);
    const std::pair<murphi::EdgeRecording, uint64_t> golden[] = {
        {murphi::EdgeRecording::FirstCondition, 0xa0bc0c472c1223eeull},
        {murphi::EdgeRecording::AllConditions, 0x6590f22ac3de09c2ull},
    };
    for (const auto &[recording, expected] : golden) {
        const char *mode =
            recording == murphi::EdgeRecording::FirstCondition
                ? "FirstCondition"
                : "AllConditions";
        murphi::EnumOptions options;
        options.recording = recording;
        for (unsigned threads : {1u, 2u, 8u}) {
            options.numThreads = threads;
            murphi::Enumerator enumerator(*model, options);
            EXPECT_EQ(graph::fingerprint(enumerator.runOrThrow()),
                      expected)
                << mode << " at " << threads << " threads";
        }
        // Out of core: a budget far below the table pages partitions.
        options.numThreads = 2;
        options.memoryBudgetBytes = 4u << 10;
        options.oocPartitions = 4;
        murphi::Enumerator paged(*model, options);
        EXPECT_EQ(graph::fingerprint(paged.runOrThrow()), expected)
            << mode << " paged";
        EXPECT_GT(paged.stats().pageOuts, 0u) << mode;
        EXPECT_EQ(paged.stats().spillFallbacks, 0u) << mode;
    }
}

TEST(EnumGolden, PpSpillBenchmarkModel)
{
    // The repo benchmark's pp_enum_spill model: the full preset
    // without WB-stage tracking and fetch alignment.
    rtl::PpConfig config = rtl::PpConfig::fullPreset();
    config.modelWbStage = false;
    config.modelAlignment = false;
    rtl::PpFsmModel model(config);
    murphi::Enumerator enumerator(model);
    const graph::StateGraph graph = enumerator.runOrThrow();
    EXPECT_EQ(graph.numStates(), 14304u);
    EXPECT_EQ(graph.numEdges(), 126801u);
    EXPECT_EQ(graph::fingerprint(graph), 0x3a643502a563f9aeull);
}

} // namespace
} // namespace archval
