/**
 * @file
 * Golden graph fingerprints of the enumerator: each constant is the
 * graph::fingerprint of an enumeration of an HDL corpus design, the
 * PP FSM model or a built model, and pins the graph itself — ids,
 * packed states and edges in order. A change here is a change of the
 * enumerator's output. Registered under the ctest label `enum`.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "fsm/built_model.hh"
#include "graph/state_graph.hh"
#include "hdl/corpus.hh"
#include "murphi/enumerator.hh"
#include "rtl/pp_fsm_model.hh"

namespace archval
{
namespace
{

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

TEST(EnumGolden, PpFourWordLinesDualIssueInBothModes)
{
    // A mid-size PP configuration: four-word cache lines and dual
    // issue on the small preset.
    rtl::PpConfig config = rtl::PpConfig::smallPreset();
    config.lineWords = 4;
    config.dualIssue = true;
    rtl::PpFsmModel model(config);
    EXPECT_EQ(defaultFingerprint(model,
                                 murphi::EdgeRecording::FirstCondition),
              0x9631bcbe72356c38ull);
    EXPECT_EQ(defaultFingerprint(model,
                                 murphi::EdgeRecording::AllConditions),
              0x166b0389df309ffdull);
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
        murphi::Enumerator enumerator(*model, options);
        EXPECT_EQ(graph::fingerprint(enumerator.runOrThrow()), expected)
            << mode;
        // Out of core: a budget far below the table pages partitions.
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
