/**
 * @file
 * Differential tests of the bytecode step (src/compile/): an HDL
 * model steps through its lowered bytecode, and for every reachable
 * state of every corpus design, and of a level meter that compares
 * with `<`, `<=`, `>` and `>=`, that step must emit exactly the
 * callback sequence of the base fsm::Model loop over the interpreted
 * next(). A design too large for the bytecode must fail translation
 * with an error result.
 */

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "compile/bytecode.hh"
#include "graph/state_graph.hh"
#include "hdl/corpus.hh"
#include "hdl/translate.hh"
#include "murphi/enumerator.hh"

namespace archval::compile
{
namespace
{

using murphi::Enumerator;

/**
 * A 3-bit level meter: its next state compares the level with its
 * bounds and with two thresholds, and every compare meets a level
 * equal to its right side, so swapping `<` for `<=` (or `>` for
 * `>=`) changes a next state. No corpus design compares this way.
 */
const char *kLevelMeter = R"(
module level_meter(clk, up, down);
  input clk;
  input up;
  input down;
  parameter HI = 5;
  parameter LO = 2;
  reg [2:0] level;  // vfsm state level reset 0
  reg high;         // vfsm state high reset 0
  reg low;          // vfsm state low reset 1

  always @(posedge clk) begin
    if (up && !down && level < 3'd7)
      level <= level + 3'd1;
    else if (down && !up && level > 3'd0)
      level <= level - 3'd1;
    high <= (level >= HI);
    low <= (level <= LO);
  end
endmodule
)";

TEST(Compile, BytecodeStepMatchesInterpreterEverywhere)
{
    // Every reachable state: HdlModel's bytecode step must emit the
    // base loop's (code, next state, instruction count) sequence over
    // the interpreted next(), bit for bit and in the same order.
    using Emission =
        std::tuple<uint64_t, std::vector<uint64_t>, unsigned>;
    auto collect = [](std::vector<Emission> &out) {
        return [&out](uint64_t code, std::span<const uint64_t> next,
                      unsigned instructions) {
            out.emplace_back(
                code, std::vector<uint64_t>(next.begin(), next.end()),
                instructions);
        };
    };
    std::vector<Result<hdl::TranslateResult>> designs;
    for (const auto &design : hdl::designCorpus())
        designs.push_back(hdl::translateCorpus(design));
    designs.push_back(hdl::translateSource(kLevelMeter, "level_meter"));
    for (const Result<hdl::TranslateResult> &result : designs) {
        ASSERT_TRUE(result.ok()) << result.errorMessage();
        const hdl::HdlModel &model = *result.value().model;
        SCOPED_TRACE(model.name());

        Enumerator enumerator(model);
        graph::StateGraph graph = enumerator.runOrThrow();
        for (graph::StateId s = 0; s < graph.numStates(); ++s) {
            const std::span<const uint64_t> packed = graph.stateWords(s);
            std::vector<Emission> interpreted;
            std::vector<Emission> compiled;
            ASSERT_TRUE(model.fsm::Model::forEachTransition(
                                 packed, collect(interpreted))
                            .ok());
            ASSERT_TRUE(
                model.forEachTransition(packed, collect(compiled)).ok());
            ASSERT_FALSE(interpreted.empty()) << "state " << s;
            ASSERT_EQ(compiled, interpreted) << "state " << s;
        }
    }
}

TEST(Compile, LevelMeterGraphGolden)
{
    auto result = hdl::translateSource(kLevelMeter, "level_meter");
    ASSERT_TRUE(result.ok()) << result.errorMessage();
    const std::pair<murphi::EdgeRecording, uint64_t> golden[] = {
        {murphi::EdgeRecording::FirstCondition, 0xe2b413996afb79e0ull},
        {murphi::EdgeRecording::AllConditions, 0xec5d5903d00dff72ull},
    };
    for (const auto &[recording, expected] : golden) {
        murphi::EnumOptions options;
        options.recording = recording;
        Enumerator enumerator(*result.value().model, options);
        EXPECT_EQ(graph::fingerprint(enumerator.runOrThrow()), expected)
            << (recording == murphi::EdgeRecording::FirstCondition
                    ? "FirstCondition"
                    : "AllConditions");
    }
}

TEST(Compile, BytecodeProgramShape)
{
    auto result = hdl::translateCorpus(hdl::largestCorpusDesign());
    ASSERT_TRUE(result.ok()) << result.errorMessage();
    const hdl::HdlModel &model = *result.value().model;
    const Program &program = model.program();

    // Halt-terminated, dense registers, plausible size.
    ASSERT_FALSE(program.insns.empty());
    EXPECT_EQ(program.insns.back().op, BOp::Halt);
    EXPECT_EQ(program.nextRegs.size(), model.stateVars().size());
    EXPECT_GT(program.numRegs, 0u);
    EXPECT_LT(program.byteSize(), size_t(64) << 10);
}

TEST(Compile, BytecodeOverflowIsTranslationError)
{
    // Each XOR by a fresh constant costs the bytecode two registers,
    // so 33,000 of them overflow its 65,534-register file. That must
    // fail translation with an error result, not a later step.
    std::string source = "module big(clk);\n"
                         "  input clk;\n"
                         "  reg [31:0] s; // vfsm state s reset 0\n";
    for (int wire = 0, k = 1; wire < 1'100; ++wire) {
        const std::string name = "w" + std::to_string(wire);
        source += "  wire [31:0] " + name + ";\n  assign " + name +
                  " = s";
        for (int term = 0; term < 30; ++term)
            source += " ^ 32'd" + std::to_string(k++);
        source += ";\n";
    }
    source += "  always @(posedge clk) s <= w0;\nendmodule\n";
    auto result = hdl::translateSource(source, "big");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.errorMessage().find("65534 registers"),
              std::string::npos)
        << result.errorMessage();
}

} // namespace
} // namespace archval::compile
