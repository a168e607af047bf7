/**
 * @file
 * Differential tests of the bytecode step (src/compile/): an HDL
 * model steps through its lowered bytecode, and for every reachable
 * state of every corpus design that step must emit exactly the
 * callback sequence of the base fsm::Model loop over the interpreted
 * next(). The enumerated graph must be the same at worker counts
 * {1, 2, 8}, and a design too large for the bytecode must fail
 * translation with an error result.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "compile/bytecode.hh"
#include "graph/state_graph.hh"
#include "hdl/corpus.hh"
#include "murphi/enumerator.hh"

namespace archval::compile
{
namespace
{

using murphi::EnumOptions;
using murphi::Enumerator;

/** Enumerate @p model with default options at @p threads workers. */
uint64_t
enumFingerprint(const fsm::Model &model, unsigned threads)
{
    EnumOptions options;
    options.numThreads = threads;
    Enumerator enumerator(model, options);
    return graph::fingerprint(enumerator.runOrThrow());
}

TEST(Compile, EveryCorpusDesignAllWorkerCounts)
{
    for (const auto &design : hdl::designCorpus()) {
        SCOPED_TRACE(design.name);
        auto result = hdl::translateCorpus(design);
        ASSERT_TRUE(result.ok()) << result.errorMessage();
        const fsm::Model &model = *result.value().model;
        // The single-worker graph is the one EnumGolden pins.
        const uint64_t reference = enumFingerprint(model, 1);
        for (unsigned threads : {2u, 8u}) {
            EXPECT_EQ(enumFingerprint(model, threads), reference)
                << "threads " << threads;
        }
    }
}

TEST(Compile, BytecodeStepMatchesInterpreterEverywhere)
{
    // Every reachable state: HdlModel's bytecode step must emit the
    // base loop's (code, next state, instruction count) sequence over
    // the interpreted next(), bit for bit and in the same order.
    using Emission = std::tuple<uint64_t, BitVec, unsigned>;
    auto collect = [](std::vector<Emission> &out) {
        return [&out](uint64_t code, fsm::Transition &&t) {
            out.emplace_back(code, std::move(t.next), t.instructions);
        };
    };
    for (const auto &design : hdl::designCorpus()) {
        SCOPED_TRACE(design.name);
        auto result = hdl::translateCorpus(design);
        ASSERT_TRUE(result.ok()) << result.errorMessage();
        const hdl::HdlModel &model = *result.value().model;

        Enumerator enumerator(model);
        graph::StateGraph graph = enumerator.runOrThrow();
        for (graph::StateId s = 0; s < graph.numStates(); ++s) {
            const BitVec &packed = graph.packedState(s);
            std::vector<Emission> interpreted;
            std::vector<Emission> compiled;
            model.fsm::Model::forEachTransition(packed,
                                                collect(interpreted));
            model.forEachTransition(packed, collect(compiled));
            ASSERT_FALSE(interpreted.empty()) << "state " << s;
            ASSERT_EQ(compiled, interpreted) << "state " << s;
        }
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
