/**
 * @file
 * Tests for the cycle-accurate PP core in program mode: architectural
 * equivalence against the reference simulator on directed programs
 * and on randomized differential sweeps, cache behaviour, stall
 * accounting, and the halt protocol.
 */

#include <gtest/gtest.h>

#include "pp/assembler.hh"
#include "pp/ref_sim.hh"
#include "rtl/pp_core.hh"
#include "support/rng.hh"
#include "support/strings.hh"

namespace archval::rtl
{
namespace
{

using pp::ArchState;
using pp::RefSim;
using pp::StopReason;

std::vector<uint32_t>
mustAssemble(const std::string &text)
{
    auto result = pp::assemble(text);
    EXPECT_TRUE(result.ok()) << result.errorMessage();
    return result.value();
}

/** Run a program on both machines and return the diff ("" = equal). */
std::string
differential(const std::vector<uint32_t> &program,
             const std::deque<uint32_t> &inbox = {},
             const PpConfig &config = PpConfig::smallPreset(),
             uint64_t max_cycles = 200'000)
{
    RefSim ref(config.machine);
    ref.loadProgram(program);
    ref.setInbox(inbox);
    ref.run();

    PpCore core(config, CoreMode::Program);
    core.loadProgram(program);
    core.setInbox(inbox);
    core.run(max_cycles);
    EXPECT_TRUE(core.halted()) << "core did not halt";

    return ref.archState().diff(core.archState());
}

TEST(PpCore, LineWordsBeyondTheCountersIsFatal)
{
    PpConfig config = PpConfig::smallPreset();
    config.lineWords = PpConfig::maxLineWords + 1;
    EXPECT_THROW(PpCore(config, CoreMode::Vector), FatalError);
    config.lineWords = 0;
    EXPECT_THROW(PpCore(config, CoreMode::Program), FatalError);
}

TEST(PpCore, StepFromRecordedControlIsVectorModeOnly)
{
    PpCore core(PpConfig::smallPreset(), CoreMode::Program);
    EXPECT_THROW(core.stepRecorded(0, ControlAnswer{}), FatalError);
}

TEST(PpCore, AluProgramMatchesRef)
{
    EXPECT_EQ(differential(mustAssemble(R"(
        addi r1, r0, 100
        addi r2, r0, 23
        add r3, r1, r2
        sub r4, r1, r2
        xor r5, r3, r4
        slt r6, r4, r3
        halt
    )")), "");
}

TEST(PpCore, LoadStoreProgramMatchesRef)
{
    EXPECT_EQ(differential(mustAssemble(R"(
        addi r1, r0, 0x55
        addi r2, r0, 64
        sw r1, 0(r2)
        lw r3, 0(r2)
        addi r4, r3, 1
        sw r4, 4(r2)
        lw r5, 4(r2)
        halt
    )")), "");
}

TEST(PpCore, StoreLoadSameAddressConflictPath)
{
    // Load immediately after a store to the same line: exercises the
    // conflict stall and the drain-before-load ordering.
    EXPECT_EQ(differential(mustAssemble(R"(
        addi r1, r0, 0xab
        addi r2, r0, 128
        sw r1, 0(r2)
        lw r3, 0(r2)
        halt
    )")), "");
}

TEST(PpCore, StoreThenLoadOtherLineBypasses)
{
    EXPECT_EQ(differential(mustAssemble(R"(
        addi r1, r0, 0xcd
        addi r2, r0, 128
        addi r3, r0, 512
        sw r1, 0(r2)
        lw r4, 0(r3)
        lw r5, 0(r2)
        halt
    )")), "");
}

TEST(PpCore, BackToBackStores)
{
    EXPECT_EQ(differential(mustAssemble(R"(
        addi r1, r0, 1
        addi r2, r0, 2
        sw r1, 64(r0)
        sw r2, 68(r0)
        lw r3, 64(r0)
        lw r4, 68(r0)
        halt
    )")), "");
}

TEST(PpCore, SwitchAndSendMatchRef)
{
    EXPECT_EQ(differential(mustAssemble(R"(
        switch r1
        switch r2
        add r3, r1, r2
        send r3
        send r1
        halt
    )"), {5, 9}), "");
}

TEST(PpCore, ManySendsStallOnOutboxCapacity)
{
    // More sends than outbox capacity: the core must stall and drain.
    std::string text;
    text += "addi r1, r0, 7\n";
    for (int i = 0; i < 12; ++i)
        text += "send r1\naddi r1, r1, 1\n";
    text += "halt\n";
    EXPECT_EQ(differential(mustAssemble(text)), "");
}

TEST(PpCore, CacheMissesAndEvictions)
{
    // Walk more lines than the D-cache holds, with stores to make
    // victims dirty: exercises refill, fill-before-spill, writeback.
    std::string text = "addi r1, r0, 1\n";
    for (int i = 0; i < 24; ++i) {
        text += formatString("sw r1, %d(r0)\n", i * 8);
        text += "addi r1, r1, 1\n";
    }
    for (int i = 0; i < 24; ++i)
        text += formatString("lw r2, %d(r0)\nadd r3, r3, r2\n", i * 8);
    text += "halt\n";
    EXPECT_EQ(differential(mustAssemble(text)), "");
}

TEST(PpCore, BranchLoopMatchesRef)
{
    PpConfig config = PpConfig::smallPreset();
    config.modelBranches = true;
    // The branch's sources (r1) are produced two packets earlier
    // (nop padding), per the static schedule contract.
    EXPECT_EQ(differential(mustAssemble(R"(
        addi r1, r0, 4
        addi r2, r0, 0
    loop:
        add r2, r2, r1
        addi r1, r1, -1
        nop
        nop
        bne r1, r0, loop
        halt
    )"), {}, config), "");
}

TEST(PpCore, JumpMatchesRef)
{
    PpConfig config = PpConfig::smallPreset();
    config.modelBranches = true;
    EXPECT_EQ(differential(mustAssemble(R"(
        addi r1, r0, 1
        j over
        addi r1, r0, 99
    over:
        addi r2, r1, 1
        halt
    )"), {}, config), "");
}

TEST(PpCore, DualIssuePairsAluOps)
{
    PpConfig config = PpConfig::smallPreset();
    config.dualIssue = true;
    std::vector<uint32_t> program = mustAssemble(R"(
        addi r1, r0, 1
        addi r2, r0, 2
        addi r3, r0, 3
        addi r4, r0, 4
        halt
    )");

    PpCore core(config, CoreMode::Program);
    core.loadProgram(program);
    core.run(10'000);
    ASSERT_TRUE(core.halted());
    EXPECT_EQ(core.reg(1), 1u);
    EXPECT_EQ(core.reg(4), 4u);
    // Dual issue must have saved cycles versus single issue.
    PpConfig single = config;
    single.dualIssue = false;
    PpCore core1(single, CoreMode::Program);
    core1.loadProgram(program);
    core1.run(10'000);
    EXPECT_LT(core.cycles(), core1.cycles());
}

TEST(PpCore, IntraPacketDependencyIsSequential)
{
    // slot1 reads slot0's result: packet semantics are sequential.
    PpConfig config = PpConfig::smallPreset();
    config.dualIssue = true;
    EXPECT_EQ(differential(mustAssemble(R"(
        addi r1, r0, 5
        addi r2, r1, 1
        addi r3, r2, 1
        halt
    )"), {}, config), "");
}

TEST(PpCore, HaltStopsTheMachine)
{
    PpCore core(PpConfig::smallPreset(), CoreMode::Program);
    core.loadProgram(mustAssemble("addi r1, r0, 1\nhalt\naddi r1, r0, 2"));
    core.run(10'000);
    EXPECT_TRUE(core.halted());
    EXPECT_EQ(core.reg(1), 1u);
    EXPECT_FALSE(core.step());
}

TEST(PpCore, CyclesExceedInstructionsWithStalls)
{
    PpCore core(PpConfig::smallPreset(), CoreMode::Program);
    core.loadProgram(mustAssemble(R"(
        lw r1, 0(r0)
        lw r2, 256(r0)
        lw r3, 512(r0)
        halt
    )"));
    core.run(10'000);
    ASSERT_TRUE(core.halted());
    EXPECT_GT(core.cycles(), core.instructionsRetired());
}

TEST(PpCore, PipeEmptyAfterHaltAndDrain)
{
    PpCore core(PpConfig::smallPreset(), CoreMode::Program);
    core.loadProgram(mustAssemble("addi r1, r0, 3\nhalt"));
    core.run(10'000);
    EXPECT_TRUE(core.halted());
}

/**
 * Randomized differential sweep: random straight-line programs (no
 * branches) over all instruction classes must match the reference
 * simulator exactly in every seed. This is the master equivalence
 * property: any mismatch is a bug in the core model.
 */
class RandomProgramSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomProgramSweep, CoreMatchesRef)
{
    Rng rng(GetParam());
    PpConfig config = PpConfig::smallPreset();
    config.dualIssue = rng.chance(1, 2);

    std::vector<uint32_t> program;
    std::deque<uint32_t> inbox;
    const unsigned length = 40 + rng.index(120);
    for (unsigned i = 0; i < length; ++i) {
        switch (rng.index(10)) {
          case 0:
          case 1:
          case 2:
          case 3: { // ALU
            unsigned rd = 1 + rng.index(31);
            unsigned rs = rng.index(32);
            unsigned rt = rng.index(32);
            switch (rng.index(4)) {
              case 0:
                program.push_back(
                    pp::encodeRType(pp::Funct::Add, rd, rs, rt));
                break;
              case 1:
                program.push_back(
                    pp::encodeRType(pp::Funct::Xor, rd, rs, rt));
                break;
              case 2:
                program.push_back(pp::encodeIType(
                    pp::Opcode::Addi, rd, rs,
                    static_cast<int16_t>(rng.next() & 0xffff)));
                break;
              default:
                program.push_back(pp::encodeIType(
                    pp::Opcode::Ori, rd, rs,
                    static_cast<int16_t>(rng.next() & 0x7fff)));
                break;
            }
            break;
          }
          case 4:
          case 5: { // Load
            unsigned rt = 1 + rng.index(31);
            int16_t offset =
                static_cast<int16_t>((rng.index(200)) * 4);
            program.push_back(pp::encodeLw(rt, 0, offset));
            break;
          }
          case 6:
          case 7: { // Store
            unsigned rt = rng.index(32);
            int16_t offset =
                static_cast<int16_t>((rng.index(200)) * 4);
            program.push_back(pp::encodeSw(rt, 0, offset));
            break;
          }
          case 8: { // Switch
            unsigned rd = 1 + rng.index(31);
            program.push_back(pp::encodeSwitch(rd));
            inbox.push_back(static_cast<uint32_t>(rng.next()));
            break;
          }
          default: { // Send
            program.push_back(
                pp::encodeSend(rng.index(32)));
            break;
          }
        }
    }
    program.push_back(pp::encodeHalt());

    EXPECT_EQ(differential(program, inbox, config), "")
        << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(PpCore, RandomProgramSweep,
                         ::testing::Range<uint64_t>(1, 33));

/**
 * Randomized differential sweep with branches: forward skips only,
 * with nop padding to honor the branch scheduling contract.
 */
class RandomBranchSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomBranchSweep, CoreMatchesRef)
{
    Rng rng(GetParam());
    PpConfig config = PpConfig::smallPreset();
    config.modelBranches = true;
    config.dualIssue = rng.chance(1, 2);

    std::vector<uint32_t> program;
    const unsigned blocks = 6 + rng.index(8);
    for (unsigned b = 0; b < blocks; ++b) {
        unsigned rd = 1 + rng.index(15);
        program.push_back(pp::encodeIType(
            pp::Opcode::Addi, rd, 0,
            static_cast<int16_t>(rng.index(100))));
        program.push_back(pp::encodeIType(
            pp::Opcode::Addi, 16 + (b % 8), rd,
            static_cast<int16_t>(rng.index(100))));
        // Padding so the branch reads stable registers.
        program.push_back(pp::encodeNop());
        program.push_back(pp::encodeNop());
        // Forward branch over a small poison block.
        bool eq = rng.chance(1, 2);
        unsigned skip = 1 + rng.index(3);
        program.push_back(pp::encodeBranch(
            eq ? pp::Opcode::Beq : pp::Opcode::Bne, rd, rd,
            static_cast<int16_t>(skip)));
        for (unsigned i = 0; i < skip; ++i) {
            program.push_back(pp::encodeIType(
                pp::Opcode::Addi, 17, 0,
                static_cast<int16_t>(0x0bad)));
        }
    }
    program.push_back(pp::encodeHalt());

    EXPECT_EQ(differential(program, {}, config), "")
        << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(PpCore, RandomBranchSweep,
                         ::testing::Range<uint64_t>(100, 116));

} // namespace
} // namespace archval::rtl
