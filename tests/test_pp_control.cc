/**
 * @file
 * Unit tests for the shared PP control logic: stall machine, refill
 * FSMs, critical-word-first restart, split stores, fill-before-spill,
 * external stalls, memory-port arbitration, and the fix-up cycle.
 */

#include <gtest/gtest.h>

#include "murphi/enumerator.hh"
#include "rtl/pp_control.hh"
#include "rtl/pp_core.hh"
#include "rtl/pp_fsm_model.hh"
#include "support/rng.hh"

namespace archval::rtl
{
namespace
{

using pp::InstrClass;

/** Convenience driver: named per-cycle inputs, accumulated state. */
class ControlDriver
{
  public:
    explicit ControlDriver(const PpConfig &config)
        : control_(config), state_(PpControl::resetState())
    {
    }

    /** Per-cycle stimulus with hit/ready defaults. */
    struct Cycle
    {
        InstrClass fetch = InstrClass::Alu;
        uint32_t dual = 0;
        uint32_t ihit = 1;
        uint32_t dhit = 1;
        uint32_t dirty = 0;
        uint32_t sameLine = 0;
        uint32_t inboxReady = 1;
        uint32_t outboxReady = 1;
        uint32_t memReply = 0;
        uint32_t branchTaken = 0;
        uint32_t targetAlign = 0;
    };

    PpOutputs
    step(const Cycle &cycle)
    {
        SignalInputs inputs;
        inputs.set(PpChoiceVar::FetchClass,
                   static_cast<uint32_t>(cycle.fetch) - 1);
        inputs.set(PpChoiceVar::Dual, cycle.dual);
        inputs.set(PpChoiceVar::IHit, cycle.ihit);
        inputs.set(PpChoiceVar::DHit, cycle.dhit);
        inputs.set(PpChoiceVar::Dirty, cycle.dirty);
        inputs.set(PpChoiceVar::SameLine, cycle.sameLine);
        inputs.set(PpChoiceVar::InboxReady, cycle.inboxReady);
        inputs.set(PpChoiceVar::OutboxReady, cycle.outboxReady);
        inputs.set(PpChoiceVar::MemReply, cycle.memReply);
        inputs.set(PpChoiceVar::BranchTaken, cycle.branchTaken);
        inputs.set(PpChoiceVar::TargetAlign, cycle.targetAlign);
        PpOutputs outputs;
        state_ = control_.step(state_, inputs, outputs);
        return outputs;
    }

    /** Fetch @p cls and run enough hit cycles to park it in MEM. */
    void
    bringToMem(InstrClass cls)
    {
        step({.fetch = cls});
        step({});
        step({});
    }

    const PpControlState &state() const { return state_; }

  private:
    PpControl control_;
    PpControlState state_;
};

PpConfig
testConfig()
{
    PpConfig config = PpConfig::smallPreset();
    config.lineWords = 2;
    return config;
}

TEST(PpControl, ResetStateIsQuiescent)
{
    PpControlState state = PpControl::resetState();
    EXPECT_EQ(state.rdClass, InstrClass::None);
    EXPECT_EQ(state.irefill, IRefill::Idle);
    EXPECT_EQ(state.drefill, DRefill::Idle);
    EXPECT_EQ(state.memPort, MemPort::Free);
    EXPECT_TRUE(state.exDone);
    EXPECT_TRUE(state.memDone);
}

TEST(PpControl, InstructionFlowsThroughPipe)
{
    ControlDriver driver(testConfig());
    auto out = driver.step({.fetch = InstrClass::Load});
    EXPECT_TRUE(out.fetch);
    EXPECT_EQ(out.fetchCount, 1u);
    EXPECT_EQ(driver.state().rdClass, InstrClass::Load);

    driver.step({});
    EXPECT_EQ(driver.state().exClass, InstrClass::Load);
    driver.step({});
    EXPECT_EQ(driver.state().memClass, InstrClass::Load);
    EXPECT_FALSE(driver.state().memDone);
}

TEST(PpControl, LoadHitCompletesWithoutStall)
{
    ControlDriver driver(testConfig());
    driver.bringToMem(InstrClass::Load);
    auto out = driver.step({.dhit = 1});
    EXPECT_TRUE(out.probe);
    EXPECT_TRUE(out.loadHit);
    EXPECT_FALSE(out.dStall);
    EXPECT_TRUE(out.advance);
}

TEST(PpControl, LoadMissStallsUntilCriticalWord)
{
    ControlDriver driver(testConfig());
    driver.bringToMem(InstrClass::Load);

    // Miss cycle: refill request, pipe frozen.
    auto out = driver.step({.dhit = 0});
    EXPECT_TRUE(out.dMissStart);
    EXPECT_TRUE(out.dStall);
    EXPECT_TRUE(out.frozen);
    EXPECT_EQ(driver.state().drefill, DRefill::Req);

    // Grant cycle: port acquired, still frozen.
    out = driver.step({});
    EXPECT_EQ(driver.state().drefill, DRefill::CritWait);
    EXPECT_EQ(driver.state().memPort, MemPort::BusyD);
    EXPECT_TRUE(out.frozen);

    // No reply yet: still frozen.
    out = driver.step({.memReply = 0});
    EXPECT_TRUE(out.frozen);

    // Critical word: restart same cycle (critical-word-first).
    out = driver.step({.memReply = 1});
    EXPECT_TRUE(out.critWord);
    EXPECT_FALSE(out.frozen);
    EXPECT_TRUE(out.advance);
    EXPECT_EQ(driver.state().drefill, DRefill::Fill);

    // Remaining beat completes the refill in the background.
    out = driver.step({.memReply = 1});
    EXPECT_TRUE(out.dRefillDone);
    EXPECT_EQ(driver.state().drefill, DRefill::Idle);
    EXPECT_EQ(driver.state().memPort, MemPort::Free);
}

TEST(PpControl, SingleWordLineSkipsFillState)
{
    PpConfig config = testConfig();
    config.lineWords = 1;
    ControlDriver driver(config);
    driver.bringToMem(InstrClass::Load);
    driver.step({.dhit = 0});
    driver.step({});
    auto out = driver.step({.memReply = 1});
    EXPECT_TRUE(out.critWord);
    EXPECT_TRUE(out.dRefillDone);
    EXPECT_EQ(driver.state().drefill, DRefill::Idle);
}

TEST(PpControl, FollowingMemOpWaitsForRefillCompletion)
{
    // Bug #5's setup: a load misses, the following load reaches MEM
    // while the fill is still in progress and must wait.
    ControlDriver driver(testConfig());
    driver.step({.fetch = InstrClass::Load});
    driver.step({.fetch = InstrClass::Load});
    driver.step({});
    // First load probes and misses.
    driver.step({.dhit = 0});
    driver.step({}); // grant
    auto out = driver.step({.memReply = 1}); // critical word, restart
    EXPECT_TRUE(out.critWord);
    // Pipe advanced: second load is now in MEM while fill continues.
    EXPECT_EQ(driver.state().memClass, InstrClass::Load);
    EXPECT_FALSE(driver.state().memDone);
    EXPECT_EQ(driver.state().drefill, DRefill::Fill);
    out = driver.step({.memReply = 0});
    EXPECT_TRUE(out.dStall); // waiting on the busy cache
    out = driver.step({.memReply = 1}); // fill done
    EXPECT_EQ(driver.state().drefill, DRefill::Idle);
    // Next cycle the second load probes and hits.
    out = driver.step({.dhit = 1});
    EXPECT_TRUE(out.loadHit);
}

TEST(PpControl, SplitStoreProbesThenCommitsInBackground)
{
    ControlDriver driver(testConfig());
    driver.bringToMem(InstrClass::Store);
    auto out = driver.step({.dhit = 1});
    EXPECT_TRUE(out.storeProbe);
    EXPECT_FALSE(out.dStall);
    EXPECT_TRUE(driver.state().storePending);
    // No memory op follows: the data write drains next cycle.
    out = driver.step({});
    EXPECT_TRUE(out.storeCommit);
    EXPECT_FALSE(driver.state().storePending);
}

TEST(PpControl, LoadToOtherLineBypassesPendingStore)
{
    ControlDriver driver(testConfig());
    driver.step({.fetch = InstrClass::Store});
    driver.step({.fetch = InstrClass::Load});
    driver.step({});
    driver.step({.dhit = 1}); // store probes; storePending set
    EXPECT_TRUE(driver.state().storePending);
    // The load probes next; different line: no conflict.
    auto out = driver.step({.dhit = 1, .sameLine = 0});
    EXPECT_TRUE(out.loadHit);
    EXPECT_FALSE(out.conflict);
    // Store still pending (the load used the port).
    EXPECT_TRUE(driver.state().storePending);
    out = driver.step({});
    EXPECT_TRUE(out.storeCommit);
}

TEST(PpControl, LoadToSameLineTakesConflictStall)
{
    ControlDriver driver(testConfig());
    driver.step({.fetch = InstrClass::Store});
    driver.step({.fetch = InstrClass::Load});
    driver.step({});
    driver.step({.dhit = 1}); // store probes
    // Load to the same line: conflict stall drains the store first.
    auto out = driver.step({.sameLine = 1});
    EXPECT_TRUE(out.conflict);
    EXPECT_TRUE(out.dStall);
    EXPECT_TRUE(out.storeCommit);
    EXPECT_FALSE(driver.state().storePending);
    // Retry cycle: the load now probes and hits.
    out = driver.step({.dhit = 1});
    EXPECT_TRUE(out.loadHit);
    EXPECT_FALSE(out.dStall);
}

TEST(PpControl, BackToBackStoresConflict)
{
    ControlDriver driver(testConfig());
    driver.step({.fetch = InstrClass::Store});
    driver.step({.fetch = InstrClass::Store});
    driver.step({});
    driver.step({.dhit = 1}); // first store probes
    auto out = driver.step({}); // second store: conflict, no SameLine read
    EXPECT_TRUE(out.conflict);
    out = driver.step({.dhit = 1});
    EXPECT_TRUE(out.storeProbe);
}

TEST(PpControl, SwitchStallsUntilInboxReady)
{
    ControlDriver driver(testConfig());
    driver.step({.fetch = InstrClass::Switch});
    driver.step({}); // switch moves to EX
    EXPECT_EQ(driver.state().exClass, InstrClass::Switch);
    EXPECT_FALSE(driver.state().exDone);

    auto out = driver.step({.inboxReady = 0});
    EXPECT_TRUE(out.extStall);
    EXPECT_TRUE(out.frozen);
    out = driver.step({.inboxReady = 0});
    EXPECT_TRUE(out.extStall);
    out = driver.step({.inboxReady = 1});
    EXPECT_TRUE(out.inboxPop);
    EXPECT_FALSE(out.extStall);
    EXPECT_TRUE(out.advance);
}

TEST(PpControl, SendStallsUntilOutboxReady)
{
    ControlDriver driver(testConfig());
    driver.step({.fetch = InstrClass::Send});
    driver.step({});
    auto out = driver.step({.outboxReady = 0});
    EXPECT_TRUE(out.extStall);
    out = driver.step({.outboxReady = 1});
    EXPECT_TRUE(out.outboxPush);
    EXPECT_FALSE(out.extStall);
}

TEST(PpControl, IMissRefillsAndFixesUp)
{
    ControlDriver driver(testConfig());
    auto out = driver.step({.ihit = 0});
    EXPECT_TRUE(out.iMissStart);
    EXPECT_TRUE(out.iStall);
    EXPECT_FALSE(out.frozen); // I-stall inserts bubbles, no freeze
    EXPECT_EQ(driver.state().irefill, IRefill::Req);
    EXPECT_EQ(driver.state().rdClass, InstrClass::None);

    out = driver.step({}); // grant
    EXPECT_EQ(driver.state().irefill, IRefill::Fill);
    EXPECT_EQ(driver.state().memPort, MemPort::BusyI);

    out = driver.step({.memReply = 1});
    out = driver.step({.memReply = 1}); // line of 2 words done
    EXPECT_EQ(driver.state().irefill, IRefill::Fixup);
    EXPECT_EQ(driver.state().memPort, MemPort::Free);
    EXPECT_TRUE(out.iRefillDone);

    out = driver.step({});
    EXPECT_TRUE(out.fixup);
    EXPECT_EQ(driver.state().irefill, IRefill::Idle);

    out = driver.step({.fetch = InstrClass::Alu});
    EXPECT_TRUE(out.fetch);
}

TEST(PpControl, FixupWaitsWhileFrozen)
{
    // Bug #4's mechanism: the fix-up cycle must be qualified on
    // MemStall. Here a SWITCH external stall freezes the pipe during
    // Fixup; the correct control holds Fixup until the stall clears.
    ControlDriver driver(testConfig());
    driver.step({.fetch = InstrClass::Switch});
    // I-miss while switch moves toward EX.
    driver.step({.ihit = 0});
    EXPECT_EQ(driver.state().exClass, InstrClass::Switch);
    driver.step({.inboxReady = 0}); // grant + ext stall begins
    EXPECT_EQ(driver.state().irefill, IRefill::Fill);
    driver.step({.inboxReady = 0, .memReply = 1});
    auto out = driver.step({.inboxReady = 0, .memReply = 1});
    EXPECT_EQ(driver.state().irefill, IRefill::Fixup);
    // Frozen by the external stall: fixup must hold.
    out = driver.step({.inboxReady = 0});
    EXPECT_TRUE(out.frozen);
    EXPECT_FALSE(out.fixup);
    EXPECT_EQ(driver.state().irefill, IRefill::Fixup);
    // Stall clears: fixup completes.
    out = driver.step({.inboxReady = 1});
    EXPECT_TRUE(out.fixup);
    EXPECT_EQ(driver.state().irefill, IRefill::Idle);
}

TEST(PpControl, DirtyMissSpillsThenWritesBack)
{
    ControlDriver driver(testConfig());
    driver.bringToMem(InstrClass::Load);
    auto out = driver.step({.dhit = 0, .dirty = 1});
    EXPECT_TRUE(out.spillCopy);
    EXPECT_EQ(driver.state().spill, Spill::Hold);
    EXPECT_EQ(driver.state().drefill, DRefill::Req);

    driver.step({}); // grant to D
    driver.step({.memReply = 1}); // critical word
    out = driver.step({.memReply = 1}); // fill done
    EXPECT_EQ(driver.state().drefill, DRefill::Idle);
    EXPECT_EQ(driver.state().spill, Spill::Hold);

    out = driver.step({}); // spill moves to WbReq (fill before spill)
    EXPECT_EQ(driver.state().spill, Spill::WbReq);
    out = driver.step({}); // granted the port
    EXPECT_EQ(driver.state().spill, Spill::Wb);
    EXPECT_EQ(driver.state().memPort, MemPort::BusyWb);
    driver.step({.memReply = 1});
    out = driver.step({.memReply = 1});
    EXPECT_TRUE(out.wbDone);
    EXPECT_EQ(driver.state().spill, Spill::Idle);
    EXPECT_EQ(driver.state().memPort, MemPort::Free);
}

TEST(PpControl, SecondDirtyMissBlocksOnSpillBuffer)
{
    ControlDriver driver(testConfig());
    // First dirty miss.
    driver.step({.fetch = InstrClass::Load});
    driver.step({.fetch = InstrClass::Load});
    driver.step({});
    driver.step({.dhit = 0, .dirty = 1});
    driver.step({});
    driver.step({.memReply = 1}); // crit word; second load advances
    driver.step({.memReply = 1}); // fill done; spill still Hold
    EXPECT_EQ(driver.state().spill, Spill::Hold);
    // Second load probes dirty-miss while the spill buffer is full.
    auto out = driver.step({.dhit = 0, .dirty = 1});
    EXPECT_TRUE(out.spillBlocked);
    EXPECT_TRUE(out.dStall);
    EXPECT_EQ(driver.state().drefill, DRefill::Idle);
}

TEST(PpControl, SimultaneousMissesShareThePortSerially)
{
    // Simultaneous I and D cache misses (bug #2's setup): there is
    // only one path to the memory controller, so the D-miss must
    // wait while the I-refill owns the port — the mutual "interlock"
    // the paper credits for keeping the state space manageable.
    ControlDriver driver(testConfig());
    driver.step({.fetch = InstrClass::Load}); // rd=LD
    driver.step({.ihit = 0}); // fetch misses; LD moves to EX
    EXPECT_EQ(driver.state().irefill, IRefill::Req);
    driver.step({}); // I granted; LD moves to MEM
    EXPECT_EQ(driver.state().memPort, MemPort::BusyI);
    EXPECT_EQ(driver.state().memClass, InstrClass::Load);

    // The load probes and misses while the I-refill holds the port.
    auto out = driver.step({.dhit = 0});
    EXPECT_TRUE(out.dMissStart);
    EXPECT_EQ(driver.state().drefill, DRefill::Req);
    EXPECT_EQ(driver.state().memPort, MemPort::BusyI);

    // I-refill streams its two words; the D request keeps waiting.
    driver.step({.memReply = 1});
    out = driver.step({.memReply = 1});
    EXPECT_TRUE(out.iRefillDone);
    EXPECT_EQ(driver.state().irefill, IRefill::Fixup);
    EXPECT_EQ(driver.state().drefill, DRefill::Req);

    // Port free: the D request wins the grant; the I fix-up cycle
    // must *hold* because the pipe is frozen on the D-stall (the
    // very qualification whose absence was bug #4).
    out = driver.step({});
    EXPECT_EQ(driver.state().memPort, MemPort::BusyD);
    EXPECT_EQ(driver.state().drefill, DRefill::CritWait);
    EXPECT_FALSE(out.fixup);
    EXPECT_EQ(driver.state().irefill, IRefill::Fixup);

    // Critical word restarts the pipe; the fix-up completes in the
    // same unfrozen cycle.
    out = driver.step({.memReply = 1});
    EXPECT_TRUE(out.critWord);
    EXPECT_TRUE(out.fixup);
    EXPECT_EQ(driver.state().irefill, IRefill::Idle);
    out = driver.step({.memReply = 1});
    EXPECT_TRUE(out.dRefillDone);
}

TEST(PpControl, DualIssueCountsTwoInstructions)
{
    PpConfig config = testConfig();
    config.dualIssue = true;
    ControlDriver driver(config);
    auto out = driver.step({.fetch = InstrClass::Alu, .dual = 1});
    EXPECT_EQ(out.fetchCount, 2u);
    out = driver.step({.fetch = InstrClass::Alu, .dual = 0});
    EXPECT_EQ(out.fetchCount, 1u);
}

TEST(PpControl, TakenBranchSquashesYoungerStages)
{
    PpConfig config = testConfig();
    config.modelBranches = true;
    ControlDriver driver(config);
    driver.step({.fetch = InstrClass::Branch});
    driver.step({.fetch = InstrClass::Load}); // delay-slot fetch
    EXPECT_EQ(driver.state().exClass, InstrClass::Branch);
    auto out = driver.step({.branchTaken = 1});
    EXPECT_TRUE(out.branchTaken);
    EXPECT_FALSE(out.fetch); // redirect cycle
    // The load that was in RD is squashed on its way to EX.
    EXPECT_EQ(driver.state().exClass, InstrClass::None);
    EXPECT_EQ(driver.state().rdClass, InstrClass::None);
}

TEST(PpControl, NotTakenBranchFallsThrough)
{
    PpConfig config = testConfig();
    config.modelBranches = true;
    ControlDriver driver(config);
    driver.step({.fetch = InstrClass::Branch});
    driver.step({.fetch = InstrClass::Load});
    auto out = driver.step({.fetch = InstrClass::Alu,
                            .branchTaken = 0});
    EXPECT_FALSE(out.branchTaken);
    EXPECT_TRUE(out.fetch);
    EXPECT_EQ(driver.state().exClass, InstrClass::Load);
}

TEST(PpControl, WbStageTracksClasses)
{
    PpConfig config = testConfig();
    config.modelWbStage = true;
    ControlDriver driver(config);
    driver.step({.fetch = InstrClass::Load});
    driver.step({});
    driver.step({});
    driver.step({.dhit = 1}); // load completes in MEM, moves to WB
    EXPECT_EQ(driver.state().wbClass, InstrClass::Load);
    driver.step({});
    EXPECT_EQ(driver.state().wbClass, InstrClass::Alu);
}

TEST(PpControl, WbClassStaysNoneWhenDisabled)
{
    ControlDriver driver(testConfig());
    driver.step({.fetch = InstrClass::Load});
    driver.step({});
    driver.step({});
    driver.step({.dhit = 1});
    EXPECT_EQ(driver.state().wbClass, InstrClass::None);
}

TEST(PpControl, AlignmentAdvancesWithFetch)
{
    PpConfig config = testConfig();
    config.modelAlignment = true;
    config.lineWords = 4;
    ControlDriver driver(config);
    driver.step({});
    EXPECT_EQ(driver.state().fetchAlign, 1u);
    driver.step({});
    driver.step({});
    driver.step({});
    EXPECT_EQ(driver.state().fetchAlign, 0u); // wrapped
}

TEST(PpControl, DualIssueBlockedAtLineEnd)
{
    PpConfig config = testConfig();
    config.modelAlignment = true;
    config.dualIssue = true;
    config.lineWords = 2;
    ControlDriver driver(config);
    // align 0 -> pairing allowed.
    auto out = driver.step({.dual = 1});
    EXPECT_EQ(out.fetchCount, 2u);
    EXPECT_EQ(driver.state().fetchAlign, 0u); // 0+2 mod 2
    // Single fetch moves to align 1 (line end): pairing impossible.
    out = driver.step({.dual = 0});
    EXPECT_EQ(driver.state().fetchAlign, 1u);
    out = driver.step({.dual = 0});
    EXPECT_EQ(out.fetchCount, 1u);
}

TEST(PpControl, TakenBranchSetsTargetAlignment)
{
    PpConfig config = testConfig();
    config.modelBranches = true;
    config.modelAlignment = true;
    config.lineWords = 4;
    ControlDriver driver(config);
    driver.step({.fetch = InstrClass::Branch});
    driver.step({});
    auto out = driver.step({.branchTaken = 1, .targetAlign = 3});
    EXPECT_TRUE(out.branchTaken);
    EXPECT_EQ(driver.state().fetchAlign, 3u);
}

TEST(PpControl, ExtStallDoesNotLoseCompletedMemOp)
{
    // A load hits in MEM while a SEND in EX is still waiting: the
    // pipe freezes but the load's completion must stick.
    ControlDriver driver(testConfig());
    driver.step({.fetch = InstrClass::Send});
    driver.step({.fetch = InstrClass::Load});
    driver.step({.outboxReady = 0}); // send enters EX, stalls; load RD->EX?
    // Pipe frozen: the load is still in RD.
    EXPECT_EQ(driver.state().exClass, InstrClass::Send);
    auto out = driver.step({.outboxReady = 1});
    EXPECT_TRUE(out.outboxPush);
    // Now the load proceeds normally.
    out = driver.step({});
    EXPECT_EQ(driver.state().memClass, InstrClass::Load);
    out = driver.step({.dhit = 1});
    EXPECT_TRUE(out.loadHit);
}

/** Bit position of the fetch-class field in a PackedSignals word. */
constexpr unsigned kFetchClassShift =
    packedSignalShift[static_cast<size_t>(PpChoiceVar::FetchClass)];

TEST(PpControl, PackedSourceMatchesUnpackedRowsOnEveryState)
{
    // Vector mode reads each input the control consumes straight from
    // the forced word (PackedInputs); the reference is the same
    // word's unpackTable() row read through SignalInputs. For every
    // small-preset graph state both must step to the same next state
    // with the same outputs: on every word for the first 64 states,
    // on 1,024 seeded draws for each of the others. A fetch-class
    // field of 6 or 7 names no instruction class, and the control
    // panics on it whichever source it reads it from, so those words
    // are not stimuli and are left out.
    const PpConfig config = PpConfig::smallPreset();
    const PpFsmModel model(config);
    murphi::Enumerator enumerator(model);
    const graph::StateGraph graph = enumerator.runOrThrow();
    ASSERT_GT(graph.numStates(), 64u);
    const PpControl control(config);
    const std::vector<ForcedSignals> &rows = unpackTable();

    auto mismatch = [&](const PpControlState &state, PackedSignals word) {
        PackedInputs packed(word);
        SignalInputs unpacked;
        for (size_t v = 0; v < numPpChoiceVars; ++v)
            unpacked.set(static_cast<PpChoiceVar>(v), rows[word][v]);
        PpOutputs packed_out;
        PpOutputs unpacked_out;
        const PpControlState packed_next =
            control.step(state, packed, packed_out);
        const PpControlState unpacked_next =
            control.step(state, unpacked, unpacked_out);
        return !(packed_next == unpacked_next) ||
               !(packed_out == unpacked_out);
    };

    Rng rng(0x9AC4ED);
    size_t compared = 0;
    for (graph::StateId s = 0; s < graph.numStates(); ++s) {
        const PpControlState state = model.unpack(graph.stateWords(s));
        const std::string what = "state " + std::to_string(s) + " (" +
                                 state.toString() + ") word ";
        if (s < 64) {
            for (uint32_t word = 0; word <= 0xffff; ++word) {
                if ((word >> kFetchClassShift) >= pp::numProgramClasses)
                    continue;
                ASSERT_FALSE(mismatch(state, static_cast<PackedSignals>(
                                                 word)))
                    << what << word;
                ++compared;
            }
        } else {
            for (int draw = 0; draw < 1024; ++draw) {
                const auto word = static_cast<PackedSignals>(
                    rng.below(pp::numProgramClasses) << kFetchClassShift |
                    rng.below(uint64_t{1} << kFetchClassShift));
                ASSERT_FALSE(mismatch(state, word)) << what << word;
                ++compared;
            }
        }
    }
    EXPECT_EQ(compared, 64 * 6 * (size_t{1} << kFetchClassShift) +
                            (graph.numStates() - 64) * 1024);
}

} // namespace
} // namespace archval::rtl
