/**
 * @file
 * Tests for the PP FSM model: packing round trips, canonical choice
 * rejection, and whole-state-space invariants checked over every
 * reachable state of the small preset (property-style sweep via the
 * enumerator).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <tuple>
#include <vector>

#include "murphi/enumerator.hh"
#include "rtl/pp_fsm_model.hh"

namespace archval::rtl
{
namespace
{

using pp::InstrClass;

TEST(PpFsmModel, PackUnpackRoundTrip)
{
    PpFsmModel model(PpConfig::smallPreset());
    PpControlState state;
    state.rdClass = InstrClass::Send;
    state.exClass = InstrClass::Load;
    state.memClass = InstrClass::Store;
    state.wbClass = InstrClass::Alu;
    state.fetchAlign = 1;
    state.exDone = false;
    state.memDone = false;
    state.storePending = true;
    state.irefill = IRefill::Fixup;
    state.irefillCount = 2;
    state.drefill = DRefill::CritWait;
    state.drefillCount = 1;
    state.spill = Spill::Wb;
    state.spillCount = 2;
    state.memPort = MemPort::BusyWb;

    PpControlState round = model.unpack(model.pack(state));
    EXPECT_EQ(round, state);
}

TEST(PpFsmModel, ResetPacksToQuiescent)
{
    PpFsmModel model(PpConfig::smallPreset());
    PpControlState state = model.unpack(model.resetState());
    EXPECT_EQ(state, PpControl::resetState());
}

TEST(PpFsmModel, LineWordsBoundedByTheCounters)
{
    // The refill and writeback counters are 8 bits: a longer line
    // (300 would start an I-refill with 300 mod 256 = 44 beats) or an
    // empty one is refused when the model is built.
    PpConfig config = PpConfig::smallPreset();
    for (unsigned line_words : {0u, 256u, 300u}) {
        config.lineWords = line_words;
        EXPECT_THROW(PpFsmModel{config}, FatalError) << line_words;
    }
    // The longest line packs into 55 bits of the one state word, and
    // a full refill counter survives the round trip.
    config.lineWords = PpConfig::maxLineWords;
    const PpFsmModel model(config);
    EXPECT_EQ(model.stateBits(), 55u);
    PpControlState state;
    state.irefill = IRefill::Fill;
    state.irefillCount = 255;
    state.fetchAlign = 254;
    EXPECT_EQ(model.unpack(model.pack(state)), state);
}

TEST(PpFsmModel, ChoiceVarsMatchEnum)
{
    PpFsmModel model(PpConfig::smallPreset());
    ASSERT_EQ(model.choiceVars().size(), numPpChoiceVars);
    EXPECT_EQ(model.choiceVars()[0].name, "icache.fetch_class");
    EXPECT_EQ(model.choiceVars()[0].cardinality, 5u);
    // Small preset: no dual issue, no branches -> cardinality 1.
    EXPECT_EQ(model.choiceVars()[1].cardinality, 1u);
    EXPECT_EQ(model.choiceVars()[9].cardinality, 1u);
}

TEST(PpFsmModel, FullPresetEnablesExtensions)
{
    PpFsmModel model(PpConfig::fullPreset());
    EXPECT_EQ(model.choiceVars()[0].cardinality, 6u); // + Branch
    EXPECT_EQ(model.choiceVars()[1].cardinality, 2u); // dual
    EXPECT_EQ(model.choiceVars()[9].cardinality, 2u); // taken
    // Target alignment enumerates the line offsets.
    EXPECT_EQ(model.choiceVars()[10].cardinality,
              PpConfig::fullPreset().lineWords);
}

TEST(PpFsmModel, NonCanonicalChoiceRejected)
{
    PpFsmModel model(PpConfig::smallPreset());
    BitVec reset = model.resetState();
    fsm::Choice choice(numPpChoiceVars, 0);

    // From reset with an I-hit fetch the DHit input is never
    // examined (no op in MEM), so a tuple with dhit=1 is rejected.
    choice[static_cast<size_t>(PpChoiceVar::IHit)] = 1;
    EXPECT_TRUE(model.next(reset, choice).has_value());
    choice[static_cast<size_t>(PpChoiceVar::DHit)] = 1;
    EXPECT_FALSE(model.next(reset, choice).has_value());
}

TEST(PpFsmModel, FetchEdgeCountsInstructions)
{
    PpFsmModel model(PpConfig::smallPreset());
    fsm::Choice choice(numPpChoiceVars, 0);
    choice[static_cast<size_t>(PpChoiceVar::IHit)] = 1;
    auto t = model.next(model.resetState(), choice);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->instructions, 1u);

    // An I-miss consumes no instruction.
    fsm::Choice miss(numPpChoiceVars, 0);
    auto tm = model.next(model.resetState(), miss);
    ASSERT_TRUE(tm.has_value());
    EXPECT_EQ(tm->instructions, 0u);
}

TEST(PpFsmModel, DeterministicNext)
{
    PpFsmModel model(PpConfig::smallPreset());
    fsm::Choice choice(numPpChoiceVars, 0);
    choice[static_cast<size_t>(PpChoiceVar::IHit)] = 1;
    choice[static_cast<size_t>(PpChoiceVar::FetchClass)] = 2;
    auto a = model.next(model.resetState(), choice);
    auto b = model.next(model.resetState(), choice);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->next, b->next);
}

/** One reported transition: (choice code, next-state word,
 *  instructions). A PP state is one word. */
using Emission = std::tuple<uint64_t, uint64_t, unsigned>;

/** @return what @p step reports to its sink, sorted by code. */
template <typename Step>
std::vector<Emission>
sortedEmissions(Step &&step)
{
    std::vector<Emission> out;
    auto sink = [&out](uint64_t code, std::span<const uint64_t> next,
                       unsigned instructions) {
        EXPECT_EQ(next.size(), 1u);
        out.emplace_back(code, next[0], instructions);
    };
    const Result<bool> stepped = step(sink);
    EXPECT_TRUE(stepped.ok()) << stepped.errorMessage();
    std::sort(out.begin(), out.end());
    return out;
}

TEST(PpFsmModel, SparseStepMatchesCartesianProduct)
{
    // The word step walks a trie of canonical tuples; the base loop
    // tries every tuple of the cartesian product through next(). Out
    // of every small-preset state (5,413 x 640 tuples) and a fixed
    // stride of full-preset states, both must report the same
    // transitions: no tuple dropped, none duplicated, none invented.
    struct Sweep
    {
        PpConfig config;
        graph::StateId stride;
    };
    for (const Sweep &sweep : {Sweep{PpConfig::smallPreset(), 1},
                               Sweep{PpConfig::fullPreset(), 1009}}) {
        const PpFsmModel model(sweep.config);
        SCOPED_TRACE(model.makeChoiceCodec().numCombinations());
        murphi::EnumOptions options;
        options.recording = murphi::EdgeRecording::AllConditions;
        murphi::Enumerator enumerator(model, options);
        const graph::StateGraph graph = enumerator.runOrThrow();
        size_t checked = 0;
        for (graph::StateId s = 0; s < graph.numStates();
             s += sweep.stride, ++checked) {
            const std::span<const uint64_t> state = graph.stateWords(s);
            const std::vector<Emission> sparse =
                sortedEmissions([&](fsm::TransitionSink sink) {
                    return model.forEachTransition(state, sink);
                });
            const std::vector<Emission> cartesian =
                sortedEmissions([&](fsm::TransitionSink sink) {
                    return model.fsm::Model::forEachTransition(state,
                                                               sink);
                });
            ASSERT_FALSE(sparse.empty()) << "state " << s;
            ASSERT_EQ(sparse, cartesian)
                << "state " << s << ": "
                << model.unpack(state).toString();
            // AllConditions records every legal tuple as an edge.
            ASSERT_EQ(sparse.size(), graph.outEdges(s).size())
                << "state " << s;
        }
        EXPECT_GT(checked, 300u);
    }
}

TEST(PpFsmModel, SparseStepRefusesStatesOfAnotherWidth)
{
    const PpFsmModel model(PpConfig::smallPreset());
    const uint64_t words[2] = {0, 0};
    size_t reported = 0;
    auto count = [&reported](uint64_t, std::span<const uint64_t>,
                             unsigned) { ++reported; };
    EXPECT_FALSE(
        model.forEachTransition(std::span<const uint64_t>(words, 0), count)
            .ok());
    EXPECT_FALSE(model.forEachTransition(words, count).ok());
    EXPECT_EQ(reported, 0u);
}

/** Enumerates the small preset once and exposes the graph. */
class PpReachableSweep : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        model_ = new PpFsmModel(PpConfig::smallPreset());
        murphi::Enumerator enumerator(*model_);
        graph_ = new graph::StateGraph(enumerator.runOrThrow());
    }

    static void
    TearDownTestSuite()
    {
        delete graph_;
        delete model_;
        graph_ = nullptr;
        model_ = nullptr;
    }

    static PpFsmModel *model_;
    static graph::StateGraph *graph_;
};

PpFsmModel *PpReachableSweep::model_ = nullptr;
graph::StateGraph *PpReachableSweep::graph_ = nullptr;

TEST_F(PpReachableSweep, StateSpaceIsNonTrivialAndBounded)
{
    EXPECT_GT(graph_->numStates(), 100u);
    EXPECT_LT(graph_->numStates(), 2'000'000u);
    EXPECT_GT(graph_->numEdges(), graph_->numStates());
}

TEST_F(PpReachableSweep, PortOwnershipConsistentEverywhere)
{
    for (uint32_t id = 0; id < graph_->numStates(); ++id) {
        PpControlState s = model_->unpack(graph_->packedState(id));
        // The port owner and the owning FSM's state must agree.
        bool d_owns = s.drefill == DRefill::CritWait ||
                      s.drefill == DRefill::Fill;
        bool i_owns = s.irefill == IRefill::Fill;
        bool wb_owns = s.spill == Spill::Wb;
        EXPECT_EQ(d_owns, s.memPort == MemPort::BusyD)
            << s.toString();
        EXPECT_EQ(i_owns, s.memPort == MemPort::BusyI)
            << s.toString();
        EXPECT_EQ(wb_owns, s.memPort == MemPort::BusyWb)
            << s.toString();
        EXPECT_LE(int(d_owns) + int(i_owns) + int(wb_owns), 1)
            << s.toString();
    }
}

TEST_F(PpReachableSweep, CountersOnlyLiveInTheirStates)
{
    for (uint32_t id = 0; id < graph_->numStates(); ++id) {
        PpControlState s = model_->unpack(graph_->packedState(id));
        if (s.drefill != DRefill::Fill) {
            EXPECT_EQ(s.drefillCount, 0u) << s.toString();
        }
        if (s.irefill != IRefill::Fill) {
            EXPECT_EQ(s.irefillCount, 0u) << s.toString();
        }
        if (s.spill != Spill::Wb) {
            EXPECT_EQ(s.spillCount, 0u) << s.toString();
        }
        if (s.drefill == DRefill::Fill) {
            EXPECT_GT(s.drefillCount, 0u) << s.toString();
        }
    }
}

TEST_F(PpReachableSweep, DoneBitsOnlyFalseForRelevantClasses)
{
    auto is_mem = [](InstrClass c) {
        return c == InstrClass::Load || c == InstrClass::Store;
    };
    auto is_comm = [](InstrClass c) {
        return c == InstrClass::Switch || c == InstrClass::Send;
    };
    for (uint32_t id = 0; id < graph_->numStates(); ++id) {
        PpControlState s = model_->unpack(graph_->packedState(id));
        if (!s.exDone) {
            EXPECT_TRUE(is_comm(s.exClass)) << s.toString();
        }
        if (!s.memDone) {
            EXPECT_TRUE(is_mem(s.memClass)) << s.toString();
        }
    }
}

TEST_F(PpReachableSweep, PendingRefillImpliesUnfinishedMemOp)
{
    for (uint32_t id = 0; id < graph_->numStates(); ++id) {
        PpControlState s = model_->unpack(graph_->packedState(id));
        // A D-refill in Req/CritWait exists only while the missing
        // op is still stalled in MEM.
        if (s.drefill == DRefill::Req ||
            s.drefill == DRefill::CritWait) {
            EXPECT_FALSE(s.memDone) << s.toString();
        }
    }
}

TEST_F(PpReachableSweep, NoBranchClassWithoutExtension)
{
    for (uint32_t id = 0; id < graph_->numStates(); ++id) {
        PpControlState s = model_->unpack(graph_->packedState(id));
        EXPECT_NE(s.rdClass, InstrClass::Branch) << s.toString();
        EXPECT_NE(s.exClass, InstrClass::Branch) << s.toString();
        EXPECT_NE(s.memClass, InstrClass::Branch) << s.toString();
    }
}

TEST_F(PpReachableSweep, EveryStateHasASuccessor)
{
    // The control must never deadlock: every reachable state has at
    // least one legal environment action.
    for (uint32_t id = 0; id < graph_->numStates(); ++id)
        EXPECT_FALSE(graph_->outEdges(id).empty())
            << model_->unpack(graph_->packedState(id)).toString();
}

TEST_F(PpReachableSweep, EdgeLabelsDecodeCanonically)
{
    // Spot-check: every recorded edge's choice must re-apply to give
    // the same destination (the transition condition mapping is
    // sound).
    auto codec = model_->makeChoiceCodec();
    size_t checked = 0;
    for (uint32_t id = 0; id < graph_->numStates() && checked < 5000;
         ++id) {
        for (auto e : graph_->outEdges(id)) {
            const auto &edge = graph_->edge(e);
            auto t = model_->next(graph_->packedState(id),
                                  codec.decode(edge.choiceCode));
            ASSERT_TRUE(t.has_value());
            EXPECT_EQ(t->next, graph_->packedState(edge.dst));
            ++checked;
        }
    }
    EXPECT_GT(checked, 0u);
}

} // namespace
} // namespace archval::rtl
