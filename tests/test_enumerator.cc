/**
 * @file
 * Unit tests for the explicit-state enumerator, including the
 * FirstCondition vs AllConditions edge-recording modes that the
 * paper's Section 4 discusses (Figure 4.2).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "fsm/built_model.hh"
#include "murphi/enumerator.hh"
#include "support/status.hh"

namespace archval
{
namespace
{

/** Modulo-N counter where the choice adds 0..2. */
std::unique_ptr<fsm::Model>
counterModel(unsigned bits)
{
    return std::make_unique<fsm::LambdaModel>(
        "counter",
        std::vector<fsm::StateVarInfo>{{"count", bits, 0}},
        std::vector<fsm::ChoiceVarInfo>{{"delta", 3}},
        [bits](const BitVec &state, const fsm::Choice &choice)
            -> std::optional<BitVec> {
            uint64_t mask = (uint64_t(1) << bits) - 1;
            BitVec next(bits);
            next.setField(0, bits,
                          (state.getField(0, bits) + choice[0]) & mask);
            return next;
        });
}

TEST(Enumerator, CounterReachesAllStates)
{
    auto model = counterModel(4);
    murphi::Enumerator enumerator(*model);
    auto graph = enumerator.runOrThrow();
    EXPECT_EQ(graph.numStates(), 16u);
    // FirstCondition: delta 0,1,2 reach three distinct successors.
    EXPECT_EQ(graph.numEdges(), 16u * 3u);
    EXPECT_EQ(enumerator.stats().numStates, 16u);
    EXPECT_EQ(enumerator.stats().bitsPerState, 4u);
}

TEST(Enumerator, ResetStateIsStateZero)
{
    auto model = counterModel(3);
    murphi::Enumerator enumerator(*model);
    auto graph = enumerator.runOrThrow();
    EXPECT_EQ(graph.resetState(), 0u);
    EXPECT_EQ(graph.packedState(0), model->resetState());
}

TEST(Enumerator, UnreachableStatesNotEnumerated)
{
    // Counter that can only ever add 2: odd states unreachable.
    auto model = std::make_unique<fsm::LambdaModel>(
        "even",
        std::vector<fsm::StateVarInfo>{{"count", 4, 0}},
        std::vector<fsm::ChoiceVarInfo>{{"go", 2}},
        [](const BitVec &state, const fsm::Choice &choice)
            -> std::optional<BitVec> {
            BitVec next(4);
            next.setField(0, 4,
                          (state.getField(0, 4) + 2 * choice[0]) & 15);
            return next;
        });
    murphi::Enumerator enumerator(*model);
    auto graph = enumerator.runOrThrow();
    EXPECT_EQ(graph.numStates(), 8u);
}

TEST(Enumerator, RejectedChoicesNotEdges)
{
    auto model = std::make_unique<fsm::LambdaModel>(
        "reject",
        std::vector<fsm::StateVarInfo>{{"s", 2, 0}},
        std::vector<fsm::ChoiceVarInfo>{{"c", 4}},
        [](const BitVec &state, const fsm::Choice &choice)
            -> std::optional<BitVec> {
            if (choice[0] >= 2)
                return std::nullopt; // only choices 0,1 legal
            BitVec next(2);
            next.setField(0, 2,
                          (state.getField(0, 2) + choice[0]) & 3);
            return next;
        });
    murphi::Enumerator enumerator(*model);
    auto graph = enumerator.runOrThrow();
    EXPECT_EQ(graph.numStates(), 4u);
    EXPECT_EQ(graph.numEdges(), 8u); // 2 per state
    EXPECT_EQ(enumerator.stats().transitionsTried, 16u);
    EXPECT_EQ(enumerator.stats().transitionsValid, 8u);
}

/**
 * The Figure 4.2 model: two inputs "a" (0) and "c" (1) both move
 * A -> B (the implementation erroneously merged them). FirstCondition
 * records a single A->B edge labelled with "a"; AllConditions records
 * both.
 */
std::unique_ptr<fsm::Model>
mergedTransitionModel()
{
    return std::make_unique<fsm::LambdaModel>(
        "fig42",
        std::vector<fsm::StateVarInfo>{{"s", 1, 0}},
        std::vector<fsm::ChoiceVarInfo>{{"in", 2}},
        [](const BitVec &state, const fsm::Choice &)
            -> std::optional<BitVec> {
            BitVec next(1);
            next.setField(0, 1, 1 - state.getField(0, 1));
            return next;
        });
}

TEST(Enumerator, FirstConditionMergesParallelEdges)
{
    auto model = mergedTransitionModel();
    murphi::EnumOptions options;
    options.recording = murphi::EdgeRecording::FirstCondition;
    murphi::Enumerator enumerator(*model, options);
    auto graph = enumerator.runOrThrow();
    EXPECT_EQ(graph.numStates(), 2u);
    EXPECT_EQ(graph.numEdges(), 2u); // one per (src,dst) pair
    // The recorded label is the *first* condition tried (choice 0,
    // i.e. input "a") — exactly the paper's failure mode.
    EXPECT_EQ(graph.edge(graph.outEdges(0)[0]).choiceCode, 0u);
}

TEST(Enumerator, AllConditionsKeepsParallelEdges)
{
    auto model = mergedTransitionModel();
    murphi::EnumOptions options;
    options.recording = murphi::EdgeRecording::AllConditions;
    murphi::Enumerator enumerator(*model, options);
    auto graph = enumerator.runOrThrow();
    EXPECT_EQ(graph.numStates(), 2u);
    EXPECT_EQ(graph.numEdges(), 4u); // both conditions per pair
    std::set<uint64_t> codes;
    for (auto e : graph.outEdges(0))
        codes.insert(graph.edge(e).choiceCode);
    EXPECT_EQ(codes, (std::set<uint64_t>{0, 1}));
}

TEST(Enumerator, MaxStatesGuardReturnsError)
{
    auto model = counterModel(10);
    murphi::EnumOptions options;
    options.maxStates = 100;
    murphi::Enumerator enumerator(*model, options);
    auto result = enumerator.run();
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.errorMessage().find("state explosion"),
              std::string::npos);
}

TEST(Enumerator, MaxStatesExactlyAtLimitSucceeds)
{
    // The limit is enforced *before* interning: a model with exactly
    // maxStates reachable states completes, one fewer errors out.
    auto model = counterModel(4);
    murphi::EnumOptions options;
    options.maxStates = 16;
    murphi::Enumerator enumerator(*model, options);
    auto result = enumerator.run();
    ASSERT_TRUE(result.ok()) << result.errorMessage();
    EXPECT_EQ(result.value().numStates(), 16u);

    options.maxStates = 15;
    murphi::Enumerator limited(*model, options);
    EXPECT_FALSE(limited.run().ok());
}

TEST(Enumerator, RunOrThrowRaisesFatalError)
{
    auto model = counterModel(10);
    murphi::EnumOptions options;
    options.maxStates = 100;
    murphi::Enumerator enumerator(*model, options);
    EXPECT_THROW(enumerator.runOrThrow(), FatalError);
}

/** Model whose reset state disagrees with its declared layout. */
class BadResetModel : public fsm::Model
{
  public:
    std::string name() const override { return "bad_reset"; }

    const std::vector<fsm::StateVarInfo> &
    stateVars() const override
    {
        static const std::vector<fsm::StateVarInfo> vars{
            {"s", 4, 0}};
        return vars;
    }

    const std::vector<fsm::ChoiceVarInfo> &
    choiceVars() const override
    {
        static const std::vector<fsm::ChoiceVarInfo> vars{{"c", 2}};
        return vars;
    }

    BitVec resetState() const override { return BitVec(3); }

    std::optional<fsm::Transition>
    next(const BitVec &state, const fsm::Choice &) const override
    {
        fsm::Transition t;
        t.next = state;
        return t;
    }
};

TEST(Enumerator, ResetWidthMismatchReturnsError)
{
    BadResetModel model;
    murphi::Enumerator enumerator(model);
    auto result = enumerator.run();
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.errorMessage().find("reset state"),
              std::string::npos);
}

TEST(Enumerator, NextStateWidthMismatchReturnsError)
{
    // States are stored at a fixed stride of packed words, so a next
    // state of another width is refused rather than interned.
    auto model = std::make_unique<fsm::LambdaModel>(
        "widening", std::vector<fsm::StateVarInfo>{{"s", 4, 0}},
        std::vector<fsm::ChoiceVarInfo>{{"c", 2}},
        [](const BitVec &, const fsm::Choice &choice)
            -> std::optional<BitVec> { return BitVec(choice[0] ? 70 : 4); });
    murphi::Enumerator enumerator(*model);
    auto result = enumerator.run();
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.errorMessage().find("70-bit state"),
              std::string::npos)
        << result.errorMessage();
}

TEST(Enumerator, ZeroBitModelEnumerates)
{
    // A model whose control state is fully implicit is legal: one
    // reachable (empty) state, self-loop edges, a zero-width graph.
    auto model = std::make_unique<fsm::LambdaModel>(
        "zerobit", std::vector<fsm::StateVarInfo>{},
        std::vector<fsm::ChoiceVarInfo>{{"c", 2}},
        [](const BitVec &, const fsm::Choice &)
            -> std::optional<BitVec> { return BitVec(0); });
    murphi::EnumOptions options;
    options.recording = murphi::EdgeRecording::AllConditions;
    murphi::Enumerator enumerator(*model, options);
    auto graph = enumerator.runOrThrow();
    EXPECT_EQ(graph.numStates(), 1u);
    EXPECT_EQ(graph.numEdges(), 2u);
    EXPECT_EQ(graph.stateBits(), 0u);
    EXPECT_EQ(graph.packedState(0).numBits(), 0u);
}

TEST(Enumerator, MemoryAccountingWithinTwiceLowerBound)
{
    // The reported footprint is what the graph and the interned
    // state table allocated; sanity-check it against an independently
    // computed lower bound: the graph itself plus, per interned state,
    // one table entry (its packed words and id) and one probe slot.
    auto model = counterModel(8);
    murphi::Enumerator enumerator(*model);
    auto graph = enumerator.runOrThrow();
    size_t lower = graph.memoryBytes();
    for (graph::StateId s = 0; s < graph.numStates(); ++s) {
        lower += graph.stateWords(s).size_bytes() +
                 sizeof(graph::StateId) + sizeof(uint32_t);
    }
    size_t reported = enumerator.stats().memoryBytes;
    EXPECT_GE(reported, lower);
    EXPECT_LE(reported, 2 * lower);
}

/** A one-state model whose choice space is wider than 32-bit codes;
 *  its one transition carries the code 2^32 + 5. */
class WideChoiceModel : public fsm::Model
{
  public:
    std::string name() const override { return "wide_choice"; }

    const std::vector<fsm::StateVarInfo> &
    stateVars() const override
    {
        return stateVars_;
    }

    const std::vector<fsm::ChoiceVarInfo> &
    choiceVars() const override
    {
        return choiceVars_;
    }

    BitVec resetState() const override { return BitVec(1); }

    std::optional<fsm::Transition>
    next(const BitVec &state, const fsm::Choice &) const override
    {
        return fsm::Transition{state, 0};
    }

    Result<bool>
    forEachTransition(std::span<const uint64_t> state,
                      fsm::TransitionSink sink) const override
    {
        sink((uint64_t(1) << 32) + 5, state, 0);
        return true;
    }

  private:
    std::vector<fsm::StateVarInfo> stateVars_{{"s", 1, 0}};
    std::vector<fsm::ChoiceVarInfo> choiceVars_{{"a", 65536},
                                                {"b", 65537}};
};

TEST(Enumerator, ChoiceCodesBeyond32BitsAreAnError)
{
    WideChoiceModel model;
    ASSERT_GT(model.makeChoiceCodec().numCombinations(),
              uint64_t(1) << 32);
    murphi::Enumerator enumerator(model);
    auto result = enumerator.run();
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.errorMessage().find("32 bits"), std::string::npos)
        << result.errorMessage();
}

TEST(Enumerator, InstructionCountsLandOnEdges)
{
    auto model = std::make_unique<fsm::LambdaModel>(
        "instr",
        std::vector<fsm::StateVarInfo>{{"s", 1, 0}},
        std::vector<fsm::ChoiceVarInfo>{{"c", 2}},
        [](const BitVec &state, const fsm::Choice &) { return state; },
        [](const BitVec &, const fsm::Choice &choice) -> unsigned {
            return choice[0] ? 2 : 0;
        });
    murphi::EnumOptions options;
    options.recording = murphi::EdgeRecording::AllConditions;
    murphi::Enumerator enumerator(*model, options);
    auto graph = enumerator.runOrThrow();
    ASSERT_EQ(graph.numEdges(), 2u);
    EXPECT_EQ(graph.totalEdgeInstructions(), 2u);
}

TEST(Enumerator, StatsRenderMentionsRows)
{
    auto model = counterModel(3);
    murphi::Enumerator enumerator(*model);
    enumerator.runOrThrow();
    auto text = enumerator.stats().render();
    EXPECT_NE(text.find("Number of states"), std::string::npos);
    EXPECT_NE(text.find("Number of edges"), std::string::npos);
}

TEST(Enumerator, BfsOrderIsBreadthFirst)
{
    // Line graph 0 -> 1 -> 2 -> ...: BFS ids must equal distance.
    auto model = std::make_unique<fsm::LambdaModel>(
        "line",
        std::vector<fsm::StateVarInfo>{{"s", 4, 0}},
        std::vector<fsm::ChoiceVarInfo>{{"go", 2}},
        [](const BitVec &state, const fsm::Choice &choice)
            -> std::optional<BitVec> {
            uint64_t v = state.getField(0, 4);
            BitVec next(4);
            uint64_t target = choice[0] && v < 15 ? v + 1 : v;
            next.setField(0, 4, target);
            return next;
        });
    murphi::Enumerator enumerator(*model);
    auto graph = enumerator.runOrThrow();
    ASSERT_EQ(graph.numStates(), 16u);
    for (uint32_t id = 0; id < 16; ++id)
        EXPECT_EQ(graph.packedState(id).getField(0, 4), id);
}

TEST(Enumerator, LevelStatsCoverEveryState)
{
    // The per-level breakdown must account for every state and edge
    // exactly once, and every state is expanded exactly once.
    auto model = counterModel(4);
    murphi::Enumerator enumerator(*model);
    auto graph = enumerator.runOrThrow();
    const auto &stats = enumerator.stats();
    ASSERT_FALSE(stats.levels.empty());
    uint64_t states = 1, edges = 0, expanded = 0;
    for (const auto &level : stats.levels) {
        states += level.newStates;
        edges += level.newEdges;
        expanded += level.frontierWidth;
    }
    EXPECT_EQ(states, graph.numStates());
    EXPECT_EQ(edges, graph.numEdges());
    EXPECT_EQ(expanded, graph.numStates());
}

TEST(Enumerator, CancelStopsWithinOneSourcePerWorker)
{
    // A 16-bit shift register fed four bits per step: level k holds
    // 15 * 16^(k-1) states, so the flag, raised on the model's
    // 1,000th call (mid level 2), lands with thousands of calls left
    // in the level. The flag is checked before every source, so
    // after it is raised the search at most finishes the source it
    // is expanding.
    constexpr uint64_t kChoices = 16;
    constexpr uint64_t kCancelAt = 1000;
    for (size_t budget : {size_t(0), size_t(32) << 10}) {
        std::atomic<bool> cancel{false};
        std::atomic<uint64_t> calls{0};
        fsm::LambdaModel model(
            "shift",
            std::vector<fsm::StateVarInfo>{{"s", 16, 0}},
            std::vector<fsm::ChoiceVarInfo>{{"nibble", kChoices}},
            [&](const BitVec &state, const fsm::Choice &choice)
                -> std::optional<BitVec> {
                if (++calls == kCancelAt)
                    cancel.store(true);
                BitVec next(16);
                next.setField(0, 16,
                              ((state.getField(0, 16) << 4) | choice[0]) &
                                  0xffff);
                return next;
            });
        murphi::EnumOptions options;
        options.memoryBudgetBytes = budget;
        options.cancelFlag = &cancel;
        murphi::Enumerator enumerator(model, options);
        auto result = enumerator.run();
        ASSERT_FALSE(result.ok()) << "budget=" << budget;
        EXPECT_EQ(result.errorMessage(), "enumeration cancelled");
        EXPECT_LE(calls.load() - kCancelAt, kChoices)
            << "budget=" << budget;
    }
}

} // namespace
} // namespace archval
