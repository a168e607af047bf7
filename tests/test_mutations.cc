/**
 * @file
 * Tests for the control-mutation framework: metadata, mutated
 * control behaviour, model/core lockstep under mutation, and
 * end-to-end detectability through the validation flow.
 */

#include <gtest/gtest.h>

#include "core/validation_flow.hh"
#include "rtl/mutations.hh"
#include "rtl/pp_control.hh"
#include "rtl/pp_fsm_model.hh"

namespace archval::rtl
{
namespace
{

using pp::InstrClass;

TEST(Mutations, MetadataExists)
{
    for (size_t m = 0; m < numMutations; ++m) {
        MutationId mutation = static_cast<MutationId>(m);
        EXPECT_STRNE(mutationName(mutation), "?");
        EXPECT_STRNE(mutationSummary(mutation), "?");
    }
}

TEST(Mutations, DataVisibilitySplit)
{
    unsigned visible = 0;
    for (size_t m = 0; m < numMutations; ++m)
        visible += mutationDataVisible(static_cast<MutationId>(m));
    // Three detectable mutations, three timing-only ones.
    EXPECT_EQ(visible, 3u);
}

/** Drive the mutated control directly (reuses the pattern of
 *  test_pp_control). */
struct Driver
{
    explicit Driver(const PpConfig &config)
        : control(config), state(PpControl::resetState())
    {
    }

    PpOutputs
    step(InstrClass fetch, uint32_t dhit, uint32_t same_line,
         uint32_t ihit = 1)
    {
        SignalInputs inputs;
        inputs.set(PpChoiceVar::FetchClass,
                   static_cast<uint32_t>(fetch) - 1);
        inputs.set(PpChoiceVar::IHit, ihit);
        inputs.set(PpChoiceVar::DHit, dhit);
        inputs.set(PpChoiceVar::SameLine, same_line);
        inputs.set(PpChoiceVar::InboxReady, 1);
        inputs.set(PpChoiceVar::OutboxReady, 1);
        PpOutputs out;
        state = control.step(state, inputs, out);
        return out;
    }

    PpControl control;
    PpControlState state;
};

TEST(Mutations, ConflictDropsLoadCheckSkipsSameLineStall)
{
    PpConfig config = PpConfig::smallPreset();
    config.mutations.set(
        static_cast<size_t>(MutationId::ConflictDropsLoadCheck));
    Driver driver(config);
    driver.step(InstrClass::Store, 1, 0);
    driver.step(InstrClass::Load, 1, 0);
    driver.step(InstrClass::Alu, 1, 0);
    driver.step(InstrClass::Alu, 1, 0); // store probes
    EXPECT_TRUE(driver.state.storePending);
    // Load to the same line: healthy control conflicts; mutated one
    // sails through with a plain hit.
    auto out = driver.step(InstrClass::Alu, 1, 1);
    EXPECT_FALSE(out.conflict);
    EXPECT_TRUE(out.loadHit);
}

TEST(Mutations, ConflictIgnoresStoreOverwritesPending)
{
    PpConfig config = PpConfig::smallPreset();
    config.mutations.set(
        static_cast<size_t>(MutationId::ConflictIgnoresStore));
    Driver driver(config);
    driver.step(InstrClass::Store, 1, 0);
    driver.step(InstrClass::Store, 1, 0);
    driver.step(InstrClass::Alu, 1, 0);
    driver.step(InstrClass::Alu, 1, 0); // first store probes
    auto out = driver.step(InstrClass::Alu, 1, 0); // second store
    EXPECT_FALSE(out.conflict);
    EXPECT_TRUE(out.storeProbe); // probed straight through
}

TEST(Mutations, PortPriorityDroppedLetsIWinTies)
{
    PpConfig config = PpConfig::smallPreset();
    config.mutations.set(
        static_cast<size_t>(MutationId::PortPriorityDropped));
    Driver driver(config);
    // I-miss then D-miss so both FSMs request simultaneously only
    // after the port frees... simpler: I requests while D requests.
    driver.step(InstrClass::Load, 1, 0);
    driver.step(InstrClass::Load, 1, 0, /*ihit=*/0); // I-miss
    EXPECT_EQ(driver.state.irefill, IRefill::Req);
    driver.step(InstrClass::Alu, 0, 0); // I granted (port was free)
    EXPECT_EQ(driver.state.memPort, MemPort::BusyI);
}

/**
 * The central property: under every mutation, the FSM model and the
 * RTL core still share the (mutated) control, so the generated
 * vectors stay in lockstep, and the flow detects exactly the
 * data-visible mutations.
 */
class MutationFlow : public ::testing::TestWithParam<size_t>
{
};

TEST_P(MutationFlow, DetectedIffDataVisible)
{
    MutationId mutation = static_cast<MutationId>(GetParam());
    PpConfig config = PpConfig::smallPreset();
    config.mutations.set(GetParam());

    core::FlowOptions options;
    options.stopAtFirstDivergence = mutationDataVisible(mutation);
    core::PpValidationFlow flow(config, options);
    core::FlowReport report = flow.run();

    EXPECT_EQ(report.lockstepErrors, 0u)
        << mutationName(mutation)
        << ": model/core control desynchronized";
    EXPECT_EQ(report.bugFound(), mutationDataVisible(mutation))
        << mutationName(mutation) << ": "
        << (report.divergences.empty() ? "no diff"
                                       : report.divergences[0]);
}

INSTANTIATE_TEST_SUITE_P(Mutations, MutationFlow,
                         ::testing::Range<size_t>(0, numMutations));

} // namespace
} // namespace archval::rtl
