/**
 * @file
 * Tests for the top-level ValidationFlow API.
 */

#include <gtest/gtest.h>

#include "core/validation_flow.hh"
#include "harness/vector_player.hh"
#include "hdl/translate.hh"
#include "support/strings.hh"

namespace archval::core
{
namespace
{

TEST(Flow, FullRunBugFreeIsClean)
{
    PpValidationFlow flow(rtl::PpConfig::smallPreset());
    FlowReport report = flow.run();
    EXPECT_FALSE(report.bugFound());
    EXPECT_GT(report.tracesPlayed, 0u);
    EXPECT_GT(report.cyclesSimulated, 0u);
    EXPECT_EQ(report.lockstepErrors, 0u);
}

TEST(Flow, PhasesAreLazyAndCached)
{
    PpValidationFlow flow(rtl::PpConfig::smallPreset());
    const auto &graph1 = flow.enumerate();
    const auto &graph2 = flow.enumerate();
    EXPECT_EQ(&graph1, &graph2);
    EXPECT_GT(flow.enumStats().numStates, 0u);
    const auto &tours = flow.makeTours();
    EXPECT_GT(tours.size(), 0u);
    EXPECT_EQ(flow.tourStats().numTraces, tours.size());
}

TEST(Flow, InjectedBugIsReported)
{
    FlowOptions options;
    options.stopAtFirstDivergence = true;
    PpValidationFlow flow(rtl::PpConfig::smallPreset(), options);
    rtl::BugSet bugs;
    bugs.set(static_cast<size_t>(rtl::BugId::Bug2RefillLatch));
    FlowReport report = flow.run(bugs);
    EXPECT_TRUE(report.bugFound());
    ASSERT_FALSE(report.divergences.empty());
    EXPECT_NE(report.render().find("divergence"), std::string::npos);
}

/** @return the report of a sequential VectorPlayer::play loop over
 *  @p flow's vectors, stopping after the first divergence when
 *  @p stop is set. play() checks no lockstep, so its count reads 0:
 *  equal reports also mean simulate() found no lockstep error. */
FlowReport
sequentialReport(PpValidationFlow &flow, const rtl::BugSet &bugs,
                 bool stop)
{
    const auto &vectors = flow.makeVectors();
    harness::VectorPlayer player(flow.config());
    FlowReport report;
    for (size_t i = 0; i < vectors.size(); ++i) {
        harness::PlayResult play = player.play(vectors[i], bugs);
        ++report.tracesPlayed;
        report.cyclesSimulated += play.cycles;
        report.instructionsSimulated += play.instructions;
        report.lockstepErrors += play.lockstepErrors;
        if (play.diverged) {
            ++report.divergingTraces;
            if (report.divergences.size() < 5) {
                report.divergences.push_back(formatString(
                    "trace %zu: %s", i, play.diff.c_str()));
            }
            if (stop)
                break;
        }
    }
    return report;
}

TEST(Flow, SimulateMatchesSequentialPlayer)
{
    // simulate() runs on the replay engine with lockstep checked; its
    // report must equal the sequential loop's in every field, the
    // first divergences included, for the bug-free design and each
    // Table 2.1 bug, with and without the early stop.
    std::vector<rtl::BugSet> bug_sets(1 + rtl::numBugs);
    for (size_t b = 0; b < rtl::numBugs; ++b)
        bug_sets[1 + b].set(b);
    for (bool stop : {false, true}) {
        FlowOptions options;
        options.tour.maxInstructionsPerTrace = 1'000;
        options.stopAtFirstDivergence = stop;
        PpValidationFlow flow(rtl::PpConfig::smallPreset(), options);
        for (const rtl::BugSet &bugs : bug_sets) {
            const std::string what = "bugs " + bugs.to_string() +
                                     (stop ? " stop" : " full");
            FlowReport expected = sequentialReport(flow, bugs, stop);
            FlowReport actual = flow.simulate(bugs);
            EXPECT_EQ(actual.tracesPlayed, expected.tracesPlayed) << what;
            EXPECT_EQ(actual.divergingTraces, expected.divergingTraces)
                << what;
            EXPECT_EQ(actual.lockstepErrors, expected.lockstepErrors)
                << what;
            EXPECT_EQ(actual.cyclesSimulated, expected.cyclesSimulated)
                << what;
            EXPECT_EQ(actual.instructionsSimulated,
                      expected.instructionsSimulated)
                << what;
            EXPECT_EQ(actual.divergences, expected.divergences) << what;
            EXPECT_EQ(actual.render(), expected.render()) << what;
            EXPECT_EQ(expected.bugFound(), bugs.any()) << what;
        }
    }
}

TEST(Flow, TourLimitPropagates)
{
    FlowOptions options;
    options.tour.maxInstructionsPerTrace = 50;
    PpValidationFlow flow(rtl::PpConfig::smallPreset(), options);
    flow.makeTours();
    EXPECT_GT(flow.tourStats().tracesTerminatedByLimit, 0u);
}

TEST(Flow, ExploreModelOnHdlDesign)
{
    auto translated = hdl::translateSource(R"(
        module gray(clk, step);
          input clk;
          input step;
          reg [2:0] count;
          always @(posedge clk) if (step) count <= count + 3'd1;
        endmodule
    )", "gray");
    ASSERT_TRUE(translated.ok()) << translated.errorMessage();
    ModelExploration exploration =
        exploreModel(*translated.value().model);
    EXPECT_EQ(exploration.enumStats.numStates, 8u);
    EXPECT_GT(exploration.tourStats.totalEdgeTraversals, 0u);
    EXPECT_NE(exploration.render().find("state enumeration"),
              std::string::npos);
}

TEST(Flow, ReportRenderHasAllRows)
{
    PpValidationFlow flow(rtl::PpConfig::smallPreset());
    FlowReport report = flow.run();
    std::string text = report.render();
    EXPECT_NE(text.find("traces played"), std::string::npos);
    EXPECT_NE(text.find("instructions"), std::string::npos);
}

} // namespace
} // namespace archval::core
