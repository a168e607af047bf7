/**
 * @file
 * Quickstart: the whole methodology in two bites.
 *
 * Part 1 runs the generic pipeline on a tiny annotated Verilog
 * design: translate -> enumerate -> transition tours.
 *
 * Part 2 runs the full Protocol Processor flow: enumerate the PP
 * control, generate covering test vectors, inject one of the
 * published FLASH PP bugs, and watch the vectors expose it while the
 * bug-free design runs clean.
 */

#include <cstdio>

#include "core/validation_flow.hh"
#include "hdl/translate.hh"
#include "rtl/faults.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"

using namespace archval;

namespace
{

const char *trafficLight = R"(
// A traffic light: green (with a timer) -> yellow -> red -> green.
// The pedestrian request is a free input the enumerator drives with
// every value combination.
module traffic(clk, walk_req);
  input clk;
  input walk_req;
  reg [1:0] state;   // vfsm state state reset 0
  reg [1:0] timer;   // vfsm state timer reset 0

  always @(posedge clk) begin
    case (state)
      2'd0: begin
        if (walk_req && timer == 2'd3) begin
          state <= 2'd1;
          timer <= 2'd0;
        end else if (timer != 2'd3)
          timer <= timer + 2'd1;
      end
      2'd1: state <= 2'd2;
      2'd2: begin
        if (timer == 2'd2) begin
          state <= 2'd0;
          timer <= 2'd0;
        end else
          timer <= timer + 2'd1;
      end
      default: state <= 2'd0;
    endcase
  end
endmodule
)";

} // namespace

int
main()
{
    archval::telemetry::initTelemetryFromEnv();
    std::printf("=== Part 1: annotated Verilog -> FSM -> tours ===\n");
    auto translated = hdl::translateSource(trafficLight, "traffic");
    if (!translated.ok()) {
        std::fprintf(stderr, "translate failed: %s\n",
                     translated.errorMessage().c_str());
        return 1;
    }
    for (const auto &note : translated.value().notes)
        std::printf("note: %s\n", note.c_str());

    core::ModelExploration exploration =
        core::exploreModel(*translated.value().model);
    std::printf("%s\n", exploration.render().c_str());

    std::printf("=== Part 2: Protocol Processor validation ===\n");
    core::PpValidationFlow flow(rtl::PpConfig::smallPreset());
    flow.enumerate();
    std::printf("PP control: %s states, %s edges\n",
                withCommas(flow.enumStats().numStates).c_str(),
                withCommas(flow.enumStats().numEdges).c_str());

    core::FlowReport clean = flow.run();
    std::printf("\nbug-free design:\n%s", clean.render().c_str());

    rtl::BugSet bugs;
    bugs.set(static_cast<size_t>(rtl::BugId::Bug5MembusGlitch));
    core::FlowReport buggy = flow.simulate(bugs);
    std::printf("\nwith PP bug #5 injected (%s):\n%s",
                rtl::bugSummary(rtl::BugId::Bug5MembusGlitch),
                buggy.render().c_str());

    std::printf("\nverdict: clean design %s, buggy design %s\n",
                clean.bugFound() ? "DIVERGED (unexpected!)"
                                 : "matches the specification",
                buggy.bugFound() ? "caught by the generated vectors"
                                 : "NOT caught (unexpected!)");
    return clean.bugFound() || !buggy.bugFound();
}
