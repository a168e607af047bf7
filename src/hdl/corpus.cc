/**
 * @file
 * Built-in annotated-Verilog design corpus. See corpus.hh.
 */

#include "hdl/corpus.hh"

#include "support/status.hh"

namespace archval::hdl
{
namespace
{

/** Two-floor elevator with door timer and request latching. */
const char *elevator = R"(
module elevator(clk, req0, req1);
  input clk;
  input req0;
  input req1;
  reg floor;        // vfsm state floor reset 0
  reg [1:0] mode;   // vfsm state mode reset 0  (0=idle,1=move,2=door)
  reg [1:0] timer;  // vfsm state timer reset 0
  reg pend0;        // vfsm state pend0 reset 0
  reg pend1;        // vfsm state pend1 reset 0

  wire want_here;
  wire want_there;
  assign want_here = (floor == 1'b0 && pend0) ||
                     (floor == 1'b1 && pend1);
  assign want_there = (floor == 1'b0 && pend1) ||
                      (floor == 1'b1 && pend0);

  always @(posedge clk) begin
    if (req0) pend0 <= 1'b1;
    if (req1) pend1 <= 1'b1;

    case (mode)
      2'd0: begin                 // idle
        if (want_here) begin
          mode <= 2'd2;           // open the door here
          timer <= 2'd0;
        end else if (want_there)
          mode <= 2'd1;           // start moving
      end
      2'd1: begin                 // moving (one cycle per floor)
        floor <= !floor;
        mode <= 2'd2;
        timer <= 2'd0;
      end
      2'd2: begin                 // door open, 2-cycle dwell
        if (timer == 2'd1) begin
          if (floor == 1'b0) pend0 <= 1'b0;
          else pend1 <= 1'b0;
          mode <= 2'd0;
        end else
          timer <= timer + 2'd1;
      end
      default: mode <= 2'd0;
    endcase
  end
endmodule
)";

/** Credit-based flow-control sender: a classic protocol FSM. */
const char *creditSender = R"(
module credit_sender(clk, want_send, credit_return);
  input clk;
  input want_send;
  input credit_return;
  parameter MAX = 3;
  reg [1:0] credits;  // vfsm state credits reset 3
  wire can_send;
  assign can_send = credits != 2'd0;  // vfsm instr sent
  wire sent;
  assign sent = want_send && can_send;

  always @(posedge clk) begin
    if (sent && !credit_return)
      credits <= credits - 2'd1;
    else if (!sent && credit_return && credits != MAX)
      credits <= credits + 2'd1;
  end
endmodule
)";

/**
 * Four-channel DMA arbiter: the corpus "largest" design. Twelve state
 * bits and 32 choice combinations per state give wide BFS frontiers
 * (hundreds of states per level); the priority encoder, burst
 * arithmetic and completion counter give the bytecode a realistic
 * amount of combinational work.
 */
const char *dmaArbiter = R"(
module dma_arbiter(clk, req0, req1, req2, req3, done);
  input clk;
  input req0;
  input req1;
  input req2;
  input req3;
  input done;
  reg [1:0] grant;   // vfsm state grant reset 0
  reg busy;          // vfsm state busy reset 0
  reg [1:0] burst;   // vfsm state burst reset 0
  reg p0;            // vfsm state p0 reset 0
  reg p1;            // vfsm state p1 reset 0
  reg p2;            // vfsm state p2 reset 0
  reg p3;            // vfsm state p3 reset 0
  reg [2:0] served;  // vfsm state served reset 0

  wire any_pending;
  assign any_pending = p0 || p1 || p2 || p3;
  wire [1:0] pick;   // fixed-priority encoder
  assign pick = p0 ? 2'd0 : (p1 ? 2'd1 : (p2 ? 2'd2 : 2'd3));
  wire beat;
  assign beat = busy && done;  // vfsm instr beat
  wire finished;
  assign finished = beat && burst == 2'd0;

  always @(posedge clk) begin
    if (req0) p0 <= 1'b1;
    if (req1) p1 <= 1'b1;
    if (req2) p2 <= 1'b1;
    if (req3) p3 <= 1'b1;

    if (!busy && any_pending) begin
      grant <= pick;
      busy <= 1'b1;
      burst <= served[1:0] + 2'd1;  // vary burst length over time
    end else if (finished) begin
      busy <= 1'b0;
      served <= served + 3'd1;
      case (grant)
        2'd0: p0 <= 1'b0;
        2'd1: p1 <= 1'b0;
        2'd2: p2 <= 1'b0;
        default: p3 <= 1'b0;
      endcase
    end else if (beat)
      burst <= burst - 2'd1;
  end
endmodule
)";

/**
 * Barrel rotator: rotates an 8-bit pattern by a variable amount each
 * cycle. The data-dependent shift counts exercise the bytecode's
 * shifts by a register rather than a constant.
 */
const char *barrelRotator = R"(
module barrel_rotator(clk, amt, en);
  input clk;
  input [1:0] amt;
  input en;
  reg [7:0] pattern;  // vfsm state pattern reset 1
  wire [3:0] inv;
  assign inv = 4'd8 - {2'd0, amt};
  wire [7:0] rotated;
  assign rotated = (pattern << amt) | (pattern >> inv);

  always @(posedge clk)
    if (en) pattern <= rotated;
endmodule
)";

} // namespace

const std::vector<CorpusDesign> &
designCorpus()
{
    static const std::vector<CorpusDesign> corpus = {
        {"elevator", "elevator", elevator, false},
        {"credit_sender", "credit_sender", creditSender, false},
        {"dma_arbiter", "dma_arbiter", dmaArbiter, true},
        {"barrel_rotator", "barrel_rotator", barrelRotator, false},
    };
    return corpus;
}

const CorpusDesign &
largestCorpusDesign()
{
    for (const auto &design : designCorpus()) {
        if (design.largest)
            return design;
    }
    fatal("design corpus has no largest entry");
}

Result<TranslateResult>
translateCorpus(const CorpusDesign &design)
{
    return translateSource(design.source, design.top);
}

} // namespace archval::hdl
