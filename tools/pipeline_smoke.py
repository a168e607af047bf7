#!/usr/bin/env python3
"""Gate for the `pipeline_smoke` ctest.

Runs `pp_validation small` with ARCHVAL_TRACE pointing at a temporary
file, then gates the trace with trace_summary.py: the flow's
top-level spans must cover at least 95% of the traced wall-clock,
and the tour generator and the vector generator must have reported
their work. The simulate phase must have run on the replay engine
with the tour lockstep checked and clean, and the vectors phase must
have recorded its memory. The traces it generates must also stay
compact: the small preset's 309,530 cycles at 2 bytes each, 110,102
fetch words, 0 squashed positions and 15,021 inbox words at 4 bytes
each hold 1,119,552 bytes, and the gate allows 10% above that. A
second copy of the retired words (1,559,960 bytes) or 44-byte cycles
(14.6 MB) fail it.

Usage: tools/pipeline_smoke.py <path-to-pp_validation-binary>
"""

import os
import subprocess
import sys
import tempfile

# vecgen.trace_bytes of `pp_validation small`, plus 10%.
MAX_SMALL_TRACE_BYTES = 1_119_552 * 11 // 10


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    binary = sys.argv[1]
    summary = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "trace_summary.py")

    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "pipeline_trace.json")
        env = dict(os.environ, ARCHVAL_TRACE=trace)
        run = subprocess.run([binary, "small"], env=env,
                             stdout=subprocess.DEVNULL)
        if run.returncode != 0:
            print(f"pp_validation failed (exit {run.returncode})",
                  file=sys.stderr)
            return 1
        if not os.path.exists(trace):
            print("pp_validation wrote no trace file", file=sys.stderr)
            return 1

        check = subprocess.run(
            [sys.executable, summary, trace, "--check",
             "--min-coverage", "95",
             "--require-metric", "tour.traversals>=1",
             "--require-metric", "vecgen.cycles>=1",
             "--require-metric", "vecgen.edges_summarized>=1",
             "--require-metric", "vecgen.trace_bytes>=1",
             "--require-metric", "flow.vectors.peak_rss_bytes>=1",
             "--require-metric",
             f"vecgen.trace_bytes<={MAX_SMALL_TRACE_BYTES}",
             "--require-metric", "replay.jobs>=1",
             "--require-metric", "replay.cycles_simulated>=1",
             "--require-metric", "replay.lockstep_errors==0"])
        if check.returncode != 0:
            print("trace_summary gate failed", file=sys.stderr)
            return 1

    print("pipeline smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
