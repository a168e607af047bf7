#!/usr/bin/env python3
"""Gate for the `pipeline_smoke` ctest.

Runs `pp_validation small` with ARCHVAL_TRACE pointing at a temporary
file, then gates the trace with trace_summary.py: the flow's
top-level spans must cover at least 95% of the traced wall-clock,
and the vector generator must have reported its work.

Usage: tools/pipeline_smoke.py <path-to-pp_validation-binary>
"""

import os
import subprocess
import sys
import tempfile


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
             "--require-metric", "vecgen.cycles>=1",
             "--require-metric", "vecgen.edges_summarized>=1"])
        if check.returncode != 0:
            print("trace_summary gate failed", file=sys.stderr)
            return 1

    print("pipeline smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
