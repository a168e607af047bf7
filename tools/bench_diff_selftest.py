#!/usr/bin/env python3
"""Self-test of tools/bench_diff.py (the `bench_diff_selftest` ctest).

Writes pairs of small bench emissions to a temporary directory and
runs bench_diff.py on each pair:

  * identical emissions pass (exit 0);
  * a current emission that lacks an exact row key the baseline holds
    (`transitions_valid`) fails (exit 1) and names the key;
  * so does one that lacks a gated row key or a gated registry metric;
  * one that lacks only an informational key (wall time) passes.

Usage: tools/bench_diff_selftest.py <bench_diff.py>
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

BASELINE = {
    "bench": "enum_scaling",
    "rows": [
        {
            "section": "ablation",
            "design": "pp_small",
            "states": 36933,
            "transitions_valid": 36933,
            "simulated_cycles": 1000,
            "wall_s": 0.5,
        },
    ],
    "metrics": {"replay.cycles_simulated": 1000},
}


def without(doc, key, metric=False):
    """@return a deep copy of @p doc with @p key dropped from its row
    (or from its registry metrics)."""
    doc = copy.deepcopy(doc)
    if metric:
        del doc["metrics"][key]
    else:
        del doc["rows"][0][key]
    return doc


def run(script, tmp, name, current):
    """Write BASELINE and @p current, diff them; @return (code, out)."""
    paths = []
    for label, doc in (("baseline", BASELINE), ("current", current)):
        path = os.path.join(tmp, f"{name}.{label}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        paths.append(path)
    proc = subprocess.run([sys.executable, script, *paths],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    script = sys.argv[1]
    cases = [
        ("identical", copy.deepcopy(BASELINE), 0, None),
        ("no_exact_key", without(BASELINE, "transitions_valid"), 1,
         "transitions_valid missing from current run"),
        ("no_gated_key", without(BASELINE, "simulated_cycles"), 1,
         "simulated_cycles missing from current run"),
        ("no_gated_metric",
         without(BASELINE, "replay.cycles_simulated", metric=True), 1,
         "replay.cycles_simulated missing from current run"),
        ("no_info_key", without(BASELINE, "wall_s"), 0, None),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, current, want_code, want_text in cases:
            code, out = run(script, tmp, name, current)
            ok = code == want_code and (want_text is None or
                                        want_text in out)
            if not ok:
                failures += 1
                print(f"bench_diff_selftest: {name}: exit {code} "
                      f"(want {want_code}), output:\n{out}",
                      file=sys.stderr)
    if failures:
        return 1
    print(f"bench_diff selftest ok ({len(cases)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
