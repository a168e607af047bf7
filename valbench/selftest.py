#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on the small preset (seconds).

  python3 valbench/selftest.py

Runs every workload untraced and traced, on a seed with committed
hashes and on one without, and checks that each run is correct and
reports exactly BENCHMARK.json's metric names with their units. Then
corrupts committed expected values and checks that the run reports the
failure (correct false, every operation failed) instead of passing.
Exits 0 when every case holds.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())
UNCOMMITTED_SEED = 3
WORKLOADS = ("pp_flow_full", "pp_bug_matrix", "pp_enum_spill")


def run(workload, seed, trace, expected=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
           "--preset", "small"]
    if expected:
        cmd += ["--expected", expected]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_shape(result, trace):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    assert result["attempted"] >= 1


def main():
    assert SPEC["workloads"] and SPEC["end_to_end"] and SPEC["per_layer"]
    assert "1" in EXPECTED["small"]["seeds"]
    cases = 0
    # pp_flow_full is not in BENCHMARK.json (see run.py) but stays
    # runnable, so it is tested too.
    for w in WORKLOADS:
        for seed, trace in ((1, 0), (1, 1), (UNCOMMITTED_SEED, 0)):
            result = run(w, seed, trace)
            check_shape(result, trace)
            assert result["correct"] and result["failed"] == 0, (w, result)
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                assert m["trace.coverage"] >= 0.95, (w, m)
                assert m["murphi.wall_s"] > 0, w
            cases += 1

    # A wrong committed value must fail the run, not pass it.
    corruptions = (
        ("pp_flow_full", ("seeds", "1", "vectors.hash")),
        ("pp_bug_matrix", ("seeds", "1", "pp_bug_matrix", "results.hash")),
        ("pp_enum_spill", ("graph.fingerprint",)),
    )
    for workload, path in corruptions:
        doc = json.loads(json.dumps(EXPECTED))
        node = doc["small"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = "0" * 16
        with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
            json.dump(doc, f)
            f.flush()
            result = run(workload, 1, 0, expected=f.name)
        check_shape(result, 0)
        assert not result["correct"], (workload, path)
        assert result["failed"] == result["attempted"], (workload, path)
        assert result["metrics"]["passed_frac"]["value"] == 0.0
        cases += 1
    print(f"selftest: {cases} cases passed")


if __name__ == "__main__":
    main()
