#!/usr/bin/env python3
"""Repository benchmark: build valbench from source and run one workload.

  python3 valbench/run.py --workload pp_flow_full --seed 1 --seconds 10 \\
      --trace 0 [--preset small] [--expected FILE]

Run from the repository root (any directory works; paths are resolved
from this file). Each run configures and builds an optimised valbench
under .bench_build/ (incrementally after the first, which takes about a
minute on 4 CPUs).

The valbench program's diagnostics and the build log go to stderr. The last line
of stdout is one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are BENCHMARK.json's
end_to_end list; with --trace 1 its per_layer list, from a run whose
spans are summarised (and gated at 95% coverage) by
tools/trace_summary.py. The line before it is valbench's full report:
host, build type, check values and every metric.

Exact outputs (graph, stimulus and result hashes, simulated rtl
statistics) are compared with expected.json for the seeds it lists; for
any other seed only the seed-independent values are compared, and the
costly stimulus hash is skipped. A mismatch counts every operation of
the run as failed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "valbench"
# pp_flow_full (the whole flow, one ~35 s single-threaded job per run)
# is runnable but not listed in BENCHMARK.json: one job per run gives
# no steady figure on a shared host (IQR/median up to 0.26).
WORKLOADS = ("pp_flow_full", "pp_bug_matrix", "pp_enum_spill")
# A full-preset pp_bug_matrix run takes 55-80 s on a 4-CPU host; stay
# inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"valbench: {msg}", file=sys.stderr, flush=True)


def build(env):
    """Configure and build incrementally (serialised by a lock)."""
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    ["cmake", "--build", str(BUILD), "-j", "4"]):
            if subprocess.run(cmd, stdout=sys.stderr,
                              env=env).returncode != 0:
                sys.exit(f"valbench: build failed: {' '.join(cmd)}")
    return BUILD / "valbench"


def expected_values(path, preset, seed, workload):
    """Exact values to compare, and whether the seed has committed ones.

    A preset's plain values hold for every workload and seed; a section
    named after a workload overrides them for it (pp_enum_spill runs its
    own model on the full preset).
    """
    doc = json.loads(Path(path).read_text())[preset]
    exact = {k: v for k, v in doc.items() if not isinstance(v, dict)}
    exact.update(doc.get(workload, {}))
    per_seed = doc["seeds"].get(str(seed))
    if per_seed is None:
        return exact, False
    exact.update({k: v for k, v in per_seed.items()
                  if not isinstance(v, dict)})
    exact.update(per_seed.get(workload, {}))
    return exact, True


def mismatches(checks, exact, seed_known):
    """Check values that differ from, or lack, a committed value."""
    out = []
    for key, value in sorted(checks.items()):
        if key in exact:
            if exact[key] != value:
                out.append(f"{key}: got {value!r}, expected {exact[key]!r}")
        elif seed_known:
            out.append(f"{key}: no expected value committed")
    return out


def summarise_trace(trace):
    """Gate the trace with tools/trace_summary.py (printed to stderr)."""
    cmd = [sys.executable, str(ROOT / "tools" / "trace_summary.py"),
           str(trace), "--check", "--min-coverage", "95"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("valbench: trace_summary.py rejected the trace")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--preset", choices=("full", "small"),
                        default="full")
    parser.add_argument("--expected", default=str(HERE / "expected.json"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    exact, seed_known = expected_values(args.expected, args.preset,
                                        args.seed, args.workload)
    # Keep every file the build and valbench write (compiler
    # temporaries included) inside the checkout.
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    env.pop("ARCHVAL_TRACE", None)
    binary = build(env)

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--preset", args.preset,
           "--hash-vectors", str(int(seed_known)),
           "--scratch", str(BUILD)]
    trace = BUILD / f"trace-{args.workload}.json"
    if args.trace:
        env["ARCHVAL_TRACE"] = str(trace)
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"valbench: exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if args.trace:
        summarise_trace(trace)

    attempted, failed = report["attempted"], report["failed"]
    bad = mismatches(report["checks"], exact, seed_known)
    for line in bad:
        log(f"check failed: {line}")
    if bad:
        failed = attempted
    if not seed_known:
        log(f"seed {args.seed} has no committed hashes; "
            "checked the seed-independent values only")

    values = dict(report["end_to_end"])
    values["passed_frac"] = (attempted - failed) / attempted
    values.update(report.get("per_layer", {}))
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            sys.exit(f"valbench: reported no {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
