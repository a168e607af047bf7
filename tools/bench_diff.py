#!/usr/bin/env python3
"""Diff a bench --json emission against its committed baseline.

Usage:
    bench_diff.py BASELINE CURRENT [--threshold 0.20]

Exit codes:
    0   no gated metric regressed
    1   regression (or structural mismatch) detected
    77  CURRENT does not exist — the bench has not been run in this
        build tree; ctest treats 77 as SKIP (SKIP_RETURN_CODE)

Rows are matched on their identifying keys (sweep coordinates such as
workers/stride/bug). Metrics fall into three classes:

  * exact    — must not change at all: correctness booleans and
               deterministic structure counts (states, edges,
               identical, *_detected). Any drift is a bug, not a
               regression.
  * gated    — performance counters that are allowed to drift up to
               the threshold (default 20%) in the bad direction:
               lower-is-better (simulated cycles) or higher-is-better
               (avoided fraction, stride savings).
  * informational — everything else, most importantly wall-clock and
               CPU seconds: machine-dependent, reported but never
               gated (the committed baseline may come from different
               hardware — see the "host" object in each emission).

An exact or gated key (row metric or registry metric) that the
baseline holds and the current emission lacks is a failure; only
informational keys may be absent.
"""

import argparse
import json
import sys

# Keys that identify a row within a bench (sweep coordinates).
ID_KEYS = (
    "section",
    "kind",
    "configuration",
    "design",
    "mode",
    "benchmark",
    "workers",
    "stride",
    "budget_kb",
    "bug",
    "mutation",
    "limit",
)

# Metrics that must match the baseline exactly.
EXACT_KEYS = {
    "identical",
    "states",
    "edges",
    "batch_cycles",
    "traces",
    "instructions",
    "longest_trace_edges",
    "tour_detected",
    "random_detected",
    "directed_detected",
    "transitions_tried",
    "transitions_valid",
    "covered_edges",
    "uncovered_edges",
    "tour_budget_instructions",
    "mutated_states",
    "mutated_edges",
    "spill_fallbacks",
    "residency_under_budget",
}
EXACT_SUFFIXES = ("_detected",)

# Gated metrics and their good direction.
LOWER_IS_BETTER = {
    "simulated_cycles",
    "bits_per_state",
    "tour_instructions",
    "tour_cycles",
}
HIGHER_IS_BETTER = {
    "avoided_fraction",
    "stride_savings",
    "coverage_fraction",
    "speedup_bytecode",
}

# Absolute floors, independent of the baseline: on rows flagged
# `"largest": true` (the biggest HDL corpus design) the bytecode
# step must clear its headline speedup over the interpreter.
# A baseline captured on a fast machine must not let a broken step
# hide inside the 20% drift window.
MIN_FLOORS = {
    "speedup_bytecode": 2.0,
}

# Observability counters from the embedded telemetry registry
# snapshot (the emission's top-level "metrics" object). Gated with
# the same drift threshold as row metrics; everything not named here
# (wall-clock histograms, gauges) is informational.
METRICS_LOWER_IS_BETTER = {
    "replay.cycles_simulated",
    # Service health: jobs turned away or failed, protocol damage
    # and enumeration spill fallbacks are regressions when they grow.
    "service.jobs_failed",
    "service.jobs_rejected",
    "service.frame_errors",
    "service.session_restore_failures",
    "enum.spill_fallbacks",
}
METRICS_HIGHER_IS_BETTER = {
    "replay.stride_hits",
    "replay.bug_set_copies",
    "replay.cycles_avoided",
    "fuzz.arc_novel",
    "fuzz.state_novel",
    "service.jobs_done",
    "service.session_hits",
    "replay.warm_hits",
}
METRICS_EXACT = {
    "enum.states",
    "enum.edges",
    # Deterministic counts of the tour and its stimulus: a tour that
    # expands to other walks moves them.
    "tour.traversals",
    "vecgen.cycles",
    "vecgen.traces",
}


def row_id(row):
    """Identity of a row: its sweep coordinates."""
    return tuple((k, row[k]) for k in ID_KEYS if k in row)


def classify(key):
    if key in EXACT_KEYS or key.endswith(EXACT_SUFFIXES):
        return "exact"
    if key in LOWER_IS_BETTER:
        return "lower"
    if key in HIGHER_IS_BETTER:
        return "higher"
    return "info"


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if "rows" not in doc or not isinstance(doc["rows"], list):
        raise ValueError(f"{path}: not a bench emission (no rows)")
    return doc


def main():
    parser = argparse.ArgumentParser(
        description="Gate bench results against a committed baseline."
    )
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="allowed fractional drift in the bad direction "
        "(default 0.20)",
    )
    args = parser.parse_args()

    try:
        current = load(args.current)
    except FileNotFoundError:
        print(
            f"SKIP: {args.current} not found — run the bench with "
            f"--json first",
            file=sys.stderr,
        )
        return 77
    baseline = load(args.baseline)  # committed: missing is an error

    if baseline.get("bench") != current.get("bench"):
        print(
            f"FAIL: bench name mismatch: baseline "
            f"{baseline.get('bench')!r} vs current "
            f"{current.get('bench')!r}",
            file=sys.stderr,
        )
        return 1

    current_rows = {row_id(r): r for r in current["rows"]}
    failures = []
    compared = 0

    for base_row in baseline["rows"]:
        rid = row_id(base_row)
        label = " ".join(f"{k}={v}" for k, v in rid) or "(row)"
        cur_row = current_rows.get(rid)
        if cur_row is None:
            failures.append(f"{label}: row missing from current run")
            continue
        for key, base_val in base_row.items():
            if key in ID_KEYS:
                continue
            kind = classify(key)
            if key not in cur_row:
                # A bench that stops emitting a pinned or gated value
                # must not pass its gate by omission.
                if kind != "info":
                    failures.append(f"{label}: {key} missing from "
                                    f"current run")
                continue
            cur_val = cur_row[key]
            if kind == "exact":
                compared += 1
                if cur_val != base_val:
                    failures.append(
                        f"{label}: {key} changed "
                        f"{base_val!r} -> {cur_val!r} (must be exact)"
                    )
                continue
            if kind == "info":
                continue
            if not isinstance(base_val, (int, float)) or not isinstance(
                cur_val, (int, float)
            ):
                continue
            compared += 1
            if base_val == 0:
                # No relative scale; only flag a higher-is-better
                # metric that has collapsed below an absolute zero
                # baseline (impossible) — i.e. nothing to gate.
                continue
            drift = (cur_val - base_val) / base_val
            bad = drift > args.threshold if kind == "lower" else (
                -drift > args.threshold
            )
            if bad:
                failures.append(
                    f"{label}: {key} regressed "
                    f"{base_val:g} -> {cur_val:g} "
                    f"({100 * drift:+.1f}%, threshold "
                    f"{100 * args.threshold:.0f}%)"
                )

    # Out-of-core absolute gate (no baseline needed): every
    # budget-capped ooc_sweep row must have completed the largest
    # corpus design bit-identically with residency under budget —
    # a machine-independent correctness claim, never drift-gated.
    for cur_row in current["rows"]:
        if cur_row.get("kind") != "ooc_sweep":
            continue
        label = " ".join(f"{k}={v}" for k, v in row_id(cur_row)) \
            or "(row)"
        compared += 1
        if cur_row.get("identical") is not True:
            failures.append(
                f"{label}: out-of-core graph diverged from the "
                f"in-memory enumeration"
            )
        if cur_row.get("states", 0) <= 0:
            failures.append(f"{label}: enumerated no states")
        if cur_row.get("budget_kb", 0) > 0 and cur_row.get(
            "residency_under_budget"
        ) is not True:
            failures.append(
                f"{label}: residency exceeded the memory budget "
                f"(high water "
                f"{cur_row.get('residency_high_water')!r}, "
                f"fallbacks {cur_row.get('spill_fallbacks')!r})"
            )

    # Absolute floors on the current emission (no baseline needed):
    # see MIN_FLOORS.
    for cur_row in current["rows"]:
        if not cur_row.get("largest"):
            continue
        label = " ".join(f"{k}={v}" for k, v in row_id(cur_row)) \
            or "(row)"
        for key, floor in MIN_FLOORS.items():
            value = cur_row.get(key)
            if not isinstance(value, (int, float)):
                continue
            compared += 1
            if value < floor:
                failures.append(
                    f"{label}: {key} = {value:g} below the "
                    f"absolute floor {floor:g}"
                )

    # Observability gating: the registry snapshot embedded by
    # JsonWriter. Baselines without one (pre-telemetry) skip this
    # block, so old baselines stay valid.
    base_metrics = baseline.get("metrics", {})
    cur_metrics = current.get("metrics", {})
    for name, base_val in base_metrics.items():
        if name in METRICS_EXACT:
            compared += 1
            if name not in cur_metrics:
                failures.append(f"metrics: {name} missing from current "
                                f"run")
            elif cur_metrics[name] != base_val:
                failures.append(
                    f"metrics: {name} changed {base_val!r} -> "
                    f"{cur_metrics[name]!r} (must be exact)"
                )
            continue
        if name in METRICS_LOWER_IS_BETTER:
            direction = "lower"
        elif name in METRICS_HIGHER_IS_BETTER:
            direction = "higher"
        else:
            continue
        if name not in cur_metrics:
            failures.append(f"metrics: {name} missing from current run")
            continue
        cur_val = cur_metrics[name]
        if not isinstance(base_val, (int, float)) or not isinstance(
            cur_val, (int, float)
        ):
            continue
        compared += 1
        if base_val == 0:
            continue
        drift = (cur_val - base_val) / base_val
        bad = drift > args.threshold if direction == "lower" else (
            -drift > args.threshold
        )
        if bad:
            failures.append(
                f"metrics: {name} regressed {base_val:g} -> "
                f"{cur_val:g} ({100 * drift:+.1f}%, threshold "
                f"{100 * args.threshold:.0f}%)"
            )

    bench = baseline.get("bench")
    if failures:
        print(f"FAIL: {bench}: {len(failures)} regression(s):")
        for f in failures:
            print(f"  {f}")
        return 1
    print(
        f"OK: {bench}: {compared} gated metrics within "
        f"{100 * args.threshold:.0f}% of baseline "
        f"({len(baseline['rows'])} rows)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
