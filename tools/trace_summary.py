#!/usr/bin/env python3
"""Summarize an archval Chrome-trace-event JSON file.

Aggregates the `ph: "X"` complete events emitted by
`support/telemetry` (ARCHVAL_TRACE=out.json) into:

  * a per-phase table: for each span name, the call count, total
    (inclusive) time, self time (total minus time spent in child
    spans on the same thread), and share of measured wall-clock;
  * a per-thread table: for each thread *name* (merging the
    short-lived OS threads that share one, such as the vector
    generator's workers of successive calls), busy time, extent
    (first span start to last span end) and utilization %
    (busy / extent);
  * overall coverage: the fraction of the trace's wall-clock
    (earliest start to latest end across all threads) accounted for
    by top-level spans.

Usage:
  tools/trace_summary.py trace.json            # print the tables
  tools/trace_summary.py trace.json --check    # validate; exit 1 on
                                               # schema errors or an
                                               # empty trace
  tools/trace_summary.py trace.json --min-coverage 95
  tools/trace_summary.py trace.json --check \\
      --require-metric 'enum.page_outs>=1' \\
      --require-metric 'enum.spill_fallbacks==0'
  tools/trace_summary.py trace.json --job 3   # only job 3's spans

Service traces stamp each span with the job correlation id that was
live on its thread (`args.job`), including spans recorded by the
replay engine's worker threads. When job-stamped
spans are present a per-job self-time table is printed; `--job <id>`
restricts every table to one job's spans across all threads.
"""

import argparse
import json
import re
import sys
from collections import defaultdict


def fail(msg):
    print(f"trace_summary: {msg}", file=sys.stderr)
    sys.exit(1)


def load_trace(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: not a trace-event file (no traceEvents)")
    if not isinstance(doc["traceEvents"], list):
        fail(f"{path}: traceEvents is not a list")
    return doc


def validate_events(events):
    """Schema check; returns (spans, thread_names)."""
    spans = []
    thread_names = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict) or "ph" not in ev:
            fail(f"event {i}: missing ph")
        ph = ev["ph"]
        if ph == "M":
            if ev.get("name") == "thread_name":
                thread_names[ev.get("tid")] = ev["args"]["name"]
            continue
        if ph != "X":
            fail(f"event {i}: unexpected phase {ph!r}")
        for key in ("name", "tid", "ts", "dur"):
            if key not in ev:
                fail(f"event {i}: X event missing {key!r}")
        if not isinstance(ev["ts"], (int, float)) or not isinstance(
            ev["dur"], (int, float)
        ):
            fail(f"event {i}: ts/dur not numeric")
        if ev["dur"] < 0:
            fail(f"event {i}: negative duration")
        spans.append(ev)
    return spans, thread_names


def compute_self_times(spans):
    """Self time per span = dur minus child time, per-thread nesting.

    Within one thread, spans nest (RAII scoping guarantees it up to
    clock granularity); a sweep with a stack per tid attributes each
    span's interval to the innermost enclosing span.

    Returns (per-name dict of {count, total, self},
             per-tid top-level busy time dict).
    """
    by_tid = defaultdict(list)
    for ev in spans:
        by_tid[ev["tid"]].append(ev)

    names = defaultdict(lambda: {"count": 0, "total": 0.0, "self": 0.0})
    top_busy = defaultdict(float)

    for tid, evs in by_tid.items():
        # Sort by start; longer span first on ties so parents precede
        # children.
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # (end, name, child_time_accumulator list)
        for ev in evs:
            start, dur = ev["ts"], ev["dur"]
            end = start + dur
            while stack and stack[-1][0] <= start:
                stack.pop()
            if stack:
                stack[-1][2][0] += dur
            else:
                top_busy[tid] += dur
            rec = names[ev["name"]]
            rec["count"] += 1
            rec["total"] += dur
            child_acc = [0.0]
            stack.append((end, ev["name"], child_acc))
            # Self time is resolved lazily: subtract children when
            # the span is popped — but pops happen implicitly above,
            # so instead record (dur - children) once all children
            # have been seen. Defer via closure list.
            ev["_child_acc"] = child_acc
        for ev in evs:
            names[ev["name"]]["self"] += ev["dur"] - ev["_child_acc"][0]
    return names, top_busy


def thread_table(spans, thread_names):
    """Per-thread-name busy/extent/utilization (tids merged)."""
    per_tid = defaultdict(lambda: {"busy": 0.0, "min": None, "max": None})
    # Busy time must not double-count nested spans: use top-level
    # spans only, recomputed per tid.
    by_tid = defaultdict(list)
    for ev in spans:
        by_tid[ev["tid"]].append(ev)
    for tid, evs in by_tid.items():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        open_end = -1.0
        rec = per_tid[tid]
        for ev in evs:
            start, end = ev["ts"], ev["ts"] + ev["dur"]
            rec["min"] = start if rec["min"] is None else min(rec["min"], start)
            rec["max"] = end if rec["max"] is None else max(rec["max"], end)
            if start >= open_end:  # top-level span
                rec["busy"] += ev["dur"]
                open_end = end
            elif end > open_end:
                # overlap past the current top-level span (clock skew
                # at ns->us rounding): count only the excess
                rec["busy"] += end - open_end
                open_end = end
    merged = defaultdict(lambda: {"busy": 0.0, "extent": 0.0, "tids": 0})
    for tid, rec in per_tid.items():
        name = thread_names.get(tid, f"thread-{tid}")
        m = merged[name]
        m["busy"] += rec["busy"]
        m["extent"] += (rec["max"] - rec["min"]) if rec["max"] is not None else 0
        m["tids"] += 1
    return merged


def span_job(ev):
    """The job correlation id stamped on a span, or None."""
    args = ev.get("args")
    if isinstance(args, dict) and isinstance(args.get("job"), int):
        return args["job"]
    return None


def job_table(spans):
    """Per-job count/total/self/threads. Requires compute_self_times
    to have annotated each span with its child-time accumulator."""
    jobs = defaultdict(
        lambda: {"count": 0, "total": 0.0, "self": 0.0, "tids": set()}
    )
    for ev in spans:
        job = span_job(ev)
        if job is None:
            continue
        rec = jobs[job]
        rec["count"] += 1
        rec["total"] += ev["dur"]
        rec["self"] += ev["dur"] - ev["_child_acc"][0]
        rec["tids"].add(ev["tid"])
    return jobs


def check_metric(doc, requirement):
    """Assert one `NAME`, `NAME>=N`, `NAME<=N` or `NAME==N`
    requirement against otherData.metrics (the registry snapshot the
    tracing runtime appends to every trace file). A bare NAME only
    requires the metric to be present."""
    m = re.fullmatch(r"([\w.]+)\s*(?:(>=|<=|==)\s*(-?\d+(?:\.\d+)?))?",
                     requirement.strip())
    if not m:
        fail(f"bad --require-metric expression {requirement!r}")
    name, op, want = m.group(1), m.group(2), m.group(3)
    metrics = doc.get("otherData", {}).get("metrics", {})
    if not isinstance(metrics, dict):
        fail("otherData.metrics is not an object")
    if name not in metrics:
        fail(f"metric {name!r} absent from trace "
             f"(have: {', '.join(sorted(metrics)) or 'none'})")
    value = metrics[name]
    if not isinstance(value, (int, float)):
        fail(f"metric {name!r} is not numeric: {value!r}")
    if op is not None:
        want = float(want)
        ok = {">=": value >= want,
              "<=": value <= want,
              "==": value == want}[op]
        if not ok:
            fail(f"metric {name} = {value}, requirement: {name}{op}{want:g}")
    print(f"metric ok: {name} = {value}"
          + (f" ({op} {want:g})" if op else ""))


def fmt_ms(us):
    return f"{us / 1000.0:.3f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="trace JSON file (ARCHVAL_TRACE output)")
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate schema and require a nonzero span count",
    )
    parser.add_argument(
        "--min-coverage",
        type=float,
        default=None,
        metavar="PCT",
        help="fail unless top-level spans cover at least PCT%% of wall-clock",
    )
    parser.add_argument(
        "--job",
        type=int,
        default=None,
        metavar="ID",
        help="restrict every table to spans stamped with this job "
        "correlation id (args.job), across threads",
    )
    parser.add_argument(
        "--require-metric",
        action="append",
        default=[],
        metavar="NAME[>=N|<=N|==N]",
        help="fail unless otherData.metrics satisfies the expression "
        "(repeatable; bare NAME requires presence only)",
    )
    args = parser.parse_args()

    doc = load_trace(args.trace)
    spans, thread_names = validate_events(doc["traceEvents"])

    for requirement in args.require_metric:
        check_metric(doc, requirement)

    if args.job is not None:
        jobs_present = sorted(
            {span_job(ev) for ev in spans} - {None}
        )
        spans = [ev for ev in spans if span_job(ev) == args.job]
        if not spans:
            fail(
                f"no spans stamped with job {args.job} "
                f"(jobs in trace: "
                f"{', '.join(map(str, jobs_present)) or 'none'})"
            )

    if args.check and not spans:
        fail("trace contains no spans")

    if not spans:
        print("empty trace (no spans)")
        return

    names, top_busy = compute_self_times(spans)
    threads = thread_table(spans, thread_names)

    wall_start = min(ev["ts"] for ev in spans)
    wall_end = max(ev["ts"] + ev["dur"] for ev in spans)
    wall = wall_end - wall_start

    # Coverage: wall-clock accounted for by the busiest thread's
    # top-level spans (the main/orchestrating thread defines the
    # run's timeline; worker threads overlap it).
    covered = max(top_busy.values()) if top_busy else 0.0
    coverage = 100.0 * covered / wall if wall > 0 else 100.0

    print(f"trace: {args.trace}")
    print(
        f"wall-clock {fmt_ms(wall)} ms, {len(spans)} spans, "
        f"{len(threads)} thread names, "
        f"dropped {doc.get('otherData', {}).get('droppedSpans', 0)}"
    )
    print()
    print(
        f"{'phase':<28} {'count':>8} {'total ms':>12} "
        f"{'self ms':>12} {'% wall':>8}"
    )
    for name, rec in sorted(
        names.items(), key=lambda kv: -kv[1]["total"]
    ):
        pct = 100.0 * rec["total"] / wall if wall > 0 else 0.0
        print(
            f"{name:<28} {rec['count']:>8} {fmt_ms(rec['total']):>12} "
            f"{fmt_ms(rec['self']):>12} {pct:>7.1f}%"
        )
    print()
    print(
        f"{'thread':<28} {'tids':>6} {'busy ms':>12} "
        f"{'extent ms':>12} {'util %':>8}"
    )
    for name, rec in sorted(
        threads.items(), key=lambda kv: -kv[1]["busy"]
    ):
        util = (
            100.0 * rec["busy"] / rec["extent"] if rec["extent"] > 0 else 0.0
        )
        print(
            f"{name:<28} {rec['tids']:>6} {fmt_ms(rec['busy']):>12} "
            f"{fmt_ms(rec['extent']):>12} {util:>7.1f}%"
        )
    jobs = job_table(spans)
    if jobs and args.job is None:
        print()
        print(
            f"{'job':<10} {'spans':>8} {'threads':>8} "
            f"{'total ms':>12} {'self ms':>12}"
        )
        for job, rec in sorted(jobs.items()):
            print(
                f"{job:<10} {rec['count']:>8} {len(rec['tids']):>8} "
                f"{fmt_ms(rec['total']):>12} {fmt_ms(rec['self']):>12}"
            )

    print()
    print(f"top-level span coverage: {coverage:.1f}% of wall-clock")

    if args.min_coverage is not None and coverage < args.min_coverage:
        fail(
            f"coverage {coverage:.1f}% below required "
            f"{args.min_coverage:.1f}%"
        )


if __name__ == "__main__":
    main()
