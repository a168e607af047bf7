#!/usr/bin/env python3
"""CI driver for the `ooc_smoke` ctest.

Exercises the service end of out-of-core enumeration: two archvald
lifetimes enumerate the same design, one fully in-memory and one
budget-capped (`--memory-budget-kb 128`), and the reported
`graphFingerprint` must be byte-identical. The capped run must
actually have gone out of core — spill bytes written, shard pages
out, residency high-water under the budget — without a single spill
fallback, all asserted both from the result frame and from the
telemetry trace via trace_summary.py --check --require-metric.

Usage: tools/ooc_smoke.py <archvald> <archval_client>
"""

import os
import subprocess
import sys
import tempfile

from service_smoke import (boot_daemon, client_events, fail,
                           shutdown_daemon, terminal)

BUDGET_KB = 128


def enumerate_once(archvald, client, tmp, tag, extra_client_args):
    """One daemon lifetime running a single enumerate job.
    Returns (result_frame, trace_path, error)."""
    socket = os.path.join(tmp, f"archval_{tag}.sock")
    trace = os.path.join(tmp, f"trace_{tag}.json")
    env = dict(os.environ, ARCHVAL_TRACE=trace)
    daemon, error = boot_daemon(archvald, socket, env)
    if error:
        return None, trace, error
    try:
        code, events = client_events(
            client, socket, "enumerate", *extra_client_args)
        result = terminal(events)
        if code != 0 or not result or result["type"] != "result":
            return None, trace, \
                f"{tag} enumerate failed: exit {code}, " \
                f"terminal {result}"
        error = shutdown_daemon(client, socket, daemon)
        if error:
            return None, trace, error
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
    return result, trace, None


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    archvald, client = sys.argv[1:]
    summary = os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "trace_summary.py")

    with tempfile.TemporaryDirectory() as tmp:
        in_mem, _, error = enumerate_once(
            archvald, client, tmp, "inmem", [])
        if error:
            return fail(error)
        spill_root = os.path.join(tmp, "spill")
        ooc, trace, error = enumerate_once(
            archvald, client, tmp, "ooc",
            ["--memory-budget-kb", str(BUDGET_KB),
             "--spill-dir", spill_root])
        if error:
            return fail(error)

        for tag, result in (("in-memory", in_mem), ("ooc", ooc)):
            if result.get("states", 0) <= 0:
                return fail(f"{tag} enumerate reported no states")
            if "graphFingerprint" not in result:
                return fail(f"{tag} result has no graphFingerprint")

        # The headline guarantee: the disk-backed search produced
        # the exact same graph.
        if in_mem["graphFingerprint"] != ooc["graphFingerprint"]:
            return fail(
                "graph fingerprints diverge: in-memory "
                f"{in_mem['graphFingerprint']} vs out-of-core "
                f"{ooc['graphFingerprint']}")
        if in_mem["states"] != ooc["states"] or \
                in_mem["edges"] != ooc["edges"]:
            return fail("state/edge counts diverge")

        # The in-memory run must not have touched the spill machinery
        # ...
        if in_mem.get("spillBytes", 0) != 0 or \
                in_mem.get("pageOuts", 0) != 0:
            return fail("in-memory run reported spill activity")
        # ... and the capped run must actually have gone out of core,
        # with residency held under the budget and zero fallbacks.
        if ooc.get("spillBytes", 0) <= 0:
            return fail("ooc run wrote no spill bytes")
        if ooc.get("pageOuts", 0) < 1 or ooc.get("pageIns", 0) < 1:
            return fail(
                f"ooc run paged no shards (out {ooc.get('pageOuts')},"
                f" in {ooc.get('pageIns')})")
        if ooc.get("spillFallbacks", 0) != 0:
            return fail(
                f"ooc run fell back {ooc.get('spillFallbacks')}x")
        if ooc.get("residencyHighWater", 0) > BUDGET_KB * 1024:
            return fail(
                f"residency high water {ooc.get('residencyHighWater')}"
                f" exceeds the {BUDGET_KB} KiB budget")
        # The spill directory cleans up after itself.
        leftovers = []
        for root, _, files in os.walk(spill_root):
            leftovers += [os.path.join(root, f) for f in files]
        if leftovers:
            return fail(f"spill files left behind: {leftovers}")

        # Telemetry must tell the same story.
        check = subprocess.run(
            [sys.executable, summary, trace, "--check",
             "--require-metric", "enum.spill_bytes>=1",
             "--require-metric", "enum.page_outs>=1",
             "--require-metric", "enum.page_ins>=1",
             "--require-metric", "enum.spill_fallbacks==0",
             "--require-metric",
             f"enum.residency_high_water.max<={BUDGET_KB * 1024}"])
        if check.returncode != 0:
            return fail("trace_summary --check failed")

    print("ooc smoke ok: fingerprint "
          f"{ooc['graphFingerprint']}, {ooc['states']} states, "
          f"{ooc['spillBytes']} spill bytes, "
          f"{ooc['pageOuts']} page-outs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
