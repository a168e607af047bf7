#!/usr/bin/env python3
"""CI driver for the `service_smoke` and `service_persist` ctests.

Default mode boots a real archvald daemon on a unix socket with
ARCHVAL_TRACE armed, then drives it end-to-end through
archval_client:

  1. `enumerate` — builds the session's state graph.
  2. `replay` (cold) — plays the generated vectors, populating the
     session's replay warm cache.
  3. `replay` (warm) — must report a warm-cache hit on every trace
     and simulate at most 10% of the cold run's cycles, while its
     per-trace results stay byte-identical to the cold run's.
  4. `shutdown` — stops the daemon cleanly; its telemetry trace must
     then pass trace_summary.py --check.

`--persist` mode runs the restart-and-rewarm differential instead:
one daemon lifetime does the cold work on a --session-dir store and
shuts down; a *second* daemon process on the same store must then
restore the session from disk (session_restore_hits >= 1) and replay
warm — byte-identical per-trace results, every trace a warm-cache
hit, at most 10% of the cold run's simulated cycles.

`--flight` mode exercises the crash flight recorder instead: the
daemon is booted with --crash-dir, a replay job is started and
SIGUSR1 is delivered from the job's `accepted` event until its
`result` arrives; the daemon must stay up, finish the job, and leave
crash-report files that parse as JSON, give "SIGUSR1" as the reason,
carry the event ring and the metrics digest, and of which at least
one names the in-flight replay job in its activeJobs table. A failure
prints each dump's activeJobs and the client's events.

Usage: tools/service_smoke.py [--persist|--flight] \\
           <archvald> <archval_client>
"""

import glob
import json
import os
import queue
import signal
import subprocess
import sys
import tempfile
import threading
import time


def fail(msg):
    print(f"service_smoke: {msg}", file=sys.stderr)
    return 1


def client_events(client, socket, *args, timeout=300):
    """Run archval_client --json and return the parsed event list."""
    run = subprocess.run(
        [client, "--socket", socket, "--json", *args],
        capture_output=True, text=True, timeout=timeout)
    events = [json.loads(line) for line in run.stdout.splitlines()
              if line.strip()]
    return run.returncode, events


def terminal(events):
    for event in events:
        if event.get("type") in ("result", "error", "cancelled"):
            return event
    return None


def boot_daemon(archvald, socket, env, extra_args=()):
    """Start archvald and wait for its listening banner and socket.
    Returns (daemon, error); exactly one is None."""
    daemon = subprocess.Popen(
        [archvald, "--socket", socket, "--workers", "2",
         *extra_args],
        env=env, stdout=subprocess.PIPE, text=True)
    line = daemon.stdout.readline()
    if "listening" not in line:
        daemon.kill()
        daemon.wait()
        return None, f"unexpected daemon banner: {line!r}"
    for _ in range(50):
        if os.path.exists(socket):
            break
        time.sleep(0.1)
    return daemon, None


def shutdown_daemon(client, socket, daemon):
    code, events = client_events(client, socket, "shutdown")
    if code != 0 or not events or \
            events[0].get("type") != "shutting_down":
        return f"shutdown failed: exit {code}"
    daemon.wait(timeout=30)
    return None


def replay(client, socket, what):
    """One replay job; returns (result, error)."""
    code, events = client_events(client, socket, "replay")
    result = terminal(events)
    if code != 0 or not result or result["type"] != "result":
        return None, f"{what} replay failed: exit {code}, " \
                     f"terminal {result}"
    return result, None


def check_warm_vs_cold(warm, cold, what):
    """The replay differential shared by both modes."""
    if warm["warm"]["hits"] != warm["traces"]:
        return f"{what} replay hit {warm['warm']['hits']}" \
               f"/{warm['traces']} traces"
    if warm["simulatedCycles"] * 10 > cold["simulatedCycles"]:
        return f"{what} replay simulated " \
               f"{warm['simulatedCycles']} cycles; cold did " \
               f"{cold['simulatedCycles']} (> 10% bar)"
    if warm["plays"] != cold["plays"]:
        return f"{what} results differ from cold results"
    return None


def trace_metrics(trace):
    with open(trace) as f:
        doc = json.load(f)
    return doc.get("otherData", {}).get("metrics", {})


def run_smoke(archvald, client, summary):
    with tempfile.TemporaryDirectory() as tmp:
        socket = os.path.join(tmp, "archval.sock")
        trace = os.path.join(tmp, "service_trace.json")
        env = dict(os.environ, ARCHVAL_TRACE=trace)
        daemon, error = boot_daemon(archvald, socket, env)
        if error:
            return fail(error)
        try:
            code, events = client_events(client, socket, "enumerate")
            result = terminal(events)
            if code != 0 or not result or result["type"] != "result":
                return fail(f"enumerate failed: exit {code}, "
                            f"terminal {result}")
            if result.get("states", 0) <= 0:
                return fail("enumerate reported no states")

            cold, error = replay(client, socket, "cold")
            if error:
                return fail(error)
            if cold["warm"]["hits"] != 0:
                return fail("cold replay claims warm hits")
            if cold["simulatedCycles"] <= 0:
                return fail("cold replay simulated nothing")

            warm, error = replay(client, socket, "warm")
            if error:
                return fail(error)
            error = check_warm_vs_cold(warm, cold, "warm")
            if error:
                return fail(error)

            error = shutdown_daemon(client, socket, daemon)
            if error:
                return fail(error)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()

        if not os.path.exists(trace):
            return fail("daemon wrote no telemetry trace")
        check = subprocess.run(
            [sys.executable, summary, trace, "--check"])
        if check.returncode != 0:
            return fail("trace_summary --check failed")

        metrics = trace_metrics(trace)
        expected = ("service.jobs_done", "replay.warm_hits",
                    "service.session_hits")
        missing = [k for k in expected if k not in metrics]
        if missing:
            return fail(f"metrics snapshot missing {missing}")

    print("service smoke ok")
    return 0


def run_persist(archvald, client, summary):
    with tempfile.TemporaryDirectory() as tmp:
        socket = os.path.join(tmp, "archval.sock")
        store = os.path.join(tmp, "sessions")
        cold_trace = os.path.join(tmp, "trace_cold.json")
        warm_trace = os.path.join(tmp, "trace_warm.json")
        persist_args = ("--session-dir", store)

        # Daemon lifetime 1: build the session cold; the completed
        # job persists it into the store.
        env = dict(os.environ, ARCHVAL_TRACE=cold_trace)
        daemon, error = boot_daemon(archvald, socket, env,
                                    persist_args)
        if error:
            return fail(error)
        try:
            cold, error = replay(client, socket, "cold")
            if error:
                return fail(error)
            if cold["simulatedCycles"] <= 0:
                return fail("cold replay simulated nothing")
            error = shutdown_daemon(client, socket, daemon)
            if error:
                return fail(error)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()

        if not os.listdir(store):
            return fail("cold daemon left no session store file")
        metrics = trace_metrics(cold_trace)
        if int(metrics.get("service.session_saves", 0)) < 1:
            return fail("cold daemon reported no session save")

        # Daemon lifetime 2: a fresh process on the same store must
        # restore the session from disk and replay warm.
        env = dict(os.environ, ARCHVAL_TRACE=warm_trace)
        daemon, error = boot_daemon(archvald, socket, env,
                                    persist_args)
        if error:
            return fail(error)
        try:
            warm, error = replay(client, socket, "restarted")
            if error:
                return fail(error)
            error = check_warm_vs_cold(warm, cold, "restarted")
            if error:
                return fail(error)
            error = shutdown_daemon(client, socket, daemon)
            if error:
                return fail(error)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()

        metrics = trace_metrics(warm_trace)
        if int(metrics.get("service.session_restore_hits", 0)) < 1:
            return fail("restarted daemon did not restore the "
                        "session from disk")
        check = subprocess.run(
            [sys.executable, summary, warm_trace, "--check"])
        if check.returncode != 0:
            return fail("trace_summary --check failed")

    print("service persist ok")
    return 0


def run_flight(archvald, client):
    with tempfile.TemporaryDirectory() as tmp:
        socket = os.path.join(tmp, "archval.sock")
        crash_dir = os.path.join(tmp, "crash")
        os.mkdir(crash_dir)
        daemon, error = boot_daemon(
            archvald, socket, dict(os.environ),
            ("--crash-dir", crash_dir))
        if error:
            return fail(error)
        events = []
        signals = 0
        try:
            # Start a replay job and read the client's raw --json
            # events as they arrive (raw mode flushes each one). From
            # the job's `accepted` event until its `result`, pepper the
            # daemon with SIGUSR1; each signal dumps its own crash
            # report. activeJobs lists queued and running jobs, and
            # the job is one of those from `accepted` until the daemon
            # marks it done just before sending `result`, so the
            # signals sent right after `accepted` land inside it.
            job = subprocess.Popen(
                [client, "--socket", socket, "--json", "replay"],
                stdout=subprocess.PIPE, text=True)
            lines = queue.Queue()

            def read_events():
                for line in job.stdout:
                    lines.put(line)
                lines.put(None)

            reader = threading.Thread(target=read_events, daemon=True)
            reader.start()
            in_flight = False
            deadline = time.monotonic() + 300
            while time.monotonic() < deadline:
                if in_flight:
                    daemon.send_signal(signal.SIGUSR1)
                    signals += 1
                try:
                    line = lines.get(timeout=0.02)
                except queue.Empty:
                    continue
                if line is None:
                    break
                if not line.strip():
                    continue
                event = json.loads(line)
                events.append(event)
                if event.get("type") == "accepted":
                    in_flight = True
                elif terminal([event]):
                    in_flight = False
            job.wait(timeout=30)
            result = terminal(events)
            if job.returncode != 0 or not result or \
                    result["type"] != "result":
                return fail("replay under SIGUSR1 failed: exit "
                            f"{job.returncode}, terminal {result}; "
                            f"events {events}")
            if signals == 0:
                return fail(f"no SIGUSR1 sent between accepted and "
                            f"result; events {events}")

            error = shutdown_daemon(client, socket, daemon)
            if error:
                return fail(error)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()

        dumps = sorted(glob.glob(os.path.join(crash_dir, "crash-*.json")))
        if not dumps:
            return fail(f"no crash report written for {signals} "
                        f"SIGUSR1; events {events}")
        saw_job = False
        active = []
        for path in dumps:
            with open(path) as f:
                doc = json.load(f)  # must parse — the point of dumps
            if doc.get("reason") != "SIGUSR1":
                return fail(f"{path}: reason {doc.get('reason')!r}, "
                            "expected 'SIGUSR1'")
            for key in ("events", "activeJobs", "metrics", "pid"):
                if key not in doc:
                    return fail(f"{path}: missing {key!r}")
            if not any(ev.get("kind") == "signal"
                       for ev in doc["events"]):
                return fail(f"{path}: no 'signal' event on the ring")
            active.append(doc["activeJobs"])
            for rec in doc["activeJobs"]:
                if rec.get("verb") == "replay" and "job" in rec:
                    saw_job = True
        if not saw_job:
            listing = "\n".join(f"  {os.path.basename(p)}: {jobs}"
                                 for p, jobs in zip(dumps, active))
            return fail(f"none of the {len(dumps)} crash reports "
                        f"({signals} signals) caught the in-flight "
                        f"replay job; activeJobs per dump:\n{listing}\n"
                        f"client events: {events}")

    print(f"service flight ok ({len(dumps)} dumps of {signals} "
          "signals, in-flight job named)")
    return 0


def main():
    args = sys.argv[1:]
    persist = "--persist" in args
    if persist:
        args.remove("--persist")
    flight = "--flight" in args
    if flight:
        args.remove("--flight")
    if len(args) != 2 or (persist and flight):
        print(__doc__, file=sys.stderr)
        return 2
    archvald, client = args
    summary = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "trace_summary.py")
    if persist:
        return run_persist(archvald, client, summary)
    if flight:
        return run_flight(archvald, client)
    return run_smoke(archvald, client, summary)


if __name__ == "__main__":
    sys.exit(main())
