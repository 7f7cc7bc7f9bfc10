#!/usr/bin/env python3
"""End-to-end trace validator for the observability subsystem.

Smoke-runs a traced serving binary (examples/concurrent_service with
--trace-out by default), then checks the dumped Chrome trace_event JSON
is loadable and well-formed:

  * the file parses as JSON and has a non-empty traceEvents array;
  * every required span/instant type appears at least once;
  * complete ("X") events carry non-negative ts and dur, instants ("i")
    carry non-negative ts;
  * for every user query that resolved, its admit instant precedes its
    resolve instant on the shared timeline;
  * spans cover at least two shard processes (the traced example serves
    from two shards).

Usage: tools/check_trace.py <traced-binary> [--keep]

Exit code 0 on success, 1 on any validation failure, 2 on setup
problems (binary missing / run failed). Wired into ctest and CI next to
check_doc_paths.sh.
"""

import json
import os
import subprocess
import sys
import tempfile

# Span/instant types every traced concurrent_service run must produce.
# (Spill/eviction/fault-tolerance types only appear under configurations
# the smoke run does not exercise.)
REQUIRED_NAMES = {
    "admit",
    "queue_wait",
    "batch_wait",
    "flush",
    "optimize",
    "graft",
    "epoch",
    "atc_exec",
    "complete",
    "resolve",
}


def fail(msg):
    print(f"check_trace: FAIL: {msg}")
    return 1


def validate(path):
    try:
        with open(path, encoding="utf-8") as f:
            trace = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"trace is not loadable JSON: {e}")

    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        return fail("traceEvents missing or empty")

    names = set()
    admit_ts = {}
    resolve_ts = {}
    span_pids = set()
    for e in events:
        ph = e.get("ph")
        if ph == "M":  # metadata (process_name rows)
            continue
        if ph not in ("X", "i"):
            return fail(f"unexpected event phase {ph!r}: {e}")
        name = e.get("name")
        names.add(name)
        ts = e.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            return fail(f"event with invalid ts: {e}")
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                return fail(f"complete event with invalid dur: {e}")
            span_pids.add(e.get("pid"))
        uq = e.get("args", {}).get("uq", -1)
        if uq >= 0:
            if name == "admit":
                admit_ts.setdefault(uq, ts)
            elif name == "resolve":
                resolve_ts.setdefault(uq, ts)

    missing = REQUIRED_NAMES - names
    if missing:
        return fail(f"required span types never recorded: {sorted(missing)}")

    if not resolve_ts:
        return fail("no query resolved in the traced run")
    for uq, rts in resolve_ts.items():
        if uq not in admit_ts:
            return fail(f"uq {uq} resolved without an admit event")
        if admit_ts[uq] > rts:
            return fail(
                f"uq {uq} admit at {admit_ts[uq]} after resolve at {rts}"
            )

    if len(span_pids) < 2:
        return fail(
            f"spans cover only {len(span_pids)} shard process(es); "
            "expected >= 2"
        )

    print(
        f"check_trace: OK ({len(events)} events, "
        f"{len(resolve_ts)} queries resolved, "
        f"{len(span_pids)} shard processes, "
        f"span types: {', '.join(sorted(names))})"
    )
    return 0


def main():
    args = [a for a in sys.argv[1:] if a != "--keep"]
    keep = "--keep" in sys.argv[1:]
    if not args:
        print("usage: check_trace.py <traced-binary> [--keep]")
        return 2
    binary = args[0]
    if not os.path.exists(binary):
        print(f"check_trace: binary not found: {binary}")
        return 2

    fd, trace_path = tempfile.mkstemp(prefix="qsys_trace_", suffix=".json")
    os.close(fd)
    try:
        run = subprocess.run(
            [binary, f"--trace-out={trace_path}"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=300,
        )
        if run.returncode != 0:
            print(run.stdout.decode(errors="replace"))
            print(f"check_trace: traced run exited {run.returncode}")
            return 2
        return validate(trace_path)
    finally:
        if keep:
            print(f"check_trace: trace kept at {trace_path}")
        else:
            os.unlink(trace_path)


if __name__ == "__main__":
    sys.exit(main())
