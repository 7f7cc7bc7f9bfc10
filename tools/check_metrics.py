#!/usr/bin/env python3
"""Prometheus exposition-format validator for the metrics exporter.

Smoke-runs a serving binary (examples/concurrent_service with
--metrics-out by default), which writes two text-exposition scrapes —
PATH.mid mid-run and PATH after shutdown — then checks:

  * every non-comment line parses against the exposition grammar
    (metric name, optional {label="value",...} list, float value);
  * every sample's family has a preceding # TYPE line, and every
    # TYPE names a valid type (counter / gauge / summary / histogram);
  * counter families use the _total suffix; summary families emit
    quantile samples plus _sum and _count;
  * the expected qsys_ families are present (latency summaries,
    admission counters, fault-tolerance counters, spill and
    plan-graph gauges, per-shard exec counters) and carry shard
    labels where the exporter promises them;
  * every counter sample is monotonically non-decreasing from the
    mid-run scrape to the final one (same series, by name + labels).

Usage: tools/check_metrics.py <serving-binary> [--keep]

Exit code 0 on success, 1 on any validation failure, 2 on setup
problems (binary missing / run failed). Wired into ctest and CI next
to check_trace.py.
"""

import os
import re
import subprocess
import sys
import tempfile

# Families the exporter must always render (see src/obs/export.cc).
EXPECTED_SUMMARIES = {
    "qsys_latency_e2e_us",
    "qsys_queue_wait_us",
    "qsys_optimize_time_us",
    "qsys_epoch_duration_us",
}
EXPECTED_COUNTERS = {
    "qsys_submitted_total",
    "qsys_completed_total",
    "qsys_epochs_total",
    "qsys_batches_flushed_total",
    "qsys_exec_tuples_streamed_total",
    "qsys_exec_tuples_shared_served_total",
    "qsys_route_local_total",
    "qsys_query_retries_total",
    "qsys_deadline_exceeded_total",
    "qsys_shard_restarts_total",
}
EXPECTED_GAUGES = {
    "qsys_spill_bytes_on_disk",
    "qsys_spill_read_retry_waits",
    "qsys_plan_graph_operators",
}

SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)$")
NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_RE = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$')
VALUE_RE = re.compile(
    r"^[+-]?(\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?|Inf|NaN)$"
)
TYPES = {"counter", "gauge", "summary", "histogram", "untyped"}


def fail(msg):
    print(f"check_metrics: FAIL: {msg}")
    return 1


def parse_exposition(path):
    """Returns (types: family -> type, samples: (name, labels) -> float),
    or None (after printing) on any grammar violation."""
    types = {}
    samples = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(f"cannot read {path}: {e}")
        return None
    for lineno, line in enumerate(lines, 1):
        where = f"{os.path.basename(path)}:{lineno}"
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or not NAME_RE.match(parts[2]):
                fail(f"{where}: malformed TYPE line: {line!r}")
                return None
            if parts[3] not in TYPES:
                fail(f"{where}: unknown metric type {parts[3]!r}")
                return None
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue  # HELP or free comment
        m = SAMPLE_RE.match(line)
        if not m:
            fail(f"{where}: unparseable sample line: {line!r}")
            return None
        name, _, labels_raw, value_raw = m.groups()
        labels = []
        if labels_raw:
            for pair in labels_raw.split(","):
                lm = LABEL_RE.match(pair)
                if not lm:
                    fail(f"{where}: malformed label {pair!r}")
                    return None
                labels.append((lm.group(1), lm.group(2)))
        if not VALUE_RE.match(value_raw):
            fail(f"{where}: malformed value {value_raw!r}")
            return None
        # A sample belongs to the family of its base name (strip the
        # summary sub-sample suffixes).
        family = name
        for suffix in ("_sum", "_count"):
            if family.endswith(suffix) and family[: -len(suffix)] in types:
                family = family[: -len(suffix)]
                break
        if family not in types:
            fail(f"{where}: sample {name!r} has no # TYPE header")
            return None
        key = (name, tuple(sorted(labels)))
        if key in samples:
            fail(f"{where}: duplicate series {key}")
            return None
        samples[key] = float(value_raw)
    if not samples:
        fail(f"{path}: no samples")
        return None
    return types, samples


def family_of(name, types):
    """The # TYPE family a sample name belongs to."""
    for suffix in ("_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] in types:
            return name[: -len(suffix)]
    return name


def validate(mid_path, final_path):
    mid = parse_exposition(mid_path)
    final = parse_exposition(final_path)
    if mid is None or final is None:
        return 1
    types, samples = final
    mid_types, mid_samples = mid

    expected = EXPECTED_SUMMARIES | EXPECTED_COUNTERS | EXPECTED_GAUGES
    missing = expected - set(types)
    if missing:
        return fail(f"expected families missing: {sorted(missing)}")
    for name in EXPECTED_SUMMARIES:
        if types[name] != "summary":
            return fail(f"{name} should be a summary, is {types[name]}")
    for name in EXPECTED_COUNTERS:
        if types[name] != "counter":
            return fail(f"{name} should be a counter, is {types[name]}")
    for name in EXPECTED_GAUGES:
        if types[name] != "gauge":
            return fail(f"{name} should be a gauge, is {types[name]}")
    for family, t in types.items():
        if t == "counter" and not family.endswith("_total"):
            return fail(f"counter {family} lacks the _total suffix")

    # Summary families carry quantile samples plus _sum/_count.
    for name in EXPECTED_SUMMARIES:
        if not any(
            k[0] == name and ("quantile", "0.5") in k[1] for k in samples
        ):
            return fail(f"{name} has no quantile=\"0.5\" sample")
        for suffix in ("_sum", "_count"):
            if not any(k[0] == name + suffix for k in samples):
                return fail(f"{name}{suffix} missing")

    # The exporter promises per-shard series for the exec counters (the
    # smoke binary serves from two shards).
    shard_series = [
        k for k in samples
        if k[0] == "qsys_exec_tuples_streamed_total"
        and any(lk == "shard" for lk, _ in k[1])
    ]
    if len(shard_series) < 2:
        return fail(
            "expected qsys_exec_tuples_streamed_total series for >= 2 "
            f"shards, found {len(shard_series)}"
        )

    # Counter monotonicity between the two scrapes of the same run.
    checked = 0
    for key, mid_value in mid_samples.items():
        if mid_types.get(family_of(key[0], mid_types)) != "counter":
            continue
        if key not in samples:
            return fail(f"counter series {key} vanished between scrapes")
        if samples[key] < mid_value:
            return fail(
                f"counter {key} decreased: {mid_value} -> {samples[key]}"
            )
        checked += 1
    if checked == 0:
        return fail("no counter series to check monotonicity on")

    print(
        f"check_metrics: OK ({len(samples)} samples, "
        f"{len(types)} families, {checked} counters monotone)"
    )
    return 0


def main():
    args = [a for a in sys.argv[1:] if a != "--keep"]
    keep = "--keep" in sys.argv[1:]
    if not args:
        print("usage: check_metrics.py <serving-binary> [--keep]")
        return 2
    binary = args[0]
    if not os.path.exists(binary):
        print(f"check_metrics: binary not found: {binary}")
        return 2

    fd, out_path = tempfile.mkstemp(prefix="qsys_metrics_", suffix=".prom")
    os.close(fd)
    mid_path = out_path + ".mid"
    try:
        run = subprocess.run(
            [binary, f"--metrics-out={out_path}"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=300,
        )
        if run.returncode != 0:
            print(run.stdout.decode(errors="replace"))
            print(f"check_metrics: run exited {run.returncode}")
            return 2
        if not os.path.exists(mid_path):
            print("check_metrics: mid-run scrape was not written")
            return 2
        return validate(mid_path, out_path)
    finally:
        for p in (out_path, mid_path):
            if keep:
                print(f"check_metrics: scrape kept at {p}")
            elif os.path.exists(p):
                os.unlink(p)


if __name__ == "__main__":
    sys.exit(main())
