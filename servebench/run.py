#!/usr/bin/env python3
"""Build and run the serving benchmark from the root of a qsys checkout.

    python3 servebench/run.py --workload pfam-poisson --seed 1 --seconds 25 --trace 0

The first run compiles serve_bench from this checkout's sources (Release)
into $CARGO_TARGET_DIR/servebench, or .bench_build/servebench when the
variable is unset; later runs rebuild only what changed. Build output goes
to stderr, so the last line of stdout is serve_bench's result JSON. The
exit code is serve_bench's: 0 for a run whose answers all matched the
reference, non-zero for a wrong answer, a setup error or a failed build.
With --trace 1 the Chrome trace of the traced run is written to
trace-<workload>-<seed>.json in the build directory.

Two more modes:

    python3 servebench/run.py --self-test   # tests of the benchmark's arithmetic
    python3 servebench/run.py --report      # regenerate servebench/RESULTS.md
"""

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
WORKLOADS = ["gus-burst", "pfam-poisson", "pfam-repeat-spill",
             "pfam-repeat-spill-qscore", "pfam-repeat-cl-qscore"]
REPORT_SEEDS = [1, 2, 3]


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    return target / "servebench"


def build(targets):
    """Configure (once) and build `targets`; False when that fails."""
    if not (ROOT / "src" / "serve" / "query_service.h").is_file():
        print(f"qsys sources not found under {ROOT / 'src'}", file=sys.stderr)
        return False
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j4", "--target"] + targets)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"build failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"build failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def run_bench(workload, seed, seconds, trace):
    """Runs serve_bench once; returns (exit code, stdout text)."""
    out = build_dir()
    cmd = [str(out / "serve_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--scratch", str(out)]
    if trace:
        cmd += ["--trace-out", str(out / f"trace-{workload}-{seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        print(f"serve_bench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        sys.stderr.write(err.stdout or "")
        return 124, ""
    return done.returncode, done.stdout


def result_of(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test():
    if not build(["servebench_selftest"]):
        return 1
    return subprocess.run([str(build_dir() / "servebench_selftest")],
                          timeout=RUN_TIMEOUT_S).returncode


def fmt(value):
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


NOTE_PREFIXES = ("failures of", "layer shares", "WARNING", "WRONG ANSWER")


def report(seeds, seconds):
    """Runs every workload untraced on each of `seeds` and traced on the
    first, and rewrites RESULTS.md from what serve_bench printed. Runs
    that fail their reference check are recorded, not hidden."""
    if not build(["serve_bench"]):
        return 1
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sections = []
    for workload in WORKLOADS:
        runs = []
        for seed, trace in [(s, False) for s in seeds] + [(seeds[0], True)]:
            code, text = run_bench(workload, seed, seconds, trace)
            result = result_of(text) if text else None
            if result is None or code not in (0, 1):
                sys.stderr.write(text)
                print(f"{workload} seed {seed} trace {int(trace)}: no "
                      f"result (exit {code})", file=sys.stderr)
                return 1
            notes = sorted((l for l in text.splitlines()
                            if l.startswith(NOTE_PREFIXES)),
                           key=lambda l: not l.startswith("failures of"))
            runs.append((seed, trace, code, result, notes))
        untraced = [r for r in runs if not r[1]]
        traced = runs[-1]
        lines = [f"## {workload}", ""]
        for seed, trace, code, result, notes in runs:
            lines.append(
                f"- seed {seed}, {'traced' if trace else 'untraced'}: "
                f"{result['attempted']} due, {result['failed']} failed, "
                f"correct {str(result['correct']).lower()}, exit {code}")
            lines += [f"  - {n}" for n in notes[:6]]
            if len(notes) > 6:
                lines.append(f"  - ... {len(notes) - 6} more lines")
        lines += ["", "| end-to-end metric | unit | " +
                  " | ".join(f"seed {r[0]}" for r in untraced) + " |",
                  "| --- | --- |" + " ---: |" * len(untraced)]
        for name, m in untraced[0][3]["metrics"].items():
            values = [fmt(r[3]["metrics"][name]["value"])
                      if name in r[3]["metrics"] else "-" for r in untraced]
            lines.append(f"| `{name}` | {m['unit']} | " +
                         " | ".join(values) + " |")
        lines += ["", f"| per-layer metric (traced, seed {traced[0]}) | "
                  "unit | value |", "| --- | --- | ---: |"]
        for name, m in traced[3]["metrics"].items():
            lines.append(f"| `{name}` | {m['unit']} | {fmt(m['value'])} |")
        sections.append("\n".join(lines))
    header = [
        "# Serving benchmark results",
        "",
        "Generated by `python3 servebench/run.py --report`; do not edit by",
        f"hand. Untraced runs on seeds {', '.join(map(str, seeds))} and one "
        f"traced run on seed {seeds[0]} per workload, {seconds} s arrival "
        "window, Release build.",
        "",
        f"Host: {cpu}, {os.cpu_count()} CPUs, {platform.system()} "
        f"{platform.release()}; generated "
        f"{datetime.date.today().isoformat()}.",
        "",
    ]
    (HERE / "RESULTS.md").write_text("\n".join(header) + "\n" +
                                     "\n\n".join(sections) + "\n")
    print(f"wrote {HERE / 'RESULTS.md'}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--report", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.report:
        return report(REPORT_SEEDS, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    if not build(["serve_bench"]):
        return 1
    code, text = run_bench(args.workload, args.seed, args.seconds,
                           args.trace == 1)
    sys.stdout.write(text)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
