#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload tpch_csv --seed 1 --seconds 20 --trace 0

The first call configures and builds normalize_core from ../src plus the
perfbench binary into .bench_build/perfbench (later calls only re-check the
build). The binary's output is relayed unchanged; its last line is the JSON
result. This wrapper then checks that the result carries exactly the metrics
BENCHMARK.json declares for the mode (end-to-end for --trace 0, per-layer for
--trace 1) and, for a traced run, validates the written metrics snapshot with
tools/check_metrics_json.py when the repository has it. Exits non-zero,
without a result line, when the build fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 850  # configure + build together
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()),
                                  check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: build step exited {done.returncode}: "
                  f"{' '.join(step)}", file=sys.stderr)
            return None
    binary = os.path.join(BUILD_DIR, "perfbench")
    return binary if os.path.exists(binary) else None


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for the mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def validate_trace(path):
    """Runs the repository's metrics-snapshot validator; True when it passes
    or is not available."""
    tool = os.path.join(ROOT, "tools", "check_metrics_json.py")
    if not os.path.exists(tool):
        print("record trace_check=skipped (tools/check_metrics_json.py absent)")
        return True
    done = subprocess.run([sys.executable, tool, path], capture_output=True,
                          text=True, timeout=120, check=False)
    status = "ok" if done.returncode == 0 else "failed"
    print(f"record trace_check={status} {done.stdout.strip()} "
          f"{done.stderr.strip()}".rstrip())
    return done.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1

    trace_out = os.path.join(ROOT, ".bench_build",
                             f"perfbench-trace-{args.workload}-seed{args.seed}.json")
    work_dir = os.path.join(ROOT, ".bench_build", "perfbench-work",
                            f"{args.workload}-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--trace-out", trace_out]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout)
        print(f"perfbench: driver exited {done.returncode} without a result",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    expected = declared_metrics(args.trace == 1)
    if expected is not None and sorted(expected) != sorted(result["metrics"]):
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(expected) - set(result['metrics']))}, "
              f"extra {sorted(set(result['metrics']) - set(expected))}",
              file=sys.stderr)
        return 1
    if args.trace == 1 and not validate_trace(trace_out):
        result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
