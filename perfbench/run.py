#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see METHOD.md).

    python3 perfbench/run.py --workload serve_scan|serve_light|train_lgn \
        --seed N --seconds S --trace 0|1 [--tiny] [--corrupt-reference]

Run from the root of a source checkout. The first run configures and
builds the bslrec library and the perfbench binary (Release) under
.bench_build/ in the checkout; later runs rebuild incrementally. Build
output goes to stderr, so the last line of stdout is the benchmark's
JSON result. A traced run writes its spans to
.bench_build/trace/<workload>-seed<N>.jsonl.

Exits non-zero, without a result line, if the build fails, and non-zero
after the result line if an output check failed or the metric set does
not match BENCHMARK.json.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench-cmake")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds the perfbench target; False on error."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                return False
    return os.path.exists(BINARY)


def expected_metrics(trace):
    """Metric name -> unit the result must carry, from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["serve_scan", "serve_light", "train_lgn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    if args.trace:
        trace_dir = os.path.join(BUILD_ROOT, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1

    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if want is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            print("perfbench: metrics %r do not match BENCHMARK.json %r"
                  % (sorted(got.items()), sorted(want.items())),
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
