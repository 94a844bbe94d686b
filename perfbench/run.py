#!/usr/bin/env python3
# Copyright 2026 The streambid Authors
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload engine_share --seed 1 \
        --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR when it is set, else .bench_build,
and is reused by later runs. --trace only picks the binary:
perfbench_e2e (0) prints the end-to-end metrics, perfbench_traced (1)
the per-layer ledger. The last stdout line is the result JSON. Build output
goes to stderr. The exit code is non-zero when the build fails, the
correctness check fails, or the run exceeds its time limit.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("engine_share", "auction_crowd", "control_plane")
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    """Configures (once) and builds both benchmark binaries."""
    source = os.path.join(root, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j4", "--target",
                  "perfbench_e2e", "perfbench_traced"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", default=1, type=int)
    parser.add_argument("--seconds", default=20, type=int)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = "perfbench_traced" if args.trace == "1" else "perfbench_e2e"
    command = [os.path.join(build_dir, binary),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        return done.returncode
    return check_metrics(root, args.trace == "1", done.stdout)


def check_metrics(root, traced, stdout):
    """Requires the result line to carry exactly the metrics that
    BENCHMARK.json declares for the mode, so the two cannot drift."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if traced else "end_to_end"]
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    metrics = result.get("metrics", {})
    expected = {m["name"]: m["unit"] for m in declared}
    printed = {name: m.get("unit") for name, m in metrics.items()}
    if printed != expected:
        print("perfbench: result metrics %s do not match BENCHMARK.json %s"
              % (sorted(printed.items()), sorted(expected.items())),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
