#!/usr/bin/env python3
"""Builds the fgro libraries from this checkout and runs one benchmark run.

Usage, from the repository root:

  python3 perfbench/run.py --workload decide-hot --seed 1 --seconds 30 --trace 0

Workloads: decide-hot, decide-wide-sharded, serve-churn (see NOTES.md).
--trace 0 runs the timed binary and prints the end-to-end metrics;
--trace 1 runs the traced binary and prints the per-layer metrics. The last
line of standard output is the JSON result. The build lives in
.bench_build/ under the repository root and is reused by later runs.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("decide-hot", "decide-wide-sharded", "serve-churn")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds both drivers; build output goes to stderr."""
    steps = [
        ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "4",
         "--target", "perfbench", "perfbench_traced"],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in [1, 120]")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "perfbench_traced" if args.trace else
                          "perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
