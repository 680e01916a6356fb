#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark driver (perfbench/CMakeLists.txt, which compiles the
library from ../src) into .bench_build/ under the checkout, runs the
workload in one process and re-prints its result line. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1 (whose spans are also written to .bench_build/traces/). Exits
non-zero without a result line when the build or the run fails, and
non-zero after the result line when a correctness check fails. See
perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("ingest", "retrieve", "refine", "learned")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the driver; a no-op build when up to date."""
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", os.path.join(BUILD_DIR, "cmake"),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", os.path.join(BUILD_DIR, "cmake"), "-j2",
         "--target", "perfbench"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "cmake", "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(BUILD_DIR, "work")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, "traces", "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench timed out after %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench failed (exit %d) without a result"
                 % done.returncode)
    print(json.dumps(result))
    if done.returncode != 0 or result.get("correct") is not True:
        sys.exit("perfbench: correctness checks failed (exit %d)"
                 % done.returncode)

if __name__ == "__main__":
    main()
