#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload editor-replay --seed 1 \
        --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), in Release mode. Build output goes to stderr;
the benchmark's own output goes to stdout, and its last line is the JSON
result. The exit code is the benchmark's, or 1 when the build fails.
See README.md in this directory for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("oneshot-corpus", "editor-replay")


def build(build_dir):
    """Configures (once) and builds perfbench; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # A relative build directory keeps the daemon's socket path short.
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.relpath(os.path.join(root, "perfbench"))
    binary = build(build_dir)
    if binary is None:
        return 1
    sys.stdout.flush()
    return subprocess.run([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--expected-dir", os.path.join(HERE, "expected"),
        "--work-dir", build_dir,
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
