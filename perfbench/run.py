#!/usr/bin/env python3
"""Build the griffin host-speed benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The library and the benchmark binary
are built with CMake into .bench_build/perfbench (build output goes to
stderr); the benchmark's own spans are written beside the build. The
last line of stdout is the result JSON: {correct, attempted, failed,
metrics}. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# A run measures for --seconds, then reports; anything far beyond that
# is a hang, and the child is stopped rather than left behind.
RUN_SLACK_S = 120


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no griffin sources under {ROOT / 'src'}")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    spans = BUILD / "spans"
    spans.mkdir(exist_ok=True)
    cmd = [str(BUILD / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--reference", str(ROOT / "BENCH_SC.json"),
           "--spans", str(spans / f"{args.workload}-seed{args.seed}"
                                   f"-trace{args.trace}.json")]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out and was stopped")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
