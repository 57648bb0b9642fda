#!/usr/bin/env python3
"""The repo benchmark, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench/ (and the simulator sources it compiles) into
.bench_build/perfbench under the checkout, then runs one workload. The last
line of standard output is the JSON result: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. `--workload all` runs every
workload in turn. `--self-test` runs the decorator self-test instead.
Build output goes to standard error.
"""

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("resnet-apfq-train", "kws-lstm-async-eval")
RUN_TIMEOUT_S = 175


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no simulator sources at {ROOT / 'src'}")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return BUILD / target


def run(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {' '.join(cmd)} timed out", file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return run([str(build("perfbench_selftest"))])
    if args.workload is None:
        parser.error("--workload is required")
    runner = str(build("perfbench_runner"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        sys.stdout.flush()
        status |= run([runner, "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)])
    return status


if __name__ == "__main__":
    sys.exit(main())
