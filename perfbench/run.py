#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-miss --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test      # build and run the benchmark's own tests

A run is two processes, as `prsim_cli index` and `serve --index` are: the
index stage writes the workload's graph and its artifacts, and the run
starts from those artifacts, so its set-up time is a cold start. The build
lands in .bench_build/perfbench and each run's artifacts and trace spans
in .bench_work; both stay inside the checkout. Build output goes to
standard error, so the last line of standard output is the run's JSON
result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")


def build(with_tests):
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release",
         "-DPERFBENCH_BUILD_TESTS=" + ("ON" if with_tests else "OFF")],
        stdout=sys.stderr, check=True)
    target = "perfbench_test" if with_tests else "perfbench"
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", target],
                   stdout=sys.stderr, check=True)


def main(argv):
    with_tests = argv == ["--test"]
    try:
        build(with_tests)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    if with_tests:
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_test")]).returncode
    command = [os.path.join(BUILD_DIR, "perfbench"), *argv, "--workdir", WORK_DIR]
    index_stage = subprocess.run([command[0], "--stage", "index", *command[1:]])
    if index_stage.returncode != 0:
        return index_stage.returncode
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
