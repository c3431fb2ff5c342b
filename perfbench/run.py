#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources and runs one workload.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload serve_paged --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The build goes to .bench_build/perfbench (Release); column files and span
dumps go to .bench_build/perfbench-data and the column files are removed
when the run ends. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. Exits non-zero, printing no result, when
the checkout holds no library sources to build.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DATA = os.path.join(ROOT, ".bench_build", "perfbench-data")
RUN_TIMEOUT_S = 175


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources under src/ to build",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", SOURCE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"], 300):
            return False
    jobs = str(os.cpu_count() or 1)
    return run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target",
                      target], 840)


def main(argv):
    if argv == ["--selftest"]:
        if not build("perfbench_selftest"):
            return 2
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              cwd=ROOT).returncode
    if not build("perfbench"):
        return 2
    os.makedirs(DATA, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench")] + argv + ["--data-dir", DATA]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
