#!/usr/bin/env python3
"""Build the benchmark binary from source and run one workload.

    python3 perfbench/run.py --workload {sim-paper|loopback-hybrid|udp-fifo} \
        --seed N --seconds S --trace {0|1}

Run from the repository root. The first run configures and builds an
optimized copy of the library and the benchmark binary under
.bench_build/perfbench (about a minute on 4 cores); later runs only check
that the build is current. Build output goes to standard error, so the
last line of standard output is the binary's JSON result. Traced runs also write their sampled spans to
.bench_build/traces/. The exit code is the binary's: 0 only when every
correctness check passed.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
DRIVER = os.path.join(BUILD, "perfbench_driver")
# The binary bounds its own run (set-up, load, drain deadlines); this is
# the backstop that keeps a wedged run from outliving the caller's limit.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench_driver"],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(TRACES, exist_ok=True)
    cmd = [DRIVER, *sys.argv[1:], "--out-dir", TRACES]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
