#!/usr/bin/env python3
"""Build simbench from source and run one benchmark workload.

Usage, from the root of a checkout:

    python3 simbench/run.py --workload gather --seed 1 --seconds 20 --trace 0

The first run configures and builds into .bench_build/simbench (later
runs only re-check the build). Build output goes to stderr; the last
line of stdout is simbench's JSON result. The exit code is
simbench's: 0 when every simulated point passed its checks.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")
WORKLOADS = ("gather", "chase", "compute", "pf-grid")
# simbench stops measuring after --seconds, then finishes the pass
# in flight; anything far beyond that is a hang.
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build simbench; return its path."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "simbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "simbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("simbench: no simulator sources at %s" % ROOT, file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("simbench: build failed: %s" % e, file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("simbench: exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
