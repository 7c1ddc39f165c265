#!/usr/bin/env python3
"""Confirm that the workload seed reaches the simulated programs.

Runs every workload traced (so the traced-equals-untraced check runs
too) on the suite-default seed 0 and on the held-out seed, and checks
that both pass every correctness check and that their simulated
outputs differ. Run from the root of a checkout:

    python3 simbench/check_seeds.py
"""

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("gather", "chase", "compute", "pf-grid")
HELD_OUT_SEED = 9001
SECONDS = 2
DIGEST = re.compile(r"output digest ([0-9a-f]+)")


def run(workload, seed):
    """Return (passed, output digest) of one traced run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(SECONDS),
         "--trace", "1"], capture_output=True, text=True)
    digest = DIGEST.search(proc.stderr)
    return proc.returncode == 0, digest.group(1) if digest else None


def main():
    ok = True
    for workload in WORKLOADS:
        base_ok, base = run(workload, 0)
        held_ok, held = run(workload, HELD_OUT_SEED)
        differs = base is not None and held is not None and base != held
        print("%-8s seed 0: %s %s  seed %d: %s %s  outputs differ: %s"
              % (workload, "pass" if base_ok else "FAIL", base, HELD_OUT_SEED,
                 "pass" if held_ok else "FAIL", held,
                 "yes" if differs else "NO"))
        ok = ok and base_ok and held_ok and differs
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
