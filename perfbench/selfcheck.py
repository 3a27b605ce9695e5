#!/usr/bin/env python3
"""Determinism self-check for the bLSM benchmark.

    python3 perfbench/selfcheck.py [--workload NAME] [--seconds S]

Runs the end-to-end benchmark twice with one seed and once with another
(through run.py, so it builds first). The "det" lines -- every figure on
the simulated clock, every count, write and space amplification,
allocation per op and the failure share -- must be byte-identical for
the same seed, and a different seed must change the op stream. Exits
nonzero if either does not hold.
"""

import argparse
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def det_lines(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    return [l for l in out.splitlines() if l.startswith("det ")]


def digest(lines):
    return next((l for l in lines if l.startswith("det op_stream_digest ")), None)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="mixed_uncached")
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args()

    a1 = det_lines(args.workload, 1, args.seconds)
    a2 = det_lines(args.workload, 1, args.seconds)
    b = det_lines(args.workload, 2, args.seconds)
    same = bool(a1) and a1 == a2
    changes = digest(a1) is not None and digest(a1) != digest(b)
    for x, y in zip(a1, a2):
        if x != y:
            print("differs:", x, "|", y)
    print(f"{len(a1)} deterministic figures; same seed identical: {same}; "
          f"another seed changes the op stream: {changes}")
    sys.exit(0 if same and changes else 1)


if __name__ == "__main__":
    main()
