#!/usr/bin/env python3
"""Build and run the bLSM benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/blsm_bench.exe with dune (the first build compiles the
whole engine), runs it with the same arguments, and passes its output
through: report lines, then one JSON result as the last line. A traced
run (--trace 1) writes its spans to perfbench/out/. Exits nonzero, with
no result line, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # keep every build product inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "--display", "quiet",
             "./perfbench/blsm_bench.exe"],
            cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: build failed: {e}")
    if build.returncode != 0:
        sys.exit(f"run.py: build failed with code {build.returncode}")

    exe = os.path.join(root, "_build", "default", "perfbench", "blsm_bench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(root, "perfbench", "out")]
    try:
        run = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: benchmark failed: {e}")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
