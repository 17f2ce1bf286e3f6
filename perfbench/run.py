#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload flow-paper|flow-wbga|serve-mixed \
        --seed N --seconds S --trace 0|1

Run it from the root of a yieldlab checkout.  It builds perfbench/main.exe
with dune inside the checkout (build tree in _build/, shared dune cache
off, so nothing is written outside the checkout), then runs it with the
same arguments.  The executable prints every metric on stderr and one JSON
result object as the last line of stdout; its exit code is passed through.
Outside a checkout (no dune-project or lib/) it exits 2 without a result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def main():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from the root of a "
                  "yieldlab checkout", file=sys.stderr)
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    target = "./perfbench/main.exe"
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", target],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
