#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload detailed|sampled|observed \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/main.exe from
source with dune, then runs one workload; the last line of the output
is the JSON result. The exit code is non-zero when the build or the run
fails, and then no result is printed.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # The shared dune cache lives outside the checkout: keep every build
    # artefact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "./perfbench/main.exe"],
            cwd=root,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
        if build.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
        exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
        return subprocess.run(
            [exe] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S
        ).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
