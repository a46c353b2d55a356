#!/usr/bin/env python3
"""Build the simulator benchmark from source, then run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload fattree-pase --seed 1 --seconds 15 --trace 0

Every argument is passed on to perfbench/perf.exe (see perfbench/README.md).
The build directory is $CARGO_TARGET_DIR when that is set, _build otherwise,
and dune's shared cache is off, so nothing is written outside the checkout.
Build output goes to stderr; stdout carries only the benchmark's own output,
whose last line is the JSON result. A failed build exits with status 2.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        built = subprocess.run(
            ["dune", "build", "--root", ROOT, "--build-dir", build_dir,
             "--display", "quiet", "./perfbench/perf.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=850)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(ROOT, build_dir, "default", "perfbench", "perf.exe")
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
