#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The arguments go unchanged to perfbench/perfbench.exe, which prints a
report and, as its last line, the JSON result.  Build output goes to
standard error so that line stays last on standard output.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def main() -> int:
    missing = [p for p in ("dune-project", "lib", os.path.join("perfbench", "dune")) if not os.path.exists(p)]
    if missing:
        print("perfbench: run from the repository root (missing: %s)" % ", ".join(missing), file=sys.stderr)
        return 2
    # Keep every build product inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/perfbench.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
