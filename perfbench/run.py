#!/usr/bin/env python3
"""Builds the P4BID benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 20 --trace 0

The benchmark is a Rust package of its own (perfbench/Cargo.toml) that
builds against the repository's crates. Cargo's output goes to stderr; the
benchmark's notes and its one-line JSON result go to stdout, the result
last. A failed build exits with cargo's code and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(os.path.abspath(target), "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
