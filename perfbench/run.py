#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py compare BASE.result.json NEW.result.json

Run from the repository root. Cargo builds into $CARGO_TARGET_DIR
(default `.bench_build`) with the release profile, offline. Two binaries
are built: `perfbench`, which measures, and `perfbench-profiled`, built
with the simulator's `profile` feature for the profiled sub-run of a
traced run. Build output goes to standard error, so the last line of
standard output is the benchmark's result line.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def build(target_dir):
    base = ["cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", MANIFEST]
    for extra in (["--bin", "perfbench"],
                  ["--features", "profile", "--bin", "perfbench-profiled"]):
        done = subprocess.run(base + extra, stdout=sys.stderr,
                              env=dict(os.environ, CARGO_TARGET_DIR=target_dir))
        if done.returncode != 0:
            sys.exit("run.py: building the benchmark failed")


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(
            os.path.join(root, "crates")):
        sys.exit("run.py: run from the repository root (no Cargo.toml and crates/ here)")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target_dir)
    exe = os.path.join(target_dir, "release", "perfbench")
    sys.stdout.flush()
    sys.exit(subprocess.run([exe] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
