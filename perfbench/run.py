#!/usr/bin/env python3
"""Builds the `slic` CLI and the benchmark from source, then runs the benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Both builds go to `$CARGO_TARGET_DIR` (default `.bench_build`).  The benchmark needs the
`slic` binary for its spawned farm workers and for its one-time `slic characterize`
cross-check.  Build output goes to standard error; a failed build exits nonzero without
printing a result.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build(args):
    """Runs one offline release build, build output on standard error."""
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        sys.exit(result.returncode)


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    build(["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "slic-cli"])
    build(["--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")])
    release = os.path.join(target, "release")
    bench = os.path.join(release, "perfbench")
    os.chdir(ROOT)
    os.execv(bench, [bench, *sys.argv[1:], "--slic", os.path.join(release, "slic")])


if __name__ == "__main__":
    main()
