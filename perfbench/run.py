#!/usr/bin/env python3
"""Build presat from source and run one benchmark workload.

    python3 perfbench/run.py --workload <search|enum|reach|daemon> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (this
directory) and the `presatd` binary in release mode, offline, into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the benchmark. Build
output goes to stderr; the last stdout line is the result JSON.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "--bin", "presatd"],
    ]
    for cmd in builds:
        if not os.path.isfile(cmd[cmd.index("--manifest-path") + 1]):
            print("perfbench: run from the repository root", file=sys.stderr)
            return 2
        built = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    bench = subprocess.run(
        [os.path.join(release, "perfbench"), *sys.argv[1:],
         "--presatd", os.path.join(release, "presatd")],
        cwd=root)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
