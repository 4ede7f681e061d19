#!/usr/bin/env python3
"""Build the benchmark and the `swt` worker binary, then run one workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Cargo writes to $CARGO_TARGET_DIR (default
`.bench_build`); dist workloads spawn `swt dist-worker` from the same target
directory. The benchmark's own output, ending in one JSON result line, is
passed through unchanged and its exit code returned.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--quiet", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--quiet", "--manifest-path",
         os.path.join(ROOT, "Cargo.toml"), "-p", "swt", "--bin", "swt"],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            sys.stderr.write("e2ebench: build failed: %s\n" % " ".join(cmd))
            return built.returncode or 1
    env["SWT_DIST_WORKER_EXE"] = os.path.join(target, "release", "swt")
    sys.stdout.flush()
    return subprocess.run([os.path.join(target, "release", "e2ebench")] + sys.argv[1:],
                          cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
