#!/usr/bin/env python3
"""Build pgr and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace <0|1>

Run from the root of a checkout. Build products go to $CARGO_TARGET_DIR
(default .bench_build); build output goes to standard error, so the last
line of standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(os.path.join(ROOT, target))
    os.environ["CARGO_TARGET_DIR"] = target
    program = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(program):
        sys.exit("run.py: no pgr workspace next to the benchmark; nothing to measure")
    build(program, "-p", "pgr-cli")
    build(os.path.join(HERE, "Cargo.toml"))
    state = os.path.join(target, "perfbench-state")
    os.makedirs(state, exist_ok=True)
    bench = os.path.join(target, "release", "perfbench")
    pgr = os.path.join(target, "release", "pgr")
    # Paths handed on stay relative to the checkout, which keeps the
    # server's Unix socket path short.
    rel = lambda p: os.path.relpath(p, ROOT)
    cmd = [bench, *sys.argv[1:], "--pgr", rel(pgr), "--state", rel(state)]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
