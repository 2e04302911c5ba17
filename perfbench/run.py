#!/usr/bin/env python3
"""Builds the dpgrid benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); cargo's output goes to stderr, so the
benchmark's own last stdout line is the result.

The benchmark runs pinned to one CPU. Its client keeps one request in
flight, so it never has work for a second CPU; pinned, each
client/server handoff is a switch on the same CPU. Unpinned on a
shared 2-vCPU VM, every request had to wake the other, idle vCPU, and
latency and rates swung 2x between runs.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    one_cpu = {min(os.sched_getaffinity(0))}
    run = subprocess.run(
        [os.path.join(target, "release", "perfbench")] + sys.argv[1:],
        env=env, preexec_fn=lambda: os.sched_setaffinity(0, one_cpu),
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
