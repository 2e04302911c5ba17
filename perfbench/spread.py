#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each end-to-end
metric's median and quartile spread (IQR / median), next to its bound
from BENCHMARK.json.

    python3 perfbench/spread.py --workload query_mix --seeds 1-10 [--seconds 10]

Run from the repository root. Each run goes through perfbench/run.py,
one after another, so runs never compete for the CPU.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    """`1-10` (inclusive range) or `3,3,3` (explicit list)."""
    if "," in spec:
        return [int(s) for s in spec.split(",")]
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="range like 1-10 or list like 3,3,3")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: output checks failed\n{out.stderr}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    print(f"\n{args.workload}: {len(seeds(args.seeds))} runs of {seconds} s")
    print(f"{'metric':<22}{'median':>14}{'spread':>9}{'bound':>8}")
    for metric in bench["end_to_end"]:
        vs = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread < metric["bound"] / 3 else "  > bound/3"
        print(f"{metric['name']:<22}{med:>14.6g}{spread:>9.3f}{metric['bound']:>8}{flag}")


if __name__ == "__main__":
    main()
