#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the command of BENCHMARK.json once per seed on each workload and
prints, for every end-to-end metric, the median over the seeds and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound. A spread above a third of its bound is flagged.

    python3 perfbench/steady.py --seeds 1-10
    python3 perfbench/steady.py --workloads validate-cold --seeds 1,2,3,4,5

Run from the root of a source checkout. Every run must exit 0 and report
correct=true; any other outcome stops the check with a non-zero exit.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    result_s = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, result {result}")
    return result, result_s


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in names:
        values = {}
        for seed in seeds:
            result, wall = run(bench, workload, seed)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed} ({wall:.1f} s): " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            line = f"  {workload:16s} {name:28s} median {med:12.5g}"
            if len(vals) >= 2 and med != 0:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                line += f"  spread {spread:7.4f}"
                bound = bounds.get(name)
                if bound is not None:
                    flag = "ok" if spread < bound / 3 else "WIDE"
                    steady &= flag == "ok"
                    line += f"  bound {bound:.2f}  {flag}"
            print(line, flush=True)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
