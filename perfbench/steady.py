#!/usr/bin/env python3
"""Steadiness mode: runs sets of benchmark runs and prints, per set and
metric, the median, the quartiles and the spread (Q3 - Q1) / median, as
Python's statistics.quantiles(values, n=4) gives them. With two or more
sets it also prints how far each later set's median lies from the first
set's, so two-set agreement can be shown and re-checked.

    python3 perfbench/steady.py --workload serve-mixed --runs 10 --sets 2

Run from the repository root. Each run uses its own seed: set k, run i
gets seed `seed_base + k * runs + i`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"run {workload} seed {seed} failed its checks: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--seed-base", type=int, default=1)
    a = ap.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    cmd = spec["command"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for w in a.workload:
        firsts = {}
        for k in range(a.sets):
            runs = [one_run(cmd, w, a.seed_base + k * a.runs + i, seconds)
                    for i in range(a.runs)]
            print(f"{w} set {k + 1} ({a.runs} runs, {seconds} s each)")
            for name in runs[0]:
                vals = [r[name] for r in runs]
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                line = (f"  {name:<24} median={med:<12.6g} q1={q1:<12.6g} "
                        f"q3={q3:<12.6g} spread={spread:.4f}")
                if bounds.get(name) is not None:
                    line += f" bound={bounds[name]}"
                if k == 0:
                    firsts[name] = med
                elif firsts[name]:
                    line += f" vs-set1={med / firsts[name] - 1:+.4f}"
                print(line, flush=True)


if __name__ == "__main__":
    main()
