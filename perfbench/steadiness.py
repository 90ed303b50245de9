#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs the command from BENCHMARK.json on each workload, once per seed and
repetition, and reports for every end-to-end metric its median and its
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A spread
above a third of the metric's bound is flagged. With two or more seeds it
also reports each seed's median, so a seed-dependent metric shows.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 1,2,3,4,5,6,7,8,9,10
    python3 perfbench/steadiness.py --workloads sim_grid --seeds 1,7 --repeats 3
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correctness gate failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--raw", action="store_true", help="also print every run's value")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for _ in range(args.repeats):
            for seed in seeds:
                runs.append((seed, run_once(bench["command"], workload, seed, args.seconds)))
        print(f"== {workload}: {len(runs)} runs")
        for name, bound in bounds.items():
            values = [r[name] for _, r in runs]
            med, sp = spread(values) if len(values) >= 2 else (values[0], 0.0)
            flag = "" if sp <= bound / 3 else ("  ABOVE BOUND/3" if sp <= bound else "  ABOVE BOUND")
            if name != "setup_s":
                worst = max(worst, sp / bound)
            per_seed = ""
            if len(seeds) > 1 and args.repeats > 1:
                per_seed = "  per seed: " + ", ".join(
                    f"{s}={statistics.median([r[name] for t, r in runs if t == s]):.5g}"
                    for s in seeds)
            print(f"  {name:<16} median {med:>14.5g}  spread {sp:7.2%}  bound {bound:.2f}{flag}{per_seed}")
            if args.raw:
                print("    " + " ".join(f"{v:.5g}" for v in values))
    print(f"largest spread / bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
