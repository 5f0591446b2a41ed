#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--seconds S] [--out results.json]

Runs perfbench/run.py once per seed (seeds first-seed .. first-seed+runs-1)
on each workload and prints, per end-to-end metric, the median and the
spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. A spread above a third of its bound is
flagged. --out also saves every run's values.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", repr(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                check=False)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last)
            if proc.returncode != 0 or not result.get("correct"):
                print("%s seed %d: FAILED (exit %d)" % (workload, seed, proc.returncode))
                steady = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        results[workload] = values
        print(workload)
        for name, bound in bounds.items():
            v = values[name]
            if len(v) < 2:
                continue
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q[2] - q[0]) / med if med else float("inf")
            flag = "" if spread < bound / 3 else ("  <-- above bound/3" if spread < bound
                                                   else "  <-- ABOVE BOUND")
            if spread >= bound / 3:
                steady = False
            print("  %-12s median %12.6g  spread %6.3f  bound %.2f%s"
                  % (name, med, spread, bound, flag))
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
