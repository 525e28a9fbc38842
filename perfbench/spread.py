#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, on one build or alternating two.

    python3 perfbench/spread.py --workload serve-zipf --runs 10
    python3 perfbench/spread.py --workload ingest-ooc --runs 10 --other ../parent

Runs perfbench/run.py --runs times with seeds --first-seed, --first-seed+1,
... and prints, for every metric, the median and quartiles
(statistics.quantiles, n=4) and the interquartile spread as a share of the
median next to the metric's bound in BENCHMARK.json. With --other, every
seed also runs in that second checkout, alternating which side runs first,
and the table adds the other side's median and its change against this one,
signed so that a positive change is a regression.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(checkout, args, seed):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed in {checkout} (seed {seed}, exit {proc.returncode})")
    return json.loads(lines[-1])


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--other", help="second checkout to alternate with")
    parser.add_argument("--save", help="write every run's result to this JSON file")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    sides = {"this": ROOT}
    if args.other:
        sides["other"] = os.path.abspath(args.other)
    results = {name: [] for name in sides}
    for i in range(args.runs):
        seed = args.first_seed + i
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for name in order:
            results[name].append(one_run(sides[name], args, seed))
        print(f"seed {seed} done", file=sys.stderr, flush=True)

    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)

    for name, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"[{name}] {args.workload}: {len(runs)} runs, correct={correct}, "
              f"failed shares={sorted(shares)}")
    header = f"{'metric':40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}"
    if args.other:
        header += f" {'other median':>14} {'change':>8}"
    print(header)
    for metric in sorted(results["this"][0]["metrics"]):
        values = [r["metrics"][metric]["value"] for r in results["this"]]
        med, q1, q3, spread = summary(values)
        spec = specs.get(metric, {})
        bound = spec.get("bound")
        line = (f"{metric:40} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.2%} "
                f"{bound if bound is not None else '-':>6}")
        if bound is not None and metric != "setup_s" and spread > bound:
            line += "  SPREAD OVER BOUND"
        if args.other:
            other = statistics.median(
                r["metrics"][metric]["value"] for r in results["other"])
            sign = -1.0 if spec.get("better") == "higher" else 1.0
            change = sign * (other - med) / med if med else 0.0
            line += f" {other:14.6g} {change:+8.2%}"
            if bound is not None and change > bound:
                line += "  WORSE THAN BOUND"
        print(line)


if __name__ == "__main__":
    main()
