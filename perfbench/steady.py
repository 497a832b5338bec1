#!/usr/bin/env python3
"""Steadiness report: runs one workload N times, each with its own seed, and
prints every metric's median, quartiles and spread (interquartile range as a
share of the median), next to the bound BENCHMARK.json gives it.

    python3 perfbench/steady.py --workload wire_steady [--runs 10]

Run i uses seed i (1 to N), BENCHMARK.json's run_seconds and no tracing.

Each run's host line (steal ticks and process CPU over its timed phases) is
printed too, so a run slowed by the host can be told apart from one slowed
by the program.
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
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    values, failed_share = {}, []
    for i in range(args.runs):
        seed = 1 + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        host = [l for l in lines if l.startswith("host:")]
        print(f"run {i} seed {seed} exit {proc.returncode}: {host[0] if host else ''}")
        if proc.returncode != 0 or not lines:
            print("\n".join(lines[-5:]))
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("run reported correct=false")
            return 1
        failed_share.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print(f"\n{args.workload}: {args.runs} runs, failed share {sorted(set(failed_share))}")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
