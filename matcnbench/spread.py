#!/usr/bin/env python3
"""Runs each workload with several seeds and reports the run-to-run spread.

    python3 matcnbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound in
BENCHMARK.json, plus the share of failed operations per run. Run from the
root of a checkout; each run goes through run.py, one after another.
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
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for workload in workloads:
        values, failed_shares, correct = {}, set(), True
        for i in range(args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seed", str(args.first_seed + i), "--seconds",
                   str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            correct = correct and result["correct"]
            failed_shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("== %s: %d runs, correct=%s, failed shares %s" %
              (workload, args.runs, correct, sorted(failed_shares)))
        for name, v in values.items():
            q = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            spread = (q[2] - q[0]) / median if median else 0.0
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print("  %-14s median %12.5f  spread %.3f  bound %.2f  values %s" %
                  (name, median, spread, bounds[name],
                   " ".join("%.5g" % x for x in v)))
        sys.stdout.flush()
    print("largest spread/bound (setup_s excluded): %.2f" % worst)


if __name__ == "__main__":
    main()
