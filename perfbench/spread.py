#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload etl --seeds 1-10 [--seconds 40]
        [--trace 0]

For every metric prints the median and the interquartile distance as a share
of the median (statistics.quantiles(values, n=4)), the figure the bounds in
BENCHMARK.json are judged against, and flags spreads at or above a third of
the metric's bound. Exits non-zero when a run fails, reports an incorrect
result or exits without one (those seeds are listed and left out of the
spreads), or prints metric names or units other than BENCHMARK.json lists.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    bounds = {m["name"]: m["bound"] for m in declared if "bound" in m}
    values = {}
    incorrect = []
    for seed in seeds(args.seeds):
        r = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        if r.returncode != 0:
            print("seed %d: exit code %d: %s" %
                  (seed, r.returncode, r.stderr[-500:]), file=sys.stderr)
            incorrect.append(seed)
            continue
        result = json.loads(r.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            report = json.loads(r.stdout.strip().splitlines()[-2])
            print("seed %d: incorrect result: %s" % (seed, report["errors"]),
                  file=sys.stderr)
            incorrect.append(seed)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != units:
            sys.exit("seed %d: metrics differ from BENCHMARK.json: %s" %
                     (seed, sorted(set(got.items()) ^ set(units.items()))))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d done" % seed, file=sys.stderr)

    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        flag = ""
        if name in bounds and name != "setup_s" and spread >= bounds[name] / 3:
            flag = "  <-- over a third of bound %.2f" % bounds[name]
        print("%-40s median %14.6g  spread %6.3f%s" % (name, med, spread,
                                                       flag))
        print("    " + " ".join("%.4g" % x for x in v))
    if incorrect:
        sys.exit("failed or incorrect runs on seeds %s" % incorrect)


if __name__ == "__main__":
    main()
