#!/usr/bin/env python3
"""Steadiness mode: run workloads repeatedly and print each metric's
median, quartiles and spread.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--trace 0|1]
                                [--seconds N] [workload ...]

Each run gets its own seed (first-seed, first-seed+1, ...). The spread
is (q3 - q1) / median with quartiles as Python's
statistics.quantiles(values, n=4) gives them; for end-to-end metrics it
is compared with a third of the metric's bound in BENCHMARK.json.
Workloads default to every workload in BENCHMARK.json. Exits 1 if a
run is incorrect or an end-to-end spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for w in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(w, seed, args.seconds, args.trace)
            if not result["correct"]:
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"   {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  WIDE" if spread <= bound else "  OVER"
                ok = ok and spread <= bound
            b = f"{bound:6.2f}" if bound is not None else "     -"
            print(f"   {name:32} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {b}{flag}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
