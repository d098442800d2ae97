#!/usr/bin/env python3
"""Measure the benchmark's baseline on this host.

Runs every workload that BENCHMARK.json declares once per seed with
--trace 0, then once with --trace 1, from the repository root, and writes
perfbench/BASELINE.json: for each workload and end-to-end metric the
median, the quartiles and the spread (the interquartile range as a share
of the median, the way a regression bound is judged); each run's wall
time; the traced run's per-layer values; the host's core count and the
serve thread count. A spread wider than a third of the metric's bound is
flagged.

    python3 perfbench/baseline.py [--seeds 10] [--first-seed 1]
        [--workloads run_loops,serve_mixed] [--no-trace] [--out PATH]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(bench, workload, seed, trace):
    """One benchmark run: its result line and its wall seconds."""
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                 f"{proc.stderr[-4000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: not correct\n"
                 f"{proc.stdout}{proc.stderr[-4000:]}")
    return result, wall


def summary(values):
    """Median, quartiles and spread, as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main():
    ap = argparse.ArgumentParser(description="Measure the benchmark's baseline.")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated; all when empty")
    ap.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    ap.add_argument("--out", default=os.path.join(ROOT, "perfbench", "BASELINE.json"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    cores = len(os.sched_getaffinity(0))
    doc = {"nproc": cores, "serve_threads": cores, "run_seconds": bench["run_seconds"],
           "seeds": seeds, "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            result, wall = run(bench, name, seed, 0)
            runs.append((result, wall))
            shown = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed} ({wall:.1f} s): {shown}", flush=True)
        entry = {"attempted": sum(r["attempted"] for r, _ in runs), "failed": 0,
                 "run_wall_s": summary([w for _, w in runs]), "metrics": {}}
        for m in bench["end_to_end"]:
            s = summary([r["metrics"][m["name"]]["value"] for r, _ in runs])
            s["bound"] = m["bound"]
            entry["metrics"][m["name"]] = s
            wide = m["name"] != "setup_s" and s["spread"] >= m["bound"] / 3
            print(f"  {m['name']:<13} median {s['median']:<12.6g} spread {s['spread']:.4f} "
                  f"bound {m['bound']}{'  WIDER THAN A THIRD OF THE BOUND' if wide else ''}",
                  flush=True)
        if not args.no_trace:
            result, wall = run(bench, name, seeds[0], 1)
            entry["traced"] = {"seed": seeds[0], "wall_s": wall, "attempted": result["attempted"],
                               "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
            overhead = result["metrics"]["tracing.overhead_ratio"]["value"]
            print(f"  traced run ({wall:.1f} s): tracing.overhead_ratio {overhead:.4f}", flush=True)
        doc["workloads"][name] = entry
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
