#!/usr/bin/env python3
"""Run-to-run spread of bench_e2e's end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed for each
workload, then prints, per metric, the median, min, max, the
interquartile spread (Q3 - Q1 over the median, quartiles as
statistics.quantiles(values, n=4) gives them) and the bound the spread
calls for, max(5%, 2 x (max - min) / median), with a 20 ms floor on
setup_s. A metric whose called-for bound exceeds its BENCHMARK.json
bound is marked "unresolved": a change smaller than that cannot be told
from noise by comparing medians.

--baseline writes bench/e2e/baseline.json (median, min, max, spread and
called-for bound per workload and metric, plus the machine stamp the
runs reported). --against compares this set's medians with the committed
baseline.json and fails when any differs by more than its bound.

    python3 bench/e2e/spread.py --seeds 1-10 [--workload vgg1-w2] \
        [--baseline | --against]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BASELINE = os.path.join(ROOT, "bench", "e2e", "baseline.json")
SETUP_FLOOR_S = 0.020


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    # "bench_e2e: nproc 4, cpu <model>, kernels avx2, seed 1, untraced"
    line = next(l for l in lines if l.startswith("bench_e2e: nproc"))
    fields = line[len("bench_e2e: "):].split(", ")
    stamp = {"nproc": int(fields[0].split()[1]),
             "cpu": fields[1][len("cpu "):],
             "kernel_backend": fields[2].split()[1]}
    return result, stamp


def called_for_bound(name, vals):
    med = statistics.median(vals)
    bound = max(0.05, 2 * (max(vals) - min(vals)) / med)
    if name == "setup_s":
        bound = max(bound, SETUP_FLOOR_S / med)
    return bound


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--baseline", action="store_true")
    mode.add_argument("--against", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    committed = {}
    if args.against:
        with open(BASELINE) as f:
            committed = json.load(f)["workloads"]
    baseline = {"runs_per_workload": 0, "run_seconds": spec["run_seconds"],
                "stamp": {}, "workloads": {}}
    disagreements = 0
    for workload in workloads:
        values = {}
        seeds = parse_seeds(args.seeds)
        for seed in seeds:
            result, stamp = run_once(spec, workload, seed)
            baseline["stamp"] = stamp
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        baseline["runs_per_workload"] = len(seeds)
        rows = {}
        print(f"== {workload} ({len(seeds)} runs)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            called = called_for_bound(name, vals)
            flags = []
            if spread > bound / 3:
                flags.append("spread above bound/3")
            if called > bound:
                flags.append(f"unresolved below {called:.2f}")
            if workload in committed:
                before = committed[workload][name]["median"]
                change = med / before - 1
                flags.append(f"vs baseline {change:+.3f}")
                if change > bound or change < -bound:
                    flags.append("OUTSIDE BOUND")
                    disagreements += 1
            print(f"  {name:18s} median {med:12.4f}  min {min(vals):12.4f}"
                  f"  max {max(vals):12.4f}  iqr/median {spread:6.3f}"
                  f"  called-for {called:5.2f}  bound {bound:.2f}"
                  + "".join(f"  [{x}]" for x in flags))
            print("    by seed: " + " ".join(f"{v:.4g}" for v in vals))
            rows[name] = {"median": med, "min": min(vals), "max": max(vals),
                          "iqr_over_median": spread,
                          "called_for_bound": called}
        baseline["workloads"][workload] = rows
    if args.baseline:
        with open(BASELINE, "w") as f:
            json.dump(baseline, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {BASELINE}")
    if disagreements:
        sys.exit(f"{disagreements} medians moved by more than their bound")


if __name__ == "__main__":
    main()
