#!/usr/bin/env python3
"""Steadiness report: runs the benchmark several times per workload, each
run with another seed, and prints for every metric its median, quartiles,
(q3 - q1) / median and (max - min) / median. A metric whose (max - min) /
median exceeds 0.1 is flagged, and so is an end-to-end metric whose
quartile spread reaches a third of its bound in BENCHMARK.json.

    python3 perfbench/steadiness.py --runs 10 [--workloads paper_query ...]
        [--seconds N] [--trace 0|1] [--first-seed 1]

Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"run failed ({workload}, seed {seed}):\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    flagged = 0
    for w in args.workloads:
        values = {}
        for i in range(args.runs):
            res = run_once(w, args.first_seed + i, args.seconds, args.trace)
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {args.first_seed + i}: correct={res['correct']} "
                      f"failed={res['failed']}")
                flagged += 1
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{w}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} "
              f"{'range/med':>9s}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            iqr = (q3 - q1) / med if med else 0.0
            rng = (max(vals) - min(vals)) / med if med else 0.0
            notes = []
            if rng > 0.1:
                notes.append("range>0.1")
            if name in bounds and name != "setup_s" and iqr >= bounds[name] / 3:
                notes.append(f"iqr>=bound/3 ({bounds[name]})")
                flagged += 1
            print(f"  {name:32s} {med:12.4f} {q1:12.4f} {q3:12.4f} {iqr:8.4f} {rng:9.4f} "
                  f"{' '.join(notes)}")
            print(f"  {'':32s} runs: {' '.join(f'{v:.4g}' for v in vals)}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
