#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve --seeds 1-10 [--trace 1]

For every end-to-end metric (or per-layer metric with --trace 1) it
prints the median and the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. End-to-end spreads
are compared with the metric's bound in BENCHMARK.json: "ok" below a
third of the bound, "WIDE" below the bound, "FAIL" above it. It also
checks that every run printed exactly the metrics BENCHMARK.json names.
Runs are sequential, from the root of the checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--log", help="directory to keep each run's output in")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    key = "per_layer" if args.trace == "1" else "end_to_end"
    declared = {m["name"]: m for m in bench[key]}
    values = {name: [] for name in declared}
    bad = 0
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        t0 = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.time() - t0
        if args.log:
            with open(f"{args.log}/{args.workload}-{seed}.txt", "w") as f:
                f.write(proc.stdout + proc.stderr)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        result = json.loads(last)
        got = result.get("metrics", {})
        ok = proc.returncode == 0 and result.get("correct") and set(got) == set(declared)
        bad += not ok
        print(f"seed {seed}: exit {proc.returncode}, correct {result.get('correct')}, "
              f"{wall:.1f} s wall, attempted {result.get('attempted')}, failed {result.get('failed')}"
              + ("" if set(got) == set(declared) else
                 f", metric names differ: {sorted(set(got) ^ set(declared))}"))
        for name in declared:
            if name in got:
                values[name].append(got[name]["value"])
    print(f"{'metric':36} {'median':>14} {'IQR/median':>11}")
    for name, m in declared.items():
        vs = values[name]
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf") if q3 != q1 else 0.0
        verdict = ""
        if "bound" in m:
            verdict = ("ok" if spread < m["bound"] / 3 else
                       "WIDE" if spread <= m["bound"] else "FAIL")
            bad += verdict == "FAIL"
        print(f"{name:36} {med:14.4f} {spread:11.4f} {verdict:4} "
              + " ".join(f"{v:.6g}" for v in vs))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
