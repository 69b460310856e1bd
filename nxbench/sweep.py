#!/usr/bin/env python3
"""Run the benchmark over several seeds and collect one result set.

    python3 nxbench/sweep.py --out SET.jsonl [--seeds 1-10]
        [--workloads npn_hot,synth_cold,fault_flow] [--trace 0] [--seconds S]

Runs run.py once per workload and seed (sequentially), appends every
result to SET.jsonl, and prints each end-to-end metric's median and its
quartile spread as a share of the median, next to a third of its bound.
Run from the root of a checkout; --seconds defaults to BENCHMARK.json's
run_seconds.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = compare.load_benchmark()
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    env = dict(os.environ, NXBENCH_RESULTS=os.path.abspath(args.out))
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "nxbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", args.trace],
                stdout=subprocess.PIPE, text=True, env=env)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print("%s seed %d: exit %d %s" % (workload, seed, proc.returncode,
                                             last[0][:160]), flush=True)
    results = compare.load_results(args.out)
    for line in compare.spread_report(bench, results):
        print(line)


if __name__ == "__main__":
    main()
