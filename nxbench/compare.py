#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 nxbench/compare.py BASE.jsonl NEW.jsonl

Each set is a results file written by run.py or sweep.py (one JSON
record per run: workload, seed, trace, result).  For every workload and
metric it prints each side's median and quartiles and the change of the
median.  An end-to-end metric is "within" when the new median is not
worse than the base by more than the metric's bound from BENCHMARK.json,
"worse" or "better" when it moves further, and "unresolved" when either
side's quartile spread (as a share of its median) is wider than the
bound, so the runs cannot tell.  Per-layer metrics have no bound and are
listed for explanation only.  Run from the root of a checkout.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def load_results(path):
    """{(workload, trace): {metric: [values]}} from a results file."""
    out = defaultdict(lambda: defaultdict(list))
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            metrics = rec["result"]["metrics"]
            for name, m in metrics.items():
                out[(rec["workload"], rec["trace"])][name].append(m["value"])
    return out


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def spread_report(bench, results):
    lines = ["%-11s %-16s %12s %8s %8s" % ("workload", "metric", "median", "spread",
                                           "bound/3")]
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            values = results.get((w["name"], 0), {}).get(m["name"])
            if not values:
                continue
            med, _, _, spread = summary(values)
            flag = "" if spread <= m["bound"] / 3 else "  WIDE"
            lines.append("%-11s %-16s %12.5g %8.4f %8.4f%s" % (
                w["name"], m["name"], med, spread, m["bound"] / 3, flag))
    return lines


def verdict(metric, base, new):
    bmed, _, _, bspread = summary(base)
    nmed, _, _, nspread = summary(new)
    bound = metric["bound"]
    if bspread > bound or nspread > bound:
        return "unresolved"
    change = (nmed - bmed) / bmed if bmed else 0.0
    worse = change if metric["better"] == "lower" else -change
    if worse > bound:
        return "worse"
    if -worse > bound:
        return "better"
    return "within"


def main():
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        sys.exit(2)
    bench = load_benchmark()
    base, new = load_results(sys.argv[1]), load_results(sys.argv[2])
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}
    print("%-11s %-34s %12s %12s %12s %12s %8s  %s" % (
        "workload", "metric", "base_med", "base_q1..q3", "new_med", "new_q1..q3",
        "change", "verdict"))
    for w in bench["workloads"]:
        for trace, catalogue in ((0, e2e), (1, layers)):
            b, n = base.get((w["name"], trace), {}), new.get((w["name"], trace), {})
            for name, metric in catalogue.items():
                if not b.get(name) or not n.get(name):
                    continue
                bmed, bq1, bq3, _ = summary(b[name])
                nmed, nq1, nq3, _ = summary(n[name])
                change = "%+.1f%%" % (100 * (nmed - bmed) / bmed) if bmed else "n/a"
                print("%-11s %-34s %12.5g %5.4g..%-5.4g %12.5g %5.4g..%-5.4g %8s  %s" % (
                    w["name"], name, bmed, bq1, bq3, nmed, nq1, nq3, change,
                    verdict(metric, b[name], n[name]) if trace == 0 else "no bound"))


if __name__ == "__main__":
    main()
