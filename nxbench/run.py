#!/usr/bin/env python3
"""Build and run the layered service benchmark.

    python3 nxbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a nanoxcomp checkout: it builds the benchmark
(and the libraries it links) from source with dune, under the "nxbench"
profile and in nxbench/_out/_build, runs it, and passes its output
through.  The last line of output is the JSON result.  Each
result is also appended, with its arguments, to nxbench/_out/results.jsonl
(or to the file named by NXBENCH_RESULTS), which sweep.py and compare.py
read.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    root = os.getcwd()
    for need in ("dune-project", "lib", os.path.join("nxbench", "dune")):
        if not os.path.exists(os.path.join(root, need)):
            sys.stderr.write(
                "nxbench: %s not found; run from the root of a nanoxcomp checkout\n" % need
            )
            return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build_dir = os.path.join(root, "nxbench", "_out", "_build")
    os.makedirs(os.path.dirname(build_dir), exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "nxbench", "--build-dir",
         build_dir, "--display", "quiet", "./nxbench/main.exe"],
        cwd=root,
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.stderr.write("nxbench: build failed\n")
        return 1

    exe = os.path.join(build_dir, "default", "nxbench", "main.exe")
    argv = [exe, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("nxbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode

    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if result is None:
        return 1
    log = os.environ.get("NXBENCH_RESULTS",
                         os.path.join(root, "nxbench", "_out", "results.jsonl"))
    os.makedirs(os.path.dirname(os.path.abspath(log)), exist_ok=True)
    with open(log, "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                            "trace": int(args.trace), "result": result}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
