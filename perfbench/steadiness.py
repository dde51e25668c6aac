#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and the baseline file.

    python3 perfbench/steadiness.py --runs 10 --first-seed 1 [--out FILE]

Runs run.py --trace 0 once per seed on each workload of BENCHMARK.json
(or on those named with --workload), for BENCHMARK.json's run_seconds.
For every metric it prints the median and quartiles of the runs (as
statistics.quantiles(values, n=4) gives them) and the spread, the
quartile distance over the median, beside the metric's bound. A spread
of a third of the bound or more is flagged; setup_s is exempt. --out
writes the same figures as JSON, with the commit measured.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, check=False)
    lines = proc.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit("steadiness: %s seed %d failed (exit code %d)"
                 % (workload, seed, proc.returncode))
    return {name: m["value"] for name, m in result["metrics"].items()}


def commit():
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          check=False)
    return proc.stdout.decode().strip() or None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    report = {"commit": commit(), "runs": args.runs,
              "first_seed": args.first_seed,
              "run_seconds": bench["run_seconds"], "workloads": {}}
    steady = True
    for workload in workloads:
        runs = [run_once(workload, args.first_seed + i, bench["run_seconds"])
                for i in range(args.runs)]
        report["workloads"][workload] = {}
        for m in metrics:
            values = [r[m["name"]] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = m["name"] != "setup_s" and spread >= m["bound"] / 3
            steady = steady and not flag
            print("%-16s %-15s median %12.4f  q1 %12.4f  q3 %12.4f  "
                  "spread %6.3f  bound %.2f%s"
                  % (workload, m["name"], median, q1, q3, spread, m["bound"],
                     "  UNSTEADY" if flag else ""), flush=True)
            report["workloads"][workload][m["name"]] = {
                "unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "values": values}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
