#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its own bounds.

Run from the repository root:

  python3 perfbench/spread.py --runs 10 [--workload serve_mixed ...]

Runs each workload --runs times with seeds 1..N (untraced, BENCHMARK.json's
run_seconds), then prints for every end-to-end metric its median, its
spread: (Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4)
gives them, and every run's value. A spread of a third of the metric's
bound or more is flagged, setup_s included; any flag makes the exit code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    steady = True
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed ({result})")
                steady = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({args.runs} runs)")
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            if len(vals) < 4:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            limit = metric["bound"] / 3
            flag = ""
            if spread >= limit:
                flag = "  <-- spread >= bound/3"
                steady = False
            print(f"  {metric['name']:18s} median {med:12.4f} "
                  f"{metric['unit']:7s} spread {spread:7.4f} "
                  f"(bound {metric['bound']}){flag}")
            print("      runs: " + " ".join(f"{v:.4g}" for v in vals))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
