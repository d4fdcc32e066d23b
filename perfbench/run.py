#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload refresh_paper --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --self-test

The first form builds the library and the benchmark program (Release, into
$CARGO_TARGET_DIR or .bench_build) and runs one workload. The program prints a
host/config line, notes starting with '#', and as its last line the result
object {"correct", "attempted", "failed", "metrics"}. --trace 1 reports the
per-layer metrics instead of the end-to-end ones.

--self-test runs every workload briefly at a tiny scale and checks that each
metric named in BENCHMARK.json is emitted with its unit and that nothing
failed. Then, for each correctness gate of each workload in turn, it corrupts
one expectation of that gate alone (--corrupt-check <gate>) and checks that
the run is rejected and that every failure it reports comes from that gate.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("refresh_paper", "churn_ingest", "serve_mixed")
# The correctness gates of each workload; the program names the gate at the
# start of each failure it reports.
GATES = {
    "refresh_paper": ("views", "reads"),
    "churn_ingest": ("views", "reads", "recovery"),
    "serve_mixed": ("views", "reads"),
}
FAILURE_PREFIX = "perfbench: FAILED: "
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def source_id():
    """The git commit when the root is a git checkout, else a source digest."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0 and sha.stdout.strip():
                return "git:" + sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "gpivot_perfbench")


def run(binary, workload, seed, seconds, trace, extra=(), capture=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", os.path.join(os.path.dirname(binary), "runs"), *extra]
    env = dict(os.environ, PERFBENCH_SOURCE_ID=source_id())
    pipe = subprocess.PIPE if capture else None
    try:
        done = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S,
                              stdout=pipe, stderr=pipe, text=True)
    except subprocess.TimeoutExpired:
        log(f"{workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, "", ""
    return done.returncode, done.stdout or "", done.stderr or ""


def result_of(stdout):
    lines = [l for l in stdout.strip().splitlines() if l.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out, _ = run(binary, workload, 7, 1, trace, ["--quick"],
                               True)
            result = result_of(out)
            if code != 0 or not result or not result.get("correct"):
                problems.append(f"{workload} trace={trace}: exit {code}")
                continue
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: error_rate not 0")
            metrics = result["metrics"]
            for metric in spec[key]:
                got = metrics.get(metric["name"])
                if got is None:
                    problems.append(f"{workload}: {metric['name']} missing")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"{workload}: {metric['name']} unit "
                                    f"{got['unit']} != {metric['unit']}")
            extra = set(metrics) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{workload}: unlisted metrics {sorted(extra)}")
        for gate in GATES[workload]:
            code, out, err = run(binary, workload, 7, 1, 0,
                                 ["--quick", "--corrupt-check", gate], True)
            result = result_of(out)
            failures = [l for l in err.splitlines()
                        if l.startswith(FAILURE_PREFIX)]
            if code == 0 or not result or result.get("correct") is not False:
                problems.append(f"{workload}: a corrupted {gate} expectation "
                                f"was not rejected (exit {code})")
            elif not failures or any(
                    not l[len(FAILURE_PREFIX):].startswith(gate + ":")
                    for l in failures):
                problems.append(f"{workload}: corrupting the {gate} gate "
                                f"gave other failures: {failures}")
        log(f"self-test {workload}: done")
    for p in problems:
        log("SELF-TEST FAILURE: " + p)
    log("self-test " + ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload or --self-test is required")

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary)
    code, _, _ = run(binary, args.workload, args.seed, args.seconds,
                     args.trace)
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
