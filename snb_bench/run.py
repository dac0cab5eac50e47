#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 snb_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The harness and the program's libraries are
built (Release) under .bench_build/; the last line of stdout is the run's JSON
result. Every run also writes its full record to .bench_build/reports/, and
its deterministic counters are compared with the first run of the same
workload and seed in this checkout: any counter that differs is named on
stderr.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "cmake", "snb_bench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the program's sources (src/) are missing; cannot build")
        return False
    cmake_dir = os.path.join(BUILD, "cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", cmake_dir, "-j", jobs]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log(f"cannot run {cmd[0]}: {e}")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def compare_counters(report_path, key):
    """Names every deterministic counter that differs from the baseline run."""
    try:
        with open(report_path) as f:
            counters = json.load(f)["counters"]
    except (OSError, ValueError, KeyError) as e:
        log(f"no counters to compare: {e}")
        return
    base_path = os.path.join(BUILD, "counters", key + ".json")
    if not os.path.exists(base_path):
        os.makedirs(os.path.dirname(base_path), exist_ok=True)
        with open(base_path, "w") as f:
            json.dump(counters, f, indent=1, sort_keys=True)
        log(f"recorded {len(counters)} counters as the baseline for {key}")
        return
    with open(base_path) as f:
        base = json.load(f)
    differ = sorted(n for n in set(base) | set(counters)
                    if base.get(n) != counters.get(n))
    for name in differ:
        log(f"counter {name} differs: baseline {base.get(name)}, "
            f"this run {counters.get(name)}")
    if not differ:
        log(f"all {len(counters)} counters repeat the baseline for {key}")


def run(args, extra):
    """Runs the harness; returns (exit code, stdout text)."""
    mode = "micro" if "--micro" in extra else "full"
    tag = f"{args.workload}-seed{args.seed}-{mode}"
    report = os.path.join(BUILD, "reports", f"{tag}-trace{args.trace}.json")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD, "work"), "--report", report] + extra
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1, ""
    if done.returncode == 0 and "--plant-mismatch" not in extra:
        compare_counters(report, tag)
    return done.returncode, done.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()
    if not build():
        return 2
    code, out = run(args, extra)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
