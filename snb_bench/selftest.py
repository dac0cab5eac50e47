#!/usr/bin/env python3
"""Self-test of the benchmark harness at micro scale (SF 0.003).

    python3 snb_bench/selftest.py

Builds the harness, then for every workload in BENCHMARK.json runs an
untraced and a traced run and asserts that
  * the last stdout line is the result object with exactly the keys
    correct / attempted / failed / metrics, the run is correct and no
    operation failed;
  * every end-to-end metric (untraced) and every per-layer metric (traced)
    named in BENCHMARK.json is printed, with its unit and a numeric value.
Finally it plants a fingerprint mismatch in the BI reference and asserts the
run reports it as a failed operation and as incorrect. Exits 0 when all
checks pass.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as harness  # noqa: E402  (run.py beside this file)

FAILURES = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def run_micro(workload, trace, *extra):
    cmd = [harness.BINARY, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--micro",
           "--work-dir", os.path.join(harness.BUILD, "selftest-work")]
    cmd += list(extra)
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return None
    return json.loads(lines[-1])


def check_metrics(result, specs, label):
    got = result["metrics"]
    missing = [s["name"] for s in specs if s["name"] not in got]
    expect(not missing, f"{label}: every metric printed (missing: {missing})")
    extra = sorted(set(got) - {s["name"] for s in specs})
    expect(not extra, f"{label}: no unlisted metric (extra: {extra})")
    bad = [s["name"] for s in specs if s["name"] in got and
           (got[s["name"]].get("unit") != s["unit"] or
            not isinstance(got[s["name"]].get("value"), (int, float)))]
    expect(not bad, f"{label}: unit and numeric value on each (bad: {bad})")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if not harness.build():
        print("FAIL build")
        return 1
    for w in bench["workloads"]:
        name = w["name"]
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = f"{name} trace={trace}"
            result = run_micro(name, trace)
            expect(result is not None, f"{label}: exits 0 and prints a result")
            if result is None:
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys")
            expect(result["correct"] is True and result["failed"] == 0 and
                   result["attempted"] >= 1,
                   f"{label}: correct, {result['attempted']} attempted, "
                   f"{result['failed']} failed")
            check_metrics(result, specs, label)

    planted = run_micro("bi-power", 0, "--plant-mismatch")
    expect(planted is not None and planted["failed"] >= 1 and
           planted["correct"] is False,
           "planted fingerprint mismatch counted as a failed operation "
           f"(failed={None if planted is None else planted['failed']})")

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
