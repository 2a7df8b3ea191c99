#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/test_bench.py [--seconds 1]

1. Builds and runs perfbench_checks_test: every independent check of the
   benchmark is fed a planted bad output and must reject it.
2. Short mode: runs every workload end to end for --seconds, untraced and
   traced, and checks the result line: correct, no failed operations, and
   exactly the end-to-end (untraced) or per-layer (traced) metrics that
   BENCHMARK.json lists, each a finite number with the listed unit;
   end-to-end values must be positive. `failed` must be exactly the
   workload's known-fault share of `attempted`: 0, except on the swarm,
   whose rounds of 123 scenarios end with 3 reproducers of program faults
   that fail every time.
"""
import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE.parent))
import run  # noqa: E402

# failed : attempted per round, by workload (absent = 0 failed).
KNOWN_FAULT_SHARE = {"swarm": (3, 123)}


def check_result(workload, trace, result, spec):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')}")
    failed, per_round = KNOWN_FAULT_SHARE.get(workload, (0, 1))
    if (not isinstance(result.get("failed"), int)
            or result["failed"] * per_round != result.get("attempted", 0) * failed):
        problems.append(f"failed {result.get('failed')} of {result.get('attempted')}, "
                        f"want {failed} in {per_round}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append("metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']} = {value}")
        elif not trace and value <= 0:
            problems.append(f"{m['name']} = {value} (must be > 0)")
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} unit {got.get('unit')} != {m['unit']}")
    label = f"{workload} trace={int(trace)}"
    print(f"{label:<28} {'ok' if not problems else 'FAIL: ' + '; '.join(problems)}")
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    run.build(("rqs_perfbench", "perfbench_checks_test"))
    ok = subprocess.run([str(run.BUILD / "perfbench_checks_test")]).returncode == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        for trace in (False, True):
            _, result = run.run_workload(workload, 7, args.seconds, trace)
            ok = check_result(workload, trace, result, spec) and ok
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
