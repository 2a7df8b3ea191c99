#!/usr/bin/env python3
"""Run each workload repeatedly and print each metric's median and quartiles.

    python3 perfbench/spread.py [--workloads a,b] [--runs 10] [--first-seed 1]

Every run is untraced, lasts BENCHMARK.json's run_seconds and uses its own
seed (first-seed, first-seed + 1, ...). For each end-to-end metric the
table gives the median, the first and third quartiles
(statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median, the
bound from BENCHMARK.json, and "!" where the spread is not below a third
of it. It also lists the distinct failed/attempted shares of the runs.
Exits 1 if a run is incorrect, a spread exceeds its bound, or the shares
differ. The bounds in BENCHMARK.json were set from this script's output
(see README.md).
"""
import argparse
import json
import statistics
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's own runner: build + one run)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    limits = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    run.build()
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        shares = set()
        for i in range(args.runs):
            _, result = run.run_workload(workload, args.first_seed + i,
                                         seconds, False)
            if not result["correct"]:
                print(f"{workload} seed {args.first_seed + i}: INCORRECT")
                ok = False
            shares.add(Fraction(result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        ok = ok and len(shares) == 1
        print(f"\n{workload}: {args.runs} runs x {seconds} s, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}, "
              f"failed/attempted {sorted(str(f) for f in shares)}")
        print(f"| {'metric':<36} | {'unit':<6} | {'median':>12} | {'q1':>12} "
              f"| {'q3':>12} | {'spread':>7} | {'bound':>5} |")
        print(f"|{'-' * 38}|{'-' * 8}|{'-' * 14}|{'-' * 14}|{'-' * 14}|"
              f"{'-' * 9}|{'-' * 7}|")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = limits[name]
            mark = "" if spread < bound / 3 else " !"
            ok = ok and spread <= bound
            print(f"| {name:<36} | {units[name]:<6} | {med:12.4f} | {q1:12.4f} "
                  f"| {q3:12.4f} | {spread:6.1%} | "
                  f"{bound:5.2f} |{mark}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
