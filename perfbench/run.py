#!/usr/bin/env python3
"""Run one workload of the latency-ladder benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (a CMake package in this directory that compiles the
repository's libraries from ../src) into .bench_build/perfbench under the
repository root, runs the workload in a fresh process, and prints that
process's human-readable lines followed, as the last stdout line, by one
JSON object {"correct", "attempted", "failed", "metrics"}.

setup_s is measured here: from the instant the workload process is spawned
to the instant it reports set-up done (systems built and checked, clusters
built, warm-up), both on CLOCK_MONOTONIC. The build is not part of it.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "rqs_perfbench"
WORKLOADS = ("storage_steady", "consensus_decide", "swarm", "mc_fig1")
RUN_TIMEOUT_S = 170


def build(targets=("rqs_perfbench",)):
    """Configures (once) and builds; compiler output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    *targets], check=True, stdout=sys.stderr)


def run_workload(workload, seed, seconds, trace):
    """Runs the workload process; returns (lines, result dict) or raises."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        spans = BUILD / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--span-dir", str(spans)]
    spawned_ns = time.monotonic_ns()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    setup_ns = None
    shown = []
    for line in lines[:-1]:
        if line.startswith("setup_done_monotonic_ns "):
            setup_ns = int(line.split()[1]) - spawned_ns
        else:
            shown.append(line)
    if not trace:
        if setup_ns is None:
            raise RuntimeError(f"{workload} never reported set-up done")
        metrics = {"setup_s": {"value": setup_ns / 1e9, "unit": "s"}}
        metrics.update(result["metrics"])
        result["metrics"] = metrics
    return shown, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        parser.error("--seed must be >= 0 and 0 < --seconds <= 120")
    try:
        build()
        lines, result = run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, ValueError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
