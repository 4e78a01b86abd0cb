#!/usr/bin/env python3
"""Builds the fairrank benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload table2_grid --seed 20190326 \
        --seconds 12 --trace 0

The first run configures and compiles perfbench/ (which pulls in ../src)
into .bench_build/; later runs rebuild incrementally. The workload itself
runs in the compiled `perfbench` executable; this script relays its output
and turns its last line into the result line, attaching each metric's unit
from BENCHMARK.json. With --trace 0 the metrics are the end_to_end ones,
with --trace 1 the per_layer ones; any mismatch with BENCHMARK.json is an
error. Exit status is non-zero, and no result line is printed, when the
sources are missing, the build fails, or the workload crashes or times out.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DATA_DIR = ROOT / ".bench_build" / "data"
# A run must end within 180 s; leave room for the build check and relay.
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no fairrank sources at src/; run from a full checkout", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step), 3)
    return BUILD_DIR / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20190326)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload '{args.workload}' (known: {workloads})", 2)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_specs}

    binary = build()
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--data-dir", str(DATA_DIR)]
    started = time.monotonic()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    if proc.returncode != 0 or not lines:
        fail(f"workload exited with status {proc.returncode}", 4)
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("workload printed no result line", 4)

    values = raw["metrics"]
    if set(values) != set(units):
        fail("metric set differs from BENCHMARK.json: missing "
             f"{sorted(set(units) - set(values))}, extra "
             f"{sorted(set(values) - set(units))}", 5)
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(f"# workload wall {time.monotonic() - started:.1f} s")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
