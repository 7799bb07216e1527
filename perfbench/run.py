#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ (the fmbs library from src/ plus
the fmbs_perfbench binary) in Release and runs one workload, or all of them,
each in a process of its own.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

The last line of standard output is one JSON object with exactly the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics, with --trace 1 the per-layer metrics (perfbench/README.md
documents every name). Lines before it say what ran, on what build, and list
every failed check. The exit code is 0 only when every check passed.

Run it from the repository root. Build outputs go to .bench_build/ there.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["city_stream", "fleet_metro", "fleet_saturated", "sweep_fig08"]
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "fmbs_perfbench")


def build():
    """Configures (once) and builds the benchmark in Release. Build output
    goes to stderr so standard output stays the result record."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "core", "streaming.h")):
        raise SystemExit("perfbench: no library sources (src/) next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))


def run_workload(name, args):
    """Runs one workload in its own process and returns its JSON record."""
    cmd = [BINARY, "--workload", name, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("perfbench: %s exited with %d" % (name, done.returncode))
    record = json.loads(lines[-1])
    stamp = record["stamp"]
    if stamp["build_type"] != "Release":
        raise SystemExit("perfbench: refusing results of a %s build"
                         % stamp["build_type"])
    return record


def describe(record):
    stamp = record["stamp"]
    print("== %s  seed %d  (%s build, FMBS_SIMD=%s, %s, nproc %d)" % (
        record["workload"], record["seed"], stamp["build_type"],
        "ON" if stamp["fmbs_simd"] else "OFF", stamp["compiler"],
        stamp["nproc"]))
    for note in record["notes"]:
        print("   " + note)
    ratio = record["failed"] / record["attempted"]
    print("   ops_failed_ratio = %.6g  (%d of %d checks failed)" % (
        ratio, record["failed"], record["attempted"]))
    for failure in record["failures"]:
        print("   FAILED: " + failure)
    for name, metric in sorted(record["metrics"].items()):
        print("   %-40s %.6g %s" % (name, metric["value"], metric["unit"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: the benchmark's own self-test")
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    records = [run_workload(name, args) for name in names]
    for record in records:
        describe(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {"%s.%s" % (r["workload"], name): m
                   for r in records for name, m in r["metrics"].items()}
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
