#!/usr/bin/env python3
"""Build mcsim's perfbench program from source and run one workload.

    python3 perfbench/run.py --workload sweep|serve|survey --seed N \
        --seconds S --trace 0|1

Run it from the repository root.  The first run configures and builds
perfbench/CMakeLists.txt (the mcsim library from src/ plus the program) in
Release mode under $CARGO_TARGET_DIR, default .bench_build; later runs only
check that the build is current.  Build output goes to stderr.

The program's standard output is passed through: a host line, notes, and as
the last line one JSON object with "correct", "attempted", "failed" and
"metrics".  With --trace 1 the spans go to <build dir>/traces/.

Exits non-zero, printing no result, if the build or the run fails, or if
the metrics printed do not match the names and units in BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweep", "serve", "survey")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(binary_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(ROOT, binary_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", binary_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", binary_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    return True


def expected_metrics(trace):
    """(name, unit) pairs from BENCHMARK.json, or None if it is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary_dir = build_dir()
    if not build(binary_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(binary_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--socket-dir", binary_dir]
    if args.trace:
        traces = os.path.join(binary_dir, "traces")
        os.makedirs(os.path.join(ROOT, traces), exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % args.workload, file=sys.stderr)
        return 1
    if run.returncode != 0:
        print("perfbench: %s exited with %d" % (args.workload, run.returncode),
              file=sys.stderr)
        return 1

    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
    expected = expected_metrics(args.trace)
    if expected is not None and printed != expected:
        print("perfbench: metrics differ from BENCHMARK.json: %s" % printed,
              file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
