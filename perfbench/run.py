#!/usr/bin/env python3
"""Builds and runs the flowrank end-to-end benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload monitor_sprint --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (the library plus flowrank_perfbench) in
Release mode under $CARGO_TARGET_DIR (default .bench_build), runs the
binary with the same arguments, checks that its result names exactly the
metrics BENCHMARK.json lists, and echoes its output. The last line of
stdout is the result object. Exits non-zero, without a result line, when
the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "flowrank_perfbench"],
    )
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "flowrank_perfbench")


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as spec_file:
        spec = json.load(spec_file)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(os.path.join(build_dir, "perfbench"))

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out", os.path.join(build_dir, f"spans_{args.workload}.jsonl")]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        fail(f"flowrank_perfbench exited with {done.returncode}")
    result = json.loads(lines[-1])
    names = list(result["metrics"])
    if names != [metric["name"] for metric in spec["per_layer" if args.trace else "end_to_end"]]:
        fail(f"metrics {names} differ from BENCHMARK.json")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
