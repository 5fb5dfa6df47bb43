#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs every workload once per seed (seed-major, so slow drift of the host
spreads over all workloads alike), then reports for each end-to-end
metric the quartiles of its values and their spread, (Q3 - Q1) / median,
against the metric's bound in BENCHMARK.json. Run from the source root:

    python3 perfbench/steadiness.py --seeds 1-10 --out perfbench/STEADINESS.json
    python3 perfbench/steadiness.py --seeds 11-20 --compare perfbench/STEADINESS.json

--compare also checks that each median is not worse than the earlier
report's by more than the bound. --repeat N runs every workload N times
on one seed instead: identical inputs, so the spread is the host's own
drift. Exits 1 when a run fails or a spread (setup_s aside) or a median
shift exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(seed) for seed in text.split(",")]


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {done.returncode}")
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default="", help="comma list; default all")
    parser.add_argument("--repeat", type=int, default=0,
                        help="run each workload this many times on the first seed")
    parser.add_argument("--out", help="write the report here")
    parser.add_argument("--compare", help="earlier report to compare medians with")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec_file:
        spec = json.load(spec_file)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)
    if args.repeat:
        seeds = [seeds[0]] * args.repeat
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            result = run_once(workload, seed, spec["run_seconds"])
            runs[workload].append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()),
                flush=True)

    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as earlier_file:
            earlier = json.load(earlier_file)["workloads"]
    ok = True
    report = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in workloads:
        results = runs[workload]
        entry = {"failed": sum(r["failed"] for r in results),
                 "all_correct": all(r["correct"] for r in results), "metrics": {}}
        ok = ok and entry["all_correct"] and entry["failed"] == 0
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in results])
            stats["bound"] = bound
            stats["spread_within_third_of_bound"] = stats["spread"] < bound / 3
            line = (f"{workload:15s} {name:15s} median {stats['median']:12.6g}  "
                    f"Q1 {stats['q1']:12.6g}  Q3 {stats['q3']:12.6g}  "
                    f"spread {100 * stats['spread']:5.1f} % (bound {100 * bound:.0f} %)")
            if name != "setup_s" and stats["spread"] > bound:
                ok = False
                line += "  SPREAD OVER BOUND"
            if earlier is not None:
                before = earlier[workload]["metrics"][name]["median"]
                lower_is_better = next(m for m in spec["end_to_end"]
                                       if m["name"] == name)["better"] == "lower"
                worse = ((stats["median"] - before) if lower_is_better
                         else (before - stats["median"])) / before
                stats["worse_than_earlier"] = worse
                line += f"  shift {100 * worse:+5.1f} %"
                if worse > bound:
                    ok = False
                    line += " OVER BOUND"
            entry["metrics"][name] = stats
            print(line)
        report["workloads"][workload] = entry

    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(report, out, indent=1)
            out.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
