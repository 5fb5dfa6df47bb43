#!/usr/bin/env python3
"""Schema check for BENCH_micro.json's multi-threaded ingest rows.

The sharded-ingest benchmark is only honest if its overload accounting
rides along: a queue-bound run that silently shed half its packets would
read as a speedup. This script fails if

 * the JSON was produced by a debug build (context.library_build_type),
 * any expected BM_ShardedIngest shard count is missing, or
 * a BM_ShardedIngest row lost one of its accounting counters
   (shards, queue_full_events, shed_chunks, shed_packets) or its
   items_per_second throughput.

It also guards the exact-discrete compute-layer rows: the one-shot
model benchmark (BM_RankingModelDiscreteExact, with its max_size
counter), the table build (BM_DiscreteModelTableBuild), and the
sweep-reuse benchmark (BM_DiscreteModelSweepReuse, whose cells counter
and items_per_second make the amortized per-cell cost checkable), and
the trace-expansion rows the expander's speed claim rests on
(BM_PacketStreamExpansion and BM_MonitorLoop, each with
items_per_second), and the Monte-Carlo count-path rows
(BM_BinomialThinner at every rate, BM_BinFlowCounts and
BM_RankMetricsContext, each with items_per_second), and the planner
rows (BM_PlanSamplingRate/discrete and /continuous, each with its
evaluations counter and items_per_second), and the continuous model's
stage rows (BM_RankingContextBuild, BM_RankingContextEvaluate, the
per-call BM_RankingPerCallEvaluate it replaced, BM_ErfcScaled,
BM_ParetoTailQuantiles and the frozen std::pow row
BM_ParetoTailQuantilesPow, each with items_per_second; the two batch
kernel rows, BM_ErfcScaled and BM_ParetoTailQuantiles, also name the
instruction set they were dispatched to in an `isa=` label).

Rows may be plain iterations (a single-repetition run) or the aggregates
of a repeated run (bench/run_bench.sh writes only those): a `_median`
row stands for its benchmark, and the other aggregates are skipped.

Used by CI's bench smoke step on a fresh short run, and runnable against
the committed baseline:

  scripts/check_bench_counters.py [BENCH_micro.json] [--shards 1,2,4]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REQUIRED_COUNTERS = ("shards", "queue_full_events", "shed_chunks", "shed_packets")
EXPANSION_ROWS = ("BM_PacketStreamExpansion", "BM_MonitorLoop")
COUNT_PATH_ROWS = ("BM_BinomialThinner", "BM_BinFlowCounts", "BM_RankMetricsContext")
# BM_BinomialThinner's argument is the sampling rate in thousandths.
THINNER_RATES = ("1", "10", "100", "500")
PLANNER_ROWS = ("BM_PlanSamplingRate/discrete", "BM_PlanSamplingRate/continuous")
# The continuous model's stages (items = pairwise terms or erfc values).
CONTINUOUS_ROWS = (
    "BM_RankingContextBuild",
    "BM_RankingContextEvaluate",
    "BM_RankingPerCallEvaluate",
    "BM_ErfcScaled",
    "BM_ParetoTailQuantiles",
    "BM_ParetoTailQuantilesPow",
)
# Rows whose kernels run on the dispatched instruction set (numeric::Isa).
ISA_ROWS = ("BM_ErfcScaled", "BM_ParetoTailQuantiles")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "json_path",
        nargs="?",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_micro.json",
    )
    parser.add_argument(
        "--shards",
        default="1,2,4",
        help="comma-separated shard counts that must appear (default 1,2,4)",
    )
    args = parser.parse_args()

    try:
        doc = json.loads(args.json_path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"{args.json_path}: unreadable benchmark JSON: {err}", file=sys.stderr)
        return 1

    errors = []

    # flowrank_build_type is stamped by micro_throughput's main() from
    # CMAKE_BUILD_TYPE — deliberately NOT library_build_type, which
    # describes the system libbenchmark, not our binary.
    build_type = doc.get("context", {}).get("flowrank_build_type", "missing")
    if build_type != "Release":
        errors.append(
            f"context.flowrank_build_type is '{build_type}', not 'Release': "
            "regenerate with bench/run_bench.sh"
        )

    expected = {s.strip() for s in args.shards.split(",") if s.strip()}
    seen = set()
    discrete_seen = set()
    expansion_seen = set()
    count_path_seen = set()
    thinner_rates_seen = set()
    planner_seen = set()
    continuous_seen = set()
    for row in doc.get("benchmarks", []):
        name = row.get("name", "")
        if row.get("run_type") == "aggregate":
            # "BM_ShardedIngest/4/real_time_median" -> "BM_ShardedIngest/4/real_time".
            aggregate = row.get("aggregate_name", "")
            if aggregate != "median":
                continue
            name = name.removesuffix("_" + aggregate)
        # "BM_MonitorLoop/real_time" -> "BM_MonitorLoop".
        base = name.split("/")[0]
        if base in EXPANSION_ROWS:
            expansion_seen.add(base)
            if "items_per_second" not in row:
                errors.append(f"{name}: missing items_per_second throughput")
        if base in COUNT_PATH_ROWS:
            count_path_seen.add(base)
            if base == "BM_BinomialThinner":
                thinner_rates_seen.add(name.split("/")[1])
            if "items_per_second" not in row:
                errors.append(f"{name}: missing items_per_second throughput")
        if base in CONTINUOUS_ROWS:
            continuous_seen.add(base)
            if "items_per_second" not in row:
                errors.append(f"{name}: missing items_per_second throughput")
            if base in ISA_ROWS and not row.get("label", "").startswith("isa="):
                errors.append(f"{name}: missing the 'isa=' label naming the dispatched ISA")
        if name in PLANNER_ROWS:
            planner_seen.add(name)
            for key in ("evaluations", "items_per_second"):
                if key not in row:
                    errors.append(f"{name}: missing '{key}'")
        if name.startswith("BM_RankingModelDiscreteExact"):
            discrete_seen.add("BM_RankingModelDiscreteExact")
            if "max_size" not in row:
                errors.append(f"{name}: missing counter 'max_size'")
        elif name.startswith("BM_DiscreteModelTableBuild"):
            discrete_seen.add("BM_DiscreteModelTableBuild")
        elif name.startswith("BM_DiscreteModelSweepReuse"):
            discrete_seen.add("BM_DiscreteModelSweepReuse")
            if "cells" not in row:
                errors.append(f"{name}: missing counter 'cells'")
            if "items_per_second" not in row:
                errors.append(f"{name}: missing items_per_second throughput")
        if not name.startswith("BM_ShardedIngest/"):
            continue
        # "BM_ShardedIngest/4/real_time" -> shard arg "4".
        shard_arg = name.split("/")[1]
        seen.add(shard_arg)
        for counter in REQUIRED_COUNTERS:
            if counter not in row:
                errors.append(f"{name}: missing counter '{counter}'")
        if "items_per_second" not in row:
            errors.append(f"{name}: missing items_per_second throughput")

    missing = sorted(expected - seen)
    if missing:
        errors.append(
            f"no BM_ShardedIngest row for shard count(s) {', '.join(missing)}"
        )
    for bench in (
        "BM_RankingModelDiscreteExact",
        "BM_DiscreteModelTableBuild",
        "BM_DiscreteModelSweepReuse",
    ):
        if bench not in discrete_seen:
            errors.append(f"no {bench} row: exact-discrete coverage dropped")

    for bench in EXPANSION_ROWS:
        if bench not in expansion_seen:
            errors.append(f"no {bench} row: trace-expansion coverage dropped")
    for bench in COUNT_PATH_ROWS:
        if bench not in count_path_seen:
            errors.append(f"no {bench} row: count-path coverage dropped")
    for bench in PLANNER_ROWS:
        if bench not in planner_seen:
            errors.append(f"no {bench} row: planner coverage dropped")
    for bench in CONTINUOUS_ROWS:
        if bench not in continuous_seen:
            errors.append(f"no {bench} row: continuous-model coverage dropped")
    missing_rates = sorted(set(THINNER_RATES) - thinner_rates_seen, key=int)
    if missing_rates:
        errors.append(f"no BM_BinomialThinner row for rate(s) {', '.join(missing_rates)}")

    if errors:
        for err in errors:
            print(f"bench counters check: {err}", file=sys.stderr)
        return 1
    print(
        f"bench counters check passed: BM_ShardedIngest shards {sorted(seen)}, "
        "exact-discrete, trace-expansion, count-path, planner and continuous-model rows "
        "present, "
        "Release build, accounting counters present"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
