#!/usr/bin/env sh
# Builds Release and regenerates BENCH_micro.json from the micro_throughput
# suite (Google Benchmark JSON format). See docs/PERFORMANCE.md for how to
# read the output.
#
# The JSON in the repo is a perf baseline, so this script refuses to export
# from anything but a Release build: a debug-built BENCH_micro.json (it has
# happened) makes every later comparison read as a phantom speedup.
#
# Each row runs 5 times and only its aggregates (mean, median, stddev,
# cv) are written: read the `_median` rows (see docs/PERFORMANCE.md,
# "Running the benchmarks"). Flags given to this script come after the
# defaults, so they override them (e.g. --benchmark_repetitions=1).
#
# Usage: bench/run_bench.sh [extra --benchmark_* flags]
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="$repo_root/build"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j "$(nproc 2>/dev/null || echo 2)" --target micro_throughput

# Belt and braces: the cache must say Release (a stale or hand-edited build
# tree could differ from what the configure line above asked for), and the
# benchmark binary itself must not report a debug library build.
cache_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$build_dir/CMakeCache.txt")
if [ "$cache_type" != "Release" ]; then
  echo "refusing JSON export: build tree is '$cache_type', not Release" >&2
  exit 1
fi

"$build_dir/micro_throughput" \
  --benchmark_format=json \
  --benchmark_out="$repo_root/BENCH_micro.json" \
  --benchmark_out_format=json \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  "$@"

# micro_throughput stamps its own compile-time build type into the JSON
# context (flowrank_build_type). Note this is NOT Google Benchmark's
# library_build_type, which describes the system libbenchmark and can say
# "debug" under a perfectly good Release build of ours.
if ! grep -q '"flowrank_build_type": *"Release"' "$repo_root/BENCH_micro.json"; then
  echo "BENCH_micro.json does not claim flowrank_build_type=Release; rerun after a clean Release build" >&2
  exit 1
fi

echo "wrote $repo_root/BENCH_micro.json"
