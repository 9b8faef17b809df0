#!/usr/bin/env sh
# Perf-regression gate on the hot rows. Rebuilds bench_micro, records a
# fresh JSON run into the build tree (never touching the committed
# baseline) and compares it against <repo>/BENCH_micro.json with
# scripts/bench_compare.py, restricted to the rows that gate CI: GEMM,
# window attention, ensemble rollout and the forecast servers
# (single-process and cluster) plus the elastic park/rejoin cycle. Each
# row runs 5 repetitions and its median is what gets compared: a single
# repetition on a shared 4-core host spreads by more than the gate. Exits
# 1 when any hot row's median is more than 20% slower than the baseline —
# refresh the baseline with scripts/bench_micro_json.sh when a slowdown is
# intentional.
#
# Usage: scripts/bench_check.sh [build_dir]
# Also wired as a CMake target: cmake --build build --target bench_check
set -e
repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$repo/build"}
hot='BM_Gemm,BM_WindowAttention,BM_EnsembleRollout,BM_ForecastServer,BM_ClusterForecastServer,BM_ClusterRejoin'

cmake --build "$build" -j --target bench_micro
"$build/bench/bench_micro" \
  --benchmark_filter='BM_(Gemm|WindowAttention|EnsembleRollout|ForecastServer|ClusterForecastServer|ClusterRejoin)' \
  --benchmark_repetitions=5 \
  --benchmark_display_aggregates_only=true \
  --benchmark_out="$build/bench_check.json" \
  --benchmark_out_format=json
python3 "$repo/scripts/bench_compare.py" "$build/bench_check.json" \
  --only "$hot" --threshold 0.20
echo "bench_check: hot-row medians within 20% of BENCH_micro.json"
