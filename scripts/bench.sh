#!/usr/bin/env bash
# Machine-readable perf trajectory: runs the gated ablation benches and
# checks their JSON reports in at the repo root (BENCH_raster.json,
# BENCH_incremental.json, BENCH_service.json, BENCH_tile_cache.json,
# BENCH_robustness.json, BENCH_stream.json, BENCH_engine.json), so each PR's performance can
# be diffed against the last instead of guessed.
#
#   scripts/bench.sh             # full workloads, refreshes BENCH_*.json
#   scripts/bench.sh --smoke     # small workloads (CI-sized); reports go to
#                                # $BUILD_DIR/bench_out/BENCH_*.smoke.json so
#                                # the checked-in full-run reports stay intact
#   BUILD_DIR=out scripts/bench.sh
#
# Each bench exits nonzero when its speedup/equivalence gate fails, and so
# does this script — wire it into pre-merge checks alongside verify.sh.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)}"

BENCHES=(bench_raster_kernel bench_incremental bench_service bench_tile_cache bench_robustness bench_stream bench_engine)
declare -A REPORT=(
  [bench_raster_kernel]=BENCH_raster.json
  [bench_incremental]=BENCH_incremental.json
  [bench_service]=BENCH_service.json
  [bench_tile_cache]=BENCH_tile_cache.json
  [bench_robustness]=BENCH_robustness.json
  [bench_stream]=BENCH_stream.json
  [bench_engine]=BENCH_engine.json
)

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" --target "${BENCHES[@]}"

# Smoke runs measure CI-sized workloads; their numbers are not comparable to
# the checked-in full-run baselines, so they must never overwrite them.
# Smoke reports land in the build tree with a .smoke.json suffix instead.
smoke=0
for arg in "$@"; do
  [ "$arg" = "--smoke" ] && smoke=1
done

json_dest() {
  if [ "$smoke" = 1 ]; then
    mkdir -p "$BUILD_DIR/bench_out"
    echo "$BUILD_DIR/bench_out/${1%.json}.smoke.json"
  else
    echo "$1"
  fi
}

# The script's --json comes first: parse_json_path takes the first match,
# so the report destination here always wins over forwarded flags.
for bench in "${BENCHES[@]}"; do
  "$BUILD_DIR/bench/$bench" --json "$(json_dest "${REPORT[$bench]}")" "$@"
done
