#!/usr/bin/env bash
# Builds (Release) and runs the machine-readable benches, leaving their JSON
# artifacts in the repo root — the project's perf trajectory across PRs.
#
#   scripts/bench.sh            # build + run, writes BENCH_laa_scaling.json
#                               # and BENCH_engine_micro.json
#
# Each binary checks its own results and exits non-zero when they are wrong
# (an LAA cost differs from brute force, an engine micro returns other rows,
# a count differs between repeats), so this script stops at the first
# failing bench.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"
build_dir="build-bench"

echo "== bench: configuring Release build ($build_dir) =="
cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null

echo "== bench: building =="
cmake --build "$build_dir" -j "$jobs" --target bench_laa_scaling --target bench_engine_micro \
  >/dev/null

echo "== bench: LAA scaling (pruned vs brute force vs cached vs GAA) =="
"$build_dir"/bench/bench_laa_scaling --json=BENCH_laa_scaling.json

echo "== bench: engine micro (one plan per batch operator) =="
"$build_dir"/bench/bench_engine_micro --json=BENCH_engine_micro.json

echo "== bench: OK =="
