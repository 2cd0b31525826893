#!/usr/bin/env bash
# Builds and runs the repository benchmark (see README.md).
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--trace [0|1]] [--seconds 25]
#
# Without --workload every workload runs, each in a fresh process, one after
# another. Each run prints `workload metric value unit` lines and, last, its
# JSON result; its output is also kept as .bench_build/results/<workload>.
# seed<N>[.traced].txt, the input of benchmark/compare. A traced run writes
# its spans to .bench_build/trace-<workload>.seed<N>.json. Exits non-zero
# when the build fails or any run fails an output check.
#
# The run length is fixed (kWindowS in src/main.cc), so that runs of two
# commits always compare like with like. --seconds is accepted because
# BENCHMARK.json's callers pass its run_seconds; it must equal that length.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
build="$out/cmake"
window_s=25

workloads=()
seed=1
trace=0
while [[ $# -gt 0 ]]; do
  flag="$1"
  value=""
  if [[ "$flag" == *=* ]]; then
    value="${flag#*=}"
    flag="${flag%%=*}"
    shift
  elif [[ "$flag" == "--trace" && ( $# -eq 1 || "${2:-}" == -* ) ]]; then
    value=1
    shift
  elif [[ $# -ge 2 ]]; then
    value="$2"
    shift 2
  else
    echo "run.sh: missing value for $flag" >&2
    exit 2
  fi
  case "$flag" in
    --workload) workloads+=("$value") ;;
    --seed) seed="$value" ;;
    --seconds)
      if [[ "$value" != "$window_s" ]]; then
        echo "run.sh: the run length is fixed at $window_s s, not $value" >&2
        exit 2
      fi ;;
    --trace) trace="$value" ;;
    *) echo "run.sh: unknown flag $flag" >&2; exit 2 ;;
  esac
done
if [[ ${#workloads[@]} -eq 0 ]]; then
  workloads=(fleet-rollout tenant-large steady-write plan-fig8)
fi

mkdir -p "$out/results"
log="$out/build.log"
jobs="$(nproc 2>/dev/null || echo 1)"
(( jobs > 4 )) && jobs=4
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  command -v ninja > /dev/null && generator=(-G Ninja)
  if ! cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release "${generator[@]}" \
      > "$log" 2>&1; then
    tail -n 20 "$log" >&2
    rm -rf "$build"
    exit 1
  fi
fi
if ! cmake --build "$build" -j "$jobs" --target pse_benchmark compare >> "$log" 2>&1; then
  tail -n 20 "$log" >&2
  exit 1
fi

# The benchmark measures the library's default engine.
unset PSE_VECTORIZED

status=0
for workload in "${workloads[@]}"; do
  name="$workload.seed$seed"
  cmd=("$build/pse_benchmark" --workload "$workload" --seed "$seed" --trace "$trace")
  if [[ "$trace" == 1 ]]; then
    cmd+=(--trace-out "$out/trace-$name.json")
    name="$name.traced"
  fi
  "${cmd[@]}" | tee "$out/results/$name.txt" || status=1
done
exit "$status"
