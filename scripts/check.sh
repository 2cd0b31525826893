#!/usr/bin/env bash
# One-command gate: sanitized build + full test suite + static lint.
#
#   scripts/check.sh            # ASan+UBSan build, ctest, clang-tidy, format
#   scripts/check.sh --fast     # skip the lint passes (build + test only)
#   scripts/check.sh --tsan     # ThreadSanitizer build + the suites that
#                               # run threads (cost cache, phase-schema
#                               # memo, serve lanes, fleet scheduler,
#                               # serving stress) — nothing else; latches
#                               # are lockdep-instrumented so stress suites
#                               # assert a clean lock-order report
#   scripts/check.sh --lockdep  # PROGSCHEMA_LOCKDEP=ON build, full test
#                               # suite, then sql_shell .lockgraph — fails
#                               # on any recorded lock-order violation and
#                               # leaves the DOT dump in
#                               # build-lockdep/lockgraph.dot
#
# clang-tidy and clang-format passes are skipped with a notice when the
# tools are not installed; the sanitizer build and tests always run.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
tsan=0
lockdep=0
case "${1:-}" in
  --fast) fast=1 ;;
  --tsan) tsan=1 ;;
  --lockdep) lockdep=1 ;;
esac

jobs="$(nproc 2>/dev/null || echo 4)"

if [ "$lockdep" -eq 1 ]; then
  build_dir="build-lockdep"
  echo "== check: configuring lockdep build ($build_dir, PROGSCHEMA_LOCKDEP=ON) =="
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DPROGSCHEMA_LOCKDEP=ON \
    -DPROGSCHEMA_WERROR=ON >/dev/null

  echo "== check: building =="
  cmake --build "$build_dir" -j "$jobs"

  echo "== check: running full suite with lockdep instrumentation =="
  (cd "$build_dir" && ctest --output-on-failure -j "$jobs")

  echo "== check: dumping instrumented lock graph (.serve workload + .lockgraph) =="
  lockgraph_out="$build_dir/lockgraph.out"
  # argv mode propagates the diagnostic error count as the exit code, so a
  # violating run fails here even before the grep below.
  "$build_dir/examples/sql_shell" ".serve" ".lockgraph" | tee "$lockgraph_out"
  sed -n '/^digraph lockorder/,/^}/p' "$lockgraph_out" > "$build_dir/lockgraph.dot"
  if ! grep -q '^digraph lockorder' "$build_dir/lockgraph.dot"; then
    echo "== check: FAILED (no lock graph in .lockgraph output) =="
    exit 1
  fi
  if grep -E 'LOCK_(ORDER_INVERSION|UPGRADE|RECURSIVE|HELD_ACROSS_IO|CYCLE)' "$lockgraph_out" >/dev/null; then
    echo "== check: FAILED (lock-order violations in .lockgraph report) =="
    exit 1
  fi

  echo "== check: OK (lockdep; DOT dump at $build_dir/lockgraph.dot) =="
  exit 0
fi

if [ "$tsan" -eq 1 ]; then
  build_dir="build-tsan"
  echo "== check: configuring TSan build ($build_dir, thread + lockdep) =="
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DPROGSCHEMA_SANITIZE=thread \
    -DPROGSCHEMA_LOCKDEP=ON \
    -DPROGSCHEMA_WERROR=ON >/dev/null

  echo "== check: building concurrency + fault-injection suites =="
  cmake --build "$build_dir" -j "$jobs" \
    --target common_test engine_test core_test analysis_test storage_test concurrency_test \
    --target fleet_test

  echo "== check: running concurrency + fault-injection suites under TSan =="
  (cd "$build_dir" && ctest --output-on-failure -j "$jobs" \
    -R '^(common_test|engine_test|core_test|analysis_test|storage_test|concurrency_test|fleet_test)$')

  echo "== check: OK (tsan) =="
  exit 0
fi

build_dir="build-check"

echo "== check: configuring sanitized build ($build_dir, address+undefined) =="
cmake -B "$build_dir" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DPROGSCHEMA_SANITIZE=address,undefined \
  -DPROGSCHEMA_WERROR=ON \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null

echo "== check: building =="
cmake --build "$build_dir" -j "$jobs"

echo "== check: running tests under ASan+UBSan =="
(cd "$build_dir" && ctest --output-on-failure -j "$jobs")

if [ "$fast" -eq 1 ]; then
  echo "== check: OK (fast mode, lint skipped) =="
  exit 0
fi

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== check: clang-tidy over src/ =="
  mapfile -t tidy_files < <(git ls-files 'src/*.cc' \
    ':!src/analysis/*.cc' ':!src/common/lock_registry.cc' \
    ':!src/engine/cost_cache.cc' ':!src/core/cost_estimator.cc' \
    ':!src/core/migration_executor.cc' ':!src/storage/migration_journal.cc' \
    ':!src/core/rewriter_dml.cc' ':!src/fleet/*.cc' \
    ':!src/engine/tuple_batch.cc' ':!src/engine/expr_vec.cc' ':!src/engine/vec_executor.cc')
  clang-tidy -p "$build_dir" --quiet "${tidy_files[@]}"
  # The analysis module and the concurrency/costing/online-migration targets
  # — plus the batch execution engine's operators — are held to a stricter
  # bar: any enabled check firing there fails the gate outright.
  # (the write rewriter, src/core/rewriter_dml.cc, rides the strict set too:
  # its fan-out writes and frontier dual-apply share the migration executor's
  # latching discipline, as does the whole fleet layer — scheduler lanes,
  # shard advance, the shared plan cache)
  echo "== check: clang-tidy (strict, warnings-as-errors) over src/analysis/ + concurrency + migration + write-rewriter + batch-engine + fleet targets =="
  mapfile -t strict_files < <(git ls-files 'src/analysis/*.cc' \
    'src/common/lock_registry.cc' \
    'src/engine/cost_cache.cc' 'src/core/cost_estimator.cc' \
    'src/core/migration_executor.cc' 'src/storage/migration_journal.cc' \
    'src/core/rewriter_dml.cc' 'src/fleet/*.cc' \
    'src/engine/tuple_batch.cc' 'src/engine/expr_vec.cc' 'src/engine/vec_executor.cc')
  clang-tidy -p "$build_dir" --quiet --warnings-as-errors='*' "${strict_files[@]}"
else
  echo "== check: clang-tidy not found; skipping lint =="
fi

scripts/format-check.sh

echo "== check: OK =="
