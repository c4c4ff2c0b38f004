#!/usr/bin/env bash
# CI entry point: configure + build + ctest. MODE selects which legs run —
# the GitHub Actions matrix runs one leg per job, local use defaults to all:
#   MODE=plain     Release build + ctest at OMP_NUM_THREADS=1 and =nproc
#   MODE=sanitize  Debug + address,undefined sanitizers + ctest at
#                  OMP_NUM_THREADS=1 and =nproc
#   MODE=tsan      Debug + thread sanitizer, OpenMP off, concurrency
#                  suites only (the aggregation service's std::thread
#                  layer; libgomp is not TSAN-instrumented, so the
#                  OpenMP kernels are out of scope for this leg)
#   MODE=all       plain + sanitize + tsan, in sequence (default)
# Usage: [MODE=plain|sanitize|tsan|all] scripts/ci.sh [extra cmake args...]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
MODE="${MODE:-all}"

# Both ends of the OpenMP thread range, whatever the runner's core count:
# results and footprints must not depend on how many threads ran.
THREAD_AXIS="1"
if [ "$(nproc)" -gt 1 ]; then
  THREAD_AXIS="1 $(nproc)"
fi

# run_mode <name> <build_dir> <ctest_label_or_empty> [cmake args...]
# An empty label runs every suite once per THREAD_AXIS entry; a label
# (the TSAN leg, built without OpenMP, where OMP_NUM_THREADS has no
# effect) runs just that label once.
run_mode() {
  local name="$1" build_dir="$2" label="$3"
  shift 3
  echo "=== [$name] configure ==="
  cmake -B "$build_dir" -S . "$@"
  echo "=== [$name] build ==="
  cmake --build "$build_dir" -j "$JOBS"
  local ctest_args=(--output-on-failure -j "$JOBS")
  if [ -n "$label" ]; then
    echo "=== [$name] ctest -L $label ==="
    ctest --test-dir "$build_dir" "${ctest_args[@]}" -L "$label"
    return
  fi
  local threads
  for threads in $THREAD_AXIS; do
    echo "=== [$name] ctest (OMP_NUM_THREADS=$threads) ==="
    OMP_NUM_THREADS="$threads" ctest --test-dir "$build_dir" "${ctest_args[@]}"
  done
}

run_tsan() {
  run_mode tsan build-tsan concurrency \
    -DCMAKE_BUILD_TYPE=Debug -DSPKADD_SANITIZE=thread \
    -DSPKADD_DISABLE_OPENMP=ON -DSPKADD_BUILD_BENCH=OFF \
    -DSPKADD_BUILD_EXAMPLES=OFF "$@"
}

case "$MODE" in
  plain)
    run_mode plain build "" "$@"
    ;;
  sanitize)
    run_mode sanitize build-asan "" \
      -DCMAKE_BUILD_TYPE=Debug -DSPKADD_SANITIZE=address,undefined "$@"
    ;;
  tsan)
    run_tsan "$@"
    ;;
  all)
    run_mode plain build "" "$@"
    run_mode sanitize build-asan "" \
      -DCMAKE_BUILD_TYPE=Debug -DSPKADD_SANITIZE=address,undefined "$@"
    run_tsan "$@"
    ;;
  *)
    echo "unknown MODE '$MODE' (want plain|sanitize|tsan|all)" >&2
    exit 2
    ;;
esac

echo "=== CI OK: $MODE mode(s) green ==="
