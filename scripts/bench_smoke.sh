#!/usr/bin/env bash
# Perf-trajectory smoke run: small-shape bench_streaming + bench_fig6_summa
# merged into BENCH_summa.json, a short bench_service sweep into
# BENCH_service.json, and the planner-vs-best-single skew sweep
# (bench_hybrid) into BENCH_hybrid.json (all SampleLog schema). CI runs
# this per push and uploads the JSON files as workflow artifacts, so every
# commit leaves a machine-readable sample of reducer throughput,
# streaming-SUMMA footprint, aggregation-service ingest latency and the
# per-chunk planner's dispatch mix behind.
#
# The network-daemon loadgen (bench_daemon: >= 8 pipelined connections,
# every windowed snapshot verified bit-identical to a single-threaded
# reference fold) lands in BENCH_daemon.json on the same schema.
#
# The metrics-overhead leg re-runs a matched bench_service config with
# the obs registry attached (--metrics on) and detached (--metrics off),
# 3 reps each, and FAILS when the best metrics-on rep is more than 3%
# slower than the best metrics-off rep (the scrape-time-collector design
# promises hot paths never touch the registry). Samples land in
# BENCH_obs.json.
#
# The representation-adaptivity leg (bench_dense: Hash vs DenseAcc across
# a column-density axis plus the Accumulator promotion-threshold sweep,
# every cell bit-identity gated) lands in BENCH_dense.json on the same
# schema.
#
# Usage: scripts/bench_smoke.sh [summa.json] [service.json] [hybrid.json] \
#                               [daemon.json] [obs.json] [dense.json]
#   BUILD_DIR=build   build tree holding the bench binaries (configured and
#                     built here when the binaries are missing)
#   SERVICE_THREADS=N run ONLY the service sweep, sized for a multi-core
#                     scaling leg: N producers/workers with thread/shard
#                     affinity pinning and a fixed per-producer arrival
#                     rate (matched offered load across the shard sweep),
#                     written to BENCH_service_t${N}.json. The CI
#                     bench-service-scaling matrix fans this out over
#                     thread counts; all other benches are skipped.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
OUT="${1:-BENCH_summa.json}"
SERVICE_OUT="${2:-BENCH_service.json}"
HYBRID_OUT="${3:-BENCH_hybrid.json}"
DAEMON_OUT="${4:-BENCH_daemon.json}"
OBS_OUT="${5:-BENCH_obs.json}"
DENSE_OUT="${6:-BENCH_dense.json}"
JOBS="${JOBS:-$(nproc)}"
SERVICE_THREADS="${SERVICE_THREADS:-}"

if [ ! -x "$BUILD_DIR/bench/bench_streaming" ] ||
   [ ! -x "$BUILD_DIR/bench/bench_fig6_summa" ] ||
   [ ! -x "$BUILD_DIR/bench/bench_service" ] ||
   [ ! -x "$BUILD_DIR/bench/bench_hybrid" ] ||
   [ ! -x "$BUILD_DIR/bench/bench_daemon" ] ||
   [ ! -x "$BUILD_DIR/bench/bench_dense" ]; then
  echo "=== bench binaries missing; building $BUILD_DIR ==="
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD_DIR" -j "$JOBS" \
    --target bench_streaming bench_fig6_summa bench_service bench_hybrid \
             bench_daemon bench_dense
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Wrap per-bench SampleLog documents into one trajectory file (no jq
# needed): merge_benches <out> <in...>
merge_benches() {
  local out="$1"
  shift
  {
    printf '{\n"schema": 1,\n"generated_by": "scripts/bench_smoke.sh",\n'
    printf '"benches": [\n'
    local first=1
    for doc in "$@"; do
      [ "$first" -eq 1 ] || printf ',\n'
      first=0
      cat "$doc"
    done
    printf ']\n}\n'
  } > "$out"
}

# Multi-core scaling leg: service sweep only, N producer threads at a
# fixed arrival rate so the p99-vs-shards comparison holds offered load
# constant, with worker/CPU affinity pinning. Burst 1 vs 8 puts the
# pre-burst ingest path and the batched one side by side in one file.
# The flush deadline is dropped to 100us because the offered
# inter-arrival (500us at --rate 2000) matches the default 500us
# deadline, which would make buffer residence - not queue/fold time -
# the whole p99.
if [ -n "$SERVICE_THREADS" ]; then
  SCALING_OUT="BENCH_service_t${SERVICE_THREADS}.json"
  export OMP_NUM_THREADS="$SERVICE_THREADS"
  echo "=== bench_service scaling leg (threads=$SERVICE_THREADS) ==="
  "$BUILD_DIR/bench/bench_service" \
    --rows 4096 --cols 16 --d 4 --updates 8 --duration-ms 2000 \
    --shards 1,2,4 --producers "$SERVICE_THREADS" \
    --workers "$SERVICE_THREADS" --burst 1,8 --rate 2000 \
    --flush-deadline-us 100 --pin \
    --json "$tmp/service_scaling.json" > "$tmp/service_scaling.txt"
  cat "$tmp/service_scaling.txt"
  merge_benches "$SCALING_OUT" "$tmp/service_scaling.json"
  echo "=== wrote $SCALING_OUT ==="
  exit 0
fi

# Shapes chosen to finish in seconds on one core while still exercising the
# real streaming/buffered paths (not toy 1-stage degenerate cases).
echo "=== bench_streaming (small shape) ==="
"$BUILD_DIR/bench/bench_streaming" \
  --rows 4096 --cols 32 --d 4 --batch 8 --repeats 3 \
  --json "$tmp/streaming.json" > "$tmp/streaming.txt"
# stderr stays on the console: it carries the per-pipeline progress lines
# and, on failure, the streaming-vs-buffered MISMATCH diagnostic.
echo "=== bench_fig6_summa (small shape) ==="
"$BUILD_DIR/bench/bench_fig6_summa" \
  --scale 9 --degree 4 --grid 4 --window 2 --repeats 3 \
  --json "$tmp/fig6.json" > "$tmp/fig6.txt"
# The service sweep's exit code also gates the run: any configuration
# whose concurrent sum is not bit-identical to one-shot spkadd fails here.
echo "=== bench_service (small sweep) ==="
"$BUILD_DIR/bench/bench_service" \
  --rows 4096 --cols 16 --d 4 --updates 8 --duration-ms 150 \
  --shards 1,2,4 --producers 2 --burst 1,8 \
  --json "$tmp/service.json" > "$tmp/service.txt"
# The same loadgen with every flag but the duration at its default, so
# a default that makes it abort fails CI instead of its first user.
echo "=== bench_service (defaults) ==="
"$BUILD_DIR/bench/bench_service" --duration-ms 100 \
  > "$tmp/service_defaults.txt"
# Planner skew sweep: exits nonzero when any method result is not
# bit-identical to Hash, so correctness gates the run like the others.
# The shape is big enough (~seconds, not sub-ms laps) that the recorded
# Auto-vs-best-single margin is signal, not timer noise.
echo "=== bench_hybrid (skew sweep) ==="
"$BUILD_DIR/bench/bench_hybrid" \
  --rows 65536 --cols 512 --d 16 --k 64 --repeats 9 \
  --json "$tmp/hybrid.json" > "$tmp/hybrid.txt"
# Network daemon loadgen, in-process transport (CI's daemon-smoke job
# runs the real socket-pair form): 8 pipelined connections, 2 tenants,
# and the run fails on any snapshot mismatch, dropped ack or protocol
# error — correctness gates this leg like the others.
echo "=== bench_daemon (8-connection windowed loadgen) ==="
"$BUILD_DIR/bench/bench_daemon" \
  --rows 2048 --cols 16 --d 4 --connections 8 --updates 6 --rounds 6 \
  --tenants 2 --json "$tmp/daemon.json" > "$tmp/daemon.txt"
cat "$tmp/daemon.txt"

# Representation-adaptivity leg: the density face-off (Hash vs DenseAcc)
# and the promotion-threshold sweep. Bit-identity (one-shot to Hash,
# promoted snapshots to DensePolicy-off) gates the run; the timings are
# recorded in the samples, not enforced (CI boxes are noisy).
echo "=== bench_dense (density + promotion sweep) ==="
"$BUILD_DIR/bench/bench_dense" \
  --rows 8192 --cols 32 --k 16 --repeats 5 \
  --json "$tmp/dense.json" > "$tmp/dense.txt"
cat "$tmp/dense.txt"

# Metrics-overhead gate: the identical saturation config with the obs
# registry attached vs detached, 3 reps each. Min-of-reps ingest
# seconds-per-update (averaged over the run's patterns) is the score —
# best-of filters scheduler noise, and the 3% budget is the promise the
# collector design makes (ISSUE: metrics-enabled within 3% of off).
echo "=== bench_service metrics-overhead gate (on vs off, 3 reps) ==="
for mode in on off; do
  for rep in 1 2 3; do
    "$BUILD_DIR/bench/bench_service" \
      --rows 4096 --cols 16 --d 4 --updates 8 --duration-ms 300 \
      --shards 2 --producers 2 --burst 8 --metrics "$mode" \
      --json "$tmp/obs_${mode}_${rep}.json" > "$tmp/obs_${mode}_${rep}.txt"
  done
done
python3 - "$tmp" <<'PY'
import json, sys
tmp = sys.argv[1]

def rep_score(path):
    doc = json.load(open(path))
    secs = [s["median_seconds"] for s in doc["samples"]
            if s["name"].endswith("/ingest") and s["median_seconds"] > 0]
    if not secs:
        raise SystemExit(f"metrics-overhead gate: no ingest samples in {path}")
    return sum(secs) / len(secs)

best = {m: min(rep_score(f"{tmp}/obs_{m}_{r}.json") for r in (1, 2, 3))
        for m in ("on", "off")}
overhead = best["on"] / best["off"] - 1.0
print(f"metrics-overhead gate: on={best['on']:.3e}s/upd "
      f"off={best['off']:.3e}s/upd overhead={overhead * 100:+.2f}%")
if best["on"] > best["off"] * 1.03:
    raise SystemExit("metrics-overhead gate FAILED: "
                     "metrics-on more than 3% slower than metrics-off")
PY

merge_benches "$OUT" "$tmp/streaming.json" "$tmp/fig6.json"
merge_benches "$SERVICE_OUT" "$tmp/service.json"
merge_benches "$HYBRID_OUT" "$tmp/hybrid.json"
merge_benches "$DAEMON_OUT" "$tmp/daemon.json"
merge_benches "$OBS_OUT" \
  "$tmp/obs_on_1.json" "$tmp/obs_on_2.json" "$tmp/obs_on_3.json" \
  "$tmp/obs_off_1.json" "$tmp/obs_off_2.json" "$tmp/obs_off_3.json"
merge_benches "$DENSE_OUT" "$tmp/dense.json"

# The merge is string concatenation; make sure the results actually parse.
if command -v jq > /dev/null 2>&1; then
  jq -e '.benches | length == 2' "$OUT" > /dev/null
  jq -e '.benches | length == 1' "$SERVICE_OUT" > /dev/null
  jq -e '.benches | length == 1' "$HYBRID_OUT" > /dev/null
  jq -e '.benches | length == 1' "$DAEMON_OUT" > /dev/null
  jq -e '.benches | length == 6' "$OBS_OUT" > /dev/null
  jq -e '.benches | length == 1' "$DENSE_OUT" > /dev/null
elif command -v python3 > /dev/null 2>&1; then
  for doc in "$OUT" "$SERVICE_OUT" "$HYBRID_OUT" "$DAEMON_OUT" \
             "$OBS_OUT" "$DENSE_OUT"; do
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$doc"
  done
fi

echo "=== wrote $OUT, $SERVICE_OUT, $HYBRID_OUT, $DAEMON_OUT," \
     "$OBS_OUT and $DENSE_OUT ==="
