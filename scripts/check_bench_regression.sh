#!/usr/bin/env bash
# CI bench smoke gates: the columnar execution engine (E16), the
# query-profiler overhead budget (E13), morsel-driven parallel
# execution (E18), the serving front door's caches and admission (E19), and
# incremental policy churn (E20).
#
# Runs bench_exec_kernels, then compares the freshly measured end-to-end
# speedup (row kernels / columnar kernels) against the committed baseline in
# bench/baselines/BENCH_exec_kernels.json. The step fails when
#
#   * the columnar output is not byte-identical to the row-kernel output, or
#   * the fresh speedup drops below HALF the committed baseline speedup
#     (a >2x regression — generous enough for noisy CI runners, tight
#     enough to catch an accidental de-vectorization).
#
# Then runs bench_obs_overhead and fails when the profiler-enabled arm costs
# more than 5% over the spans-only enabled arm (profiler_vs_enabled_pct in
# BENCH_obs_overhead.json), best result of up to three attempts to ride out
# noisy runners.
#
# Then runs bench_exec_threads (E18). Determinism is unconditional: the
# binary aborts unless every thread count reproduces the sequential bytes.
# The threads=1 arm must stay within 5% of the no-pool engine (best of
# three). The >=3x 8-thread speedup floor applies only when the runner has
# >=4 hardware threads — a single-core runner can prove determinism but
# not scaling, and the artifact records hw_threads so that skip is visible.
#
# Every section runs even when an earlier one fails; the script lists the
# failed sections at the end and exits 1 if there are any.
#
#   scripts/check_bench_regression.sh [build-dir]
set -uo pipefail

BUILD_DIR="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT

# --- E16: columnar engine vs the row kernels ---------------------------------
check_e16() {
BENCH="$BUILD_DIR/bench/bench_exec_kernels"
if [ ! -x "$BENCH" ]; then
  echo "error: $BENCH not built" >&2
  exit 1
fi

# --benchmark_filter matching nothing skips the google-benchmark loops; the
# E16 kernel table (and its artifact) is printed unconditionally by main().
CISQP_BENCH_OUT_DIR="$OUT_DIR" "$BENCH" --benchmark_filter='^$'

python3 - "$OUT_DIR/BENCH_exec_kernels.json" \
    bench/baselines/BENCH_exec_kernels.json <<'PY'
import json
import sys

fresh_path, baseline_path = sys.argv[1], sys.argv[2]
fresh = json.load(open(fresh_path))["rows"][0]
baseline = json.load(open(baseline_path))["rows"][0]

if not fresh["identical"]:
    sys.exit("FAIL: columnar output is not byte-identical to the row kernels")

floor = baseline["speedup"] / 2.0
print(f"fresh speedup:    {fresh['speedup']:.2f}x "
      f"(row {fresh['row_total_us']}us / columnar {fresh['columnar_total_us']}us)")
print(f"baseline speedup: {baseline['speedup']:.2f}x  -> floor {floor:.2f}x")
if fresh["speedup"] < floor:
    sys.exit(f"FAIL: speedup {fresh['speedup']:.2f}x regressed more than 2x "
             f"against the committed baseline {baseline['speedup']:.2f}x")
print("OK: columnar engine within 2x of the committed baseline")
PY
}

# --- E13: profiler overhead budget -----------------------------------------
check_e13() {
OBS_BENCH="$BUILD_DIR/bench/bench_obs_overhead"
if [ ! -x "$OBS_BENCH" ]; then
  echo "error: $OBS_BENCH not built" >&2
  exit 1
fi

PROFILER_BUDGET_PCT=5.0
best_pct=""
for attempt in 1 2 3; do
  CISQP_BENCH_OUT_DIR="$OUT_DIR" "$OBS_BENCH" --benchmark_filter='^$' \
      > /dev/null
  pct="$(python3 -c '
import json, sys
rows = json.load(open(sys.argv[1]))["rows"]
row = next(r for r in rows if r["config"] == "profiler_enabled")
print(row["profiler_vs_enabled_pct"])
' "$OUT_DIR/BENCH_obs_overhead.json")"
  echo "profiler-vs-enabled overhead, attempt $attempt: ${pct}%"
  if [ -z "$best_pct" ] || \
     python3 -c "import sys; sys.exit(0 if $pct < $best_pct else 1)"; then
    best_pct="$pct"
  fi
  if python3 -c "import sys; sys.exit(0 if $best_pct <= $PROFILER_BUDGET_PCT else 1)"; then
    break
  fi
done

if python3 -c "import sys; sys.exit(0 if $best_pct <= $PROFILER_BUDGET_PCT else 1)"; then
  echo "OK: profiler overhead ${best_pct}% within the ${PROFILER_BUDGET_PCT}% budget"
else
  echo "FAIL: profiler overhead ${best_pct}% exceeds the ${PROFILER_BUDGET_PCT}% budget" >&2
  exit 1
fi
}

# --- E18: morsel-driven parallel execution ----------------------------------
check_e18() {
THREADS_BENCH="$BUILD_DIR/bench/bench_exec_threads"
if [ ! -x "$THREADS_BENCH" ]; then
  echo "error: $THREADS_BENCH not built" >&2
  exit 1
fi

# Determinism needs no JSON check: the binary aborts (failing this step)
# unless every thread count returned the byte-identical table.
OVERHEAD_BUDGET_PCT=5.0
best_overhead=""
for attempt in 1 2 3; do
  CISQP_BENCH_OUT_DIR="$OUT_DIR" "$THREADS_BENCH" --benchmark_filter='^$' \
      > /dev/null
  overhead="$(python3 -c '
import json, sys
rows = json.load(open(sys.argv[1]))["rows"]
row = next(r for r in rows if r["threads"] == 1)
print(100.0 * row["total_us"] / row["sequential_total_us"] - 100.0)
' "$OUT_DIR/BENCH_exec_threads.json")"
  echo "threads=1 vs sequential overhead, attempt $attempt: ${overhead}%"
  if [ -z "$best_overhead" ] || \
     python3 -c "import sys; sys.exit(0 if $overhead < $best_overhead else 1)"; then
    best_overhead="$overhead"
  fi
  if python3 -c "import sys; sys.exit(0 if $best_overhead <= $OVERHEAD_BUDGET_PCT else 1)"; then
    break
  fi
done

if python3 -c "import sys; sys.exit(0 if $best_overhead <= $OVERHEAD_BUDGET_PCT else 1)"; then
  echo "OK: threads=1 overhead ${best_overhead}% within the ${OVERHEAD_BUDGET_PCT}% budget"
else
  echo "FAIL: threads=1 overhead ${best_overhead}% exceeds the ${OVERHEAD_BUDGET_PCT}% budget (the single-thread context must take the exact sequential path)" >&2
  exit 1
fi

python3 - "$OUT_DIR/BENCH_exec_threads.json" \
    bench/baselines/BENCH_exec_threads.json <<'PY'
import json
import sys

fresh = next(r for r in json.load(open(sys.argv[1]))["rows"]
             if r["threads"] == 8)
base = next(r for r in json.load(open(sys.argv[2]))["rows"]
            if r["threads"] == 8)

hw = fresh["hw_threads"]
if hw < 4:
    print(f"SKIP: 8-thread speedup floor needs >=4 hardware threads, runner "
          f"has {hw} (measured {fresh['speedup']:.2f}x; determinism and the "
          f"threads=1 budget were still enforced)")
    sys.exit(0)

floor = 3.0
if base["hw_threads"] >= 4:
    # A committed baseline from real parallel hardware tightens the floor.
    floor = max(floor, base["speedup"] / 2.0)
print(f"fresh 8-thread speedup: {fresh['speedup']:.2f}x "
      f"(floor {floor:.2f}x, baseline {base['speedup']:.2f}x "
      f"on {base['hw_threads']} hw threads)")
if fresh["speedup"] < floor:
    sys.exit(f"FAIL: 8-thread speedup {fresh['speedup']:.2f}x below the "
             f"{floor:.2f}x floor")
print("OK: morsel-parallel speedup within the gate")
PY
}

# --- E19: multi-query serving front door --------------------------------
check_e19() {
SERVE_BENCH="$BUILD_DIR/bench/bench_serving"
if [ ! -x "$SERVE_BENCH" ]; then
  echo "error: $SERVE_BENCH not built" >&2
  exit 1
fi

# Byte-identity is unconditional: the binary aborts (failing this step)
# when any cached answer differs from its cold reference. The committed
# baseline documents the >=5x E19 claim; CI only enforces half of it
# (best of three) so loaded runners don't flake while an accidental
# de-caching still fails loudly. The same runs gate admission under
# contention: 32 clients queueing on 8 slots must keep at least half the
# 8-client cached qps (best of three) — a scheduler that wakes every
# waiter on each release collapses far below that.
SERVE_FLOOR=3.0
QUEUE_QPS_FLOOR=0.5
best_speedup=""
best_qps_ratio=""
for attempt in 1 2 3; do
  CISQP_BENCH_OUT_DIR="$OUT_DIR" "$SERVE_BENCH" --benchmark_filter='^$' \
      > /dev/null
  speedup="$(python3 -c '
import json, sys
rows = json.load(open(sys.argv[1]))["rows"]
row = next(r for r in rows if r["mode"] == "summary")
if not row["identical"]:
    sys.exit("FAIL: a cached answer differed from its cold reference")
print(row["speedup"])
' "$OUT_DIR/BENCH_serving.json")"
  qps_ratio="$(python3 -c '
import json, sys
rows = json.load(open(sys.argv[1]))["rows"]
qps = {r["clients"]: r["qps"] for r in rows if r["mode"] == "cached"}
print(qps[32] / qps[8])
' "$OUT_DIR/BENCH_serving.json")"
  echo "1-client cached speedup, attempt $attempt: ${speedup}x" \
       "(32/8-client cached qps ratio ${qps_ratio})"
  if [ -z "$best_speedup" ] || \
     python3 -c "import sys; sys.exit(0 if $speedup > $best_speedup else 1)"; then
    best_speedup="$speedup"
  fi
  if [ -z "$best_qps_ratio" ] || \
     python3 -c "import sys; sys.exit(0 if $qps_ratio > $best_qps_ratio else 1)"; then
    best_qps_ratio="$qps_ratio"
  fi
  if python3 -c "import sys; sys.exit(0 if $best_speedup >= $SERVE_FLOOR and $best_qps_ratio >= $QUEUE_QPS_FLOOR else 1)"; then
    break
  fi
done

python3 - "$best_speedup" "$best_qps_ratio" "$QUEUE_QPS_FLOOR" \
    bench/baselines/BENCH_serving.json <<'PY'
import json
import sys

fresh = float(sys.argv[1])
qps_ratio = float(sys.argv[2])
qps_floor = float(sys.argv[3])
base = next(r for r in json.load(open(sys.argv[4]))["rows"]
            if r["mode"] == "summary")
floor = base["speedup"] / 2.0
print(f"fresh serving speedup: {fresh:.2f}x "
      f"(floor {floor:.2f}x, baseline {base['speedup']:.2f}x)")
if fresh < floor:
    sys.exit(f"FAIL: cached-hit speedup {fresh:.2f}x below the "
             f"{floor:.2f}x floor")
print(f"32/8-client cached qps ratio: {qps_ratio:.2f} (floor {qps_floor:.2f})")
if qps_ratio < qps_floor:
    sys.exit(f"FAIL: 32-client cached qps fell to {qps_ratio:.2f}x the "
             f"8-client qps (admission collapse under queueing)")
print("OK: serving cache speedup and queued throughput within the gate")
PY
}

# --- E20: incremental policy churn --------------------------------------
check_e20() {
CHURN_BENCH="$BUILD_DIR/bench/bench_policy_churn"
if [ ! -x "$CHURN_BENCH" ]; then
  echo "error: $CHURN_BENCH not built" >&2
  exit 1
fi

# Byte-identity is unconditional: the binary aborts (failing this step)
# when any post-edit answer differs from its cold reference. The timing
# gate takes the best of three so loaded runners don't flake: the
# aggregate incremental edit cost must beat the per-edit full rechase
# (floor = half the committed baseline speedup, never below break-even),
# and a disjoint edit must keep the warm hit rate within 5 points.
best_churn=""
best_delta_pts=""
for attempt in 1 2 3; do
  CISQP_BENCH_OUT_DIR="$OUT_DIR" "$CHURN_BENCH" --benchmark_filter='^$' \
      > /dev/null
  churn="$(python3 -c '
import json, sys
rows = json.load(open(sys.argv[1]))["rows"]
row = next(r for r in rows if r.get("mode") == "summary")
if not row["identical"]:
    sys.exit("FAIL: a post-edit answer differed from its cold reference")
print(row["edit_speedup"])
' "$OUT_DIR/BENCH_policy_churn.json")"
  delta_pts="$(python3 -c '
import json, sys
rows = json.load(open(sys.argv[1]))["rows"]
row = next(r for r in rows if r.get("mode") == "summary")
print(row["hit_rate_delta_pts"])
' "$OUT_DIR/BENCH_policy_churn.json")"
  echo "incremental edit speedup, attempt $attempt: ${churn}x (hit-rate delta ${delta_pts} pts)"
  if [ -z "$best_churn" ] || \
     python3 -c "import sys; sys.exit(0 if $churn > $best_churn else 1)"; then
    best_churn="$churn"
  fi
  if [ -z "$best_delta_pts" ] || \
     python3 -c "import sys; sys.exit(0 if $delta_pts < $best_delta_pts else 1)"; then
    best_delta_pts="$delta_pts"
  fi
  if python3 -c "import sys; sys.exit(0 if $best_churn >= 1.0 and $best_delta_pts <= 5.0 else 1)"; then
    break
  fi
done

python3 - "$best_churn" "$best_delta_pts" \
    bench/baselines/BENCH_policy_churn.json <<'PY'
import json
import sys

fresh = float(sys.argv[1])
delta_pts = float(sys.argv[2])
base = next(r for r in json.load(open(sys.argv[3]))["rows"]
            if r.get("mode") == "summary")
floor = max(1.0, base["edit_speedup"] / 2.0)
print(f"fresh edit speedup: {fresh:.2f}x "
      f"(floor {floor:.2f}x, baseline {base['edit_speedup']:.2f}x)")
if fresh < floor:
    sys.exit(f"FAIL: incremental edit speedup {fresh:.2f}x below the "
             f"{floor:.2f}x floor")
if delta_pts > 5.0:
    sys.exit(f"FAIL: disjoint-edit hit rate fell {delta_pts:.1f} points "
             f"below the no-edit warm rate (5-point budget)")
print(f"OK: incremental churn within the gate "
      f"(hit-rate delta {delta_pts:.1f} pts)")
PY
}

# Each section runs in a subshell under `set -e`, so its first failing
# command (or `exit 1`) ends that section only.
failed=()
for section in e16 e13 e18 e19 e20; do
  ( set -e; "check_$section" )
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "FAIL: ${section^^} gate (exit $status)" >&2
    failed+=("${section^^}")
  fi
done

if [ "${#failed[@]}" -ne 0 ]; then
  echo "bench gates failed: ${failed[*]}" >&2
  exit 1
fi
echo "all bench gates passed"
