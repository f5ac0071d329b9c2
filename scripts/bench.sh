#!/usr/bin/env bash
# Run experiment benches in smoke mode and emit machine-readable
# BENCH_<name>.json files: per-benchmark ns/op + iteration counts, and
# the stage.* telemetry percentiles the benches print (p50/p99).
#
# Usage: scripts/bench.sh [--ratchet] [bench ...]
#   (default benches: e4_detail_request e9_encrypted_index
#    e11_policy_scaling e15_mixed_workload e16_trace_overhead
#    e17_ops_overhead e18_consumer_groups e19_shard_scaling)
#
# --ratchet: before overwriting each BENCH_<name>.json, keep the
#   committed copy and compare fresh ns_per_iter per benchmark id
#   against it — a perf-regression ratchet. At matching CSS_BENCH_MS a
#   series >15% slower than committed warns and >40% fails the run
#   (exit 1); when the scales differ (smoke run vs full-scale
#   baseline) the bars relax to 40/100 because tiny measurement
#   windows carry ±50% noise on this single-core box. New series (no
#   committed counterpart) pass silently, and concurrent series
#   (threads_N / shards_N, N>1) are warn-only — on one core their
#   timings measure scheduler contention, not the code under test.
#   When the scales differ, a series whose committed ns_per_iter is
#   under 500 ns is warn-only too: the first milliseconds of a smoke
#   window are cold-cache time, which dominates a series that short.
#
# Environment:
#   CSS_BENCH_MS    measurement window per benchmark in ms (default 50;
#                   the criterion shim reads the same variable)
#   CSS_E19_EVENTS  large-world event count for e19 (default 1000000)
#   CSS_E19_PERSONS large-world citizen count for e19 (default 10000)
set -euo pipefail
cd "$(dirname "$0")/.."

RATCHET=0
if [ "${1:-}" = "--ratchet" ]; then
  RATCHET=1
  shift
fi
BENCHES=("$@")
if [ ${#BENCHES[@]} -eq 0 ]; then
  BENCHES=(e4_detail_request e9_encrypted_index e11_policy_scaling e15_mixed_workload e16_trace_overhead e17_ops_overhead e18_consumer_groups e19_shard_scaling)
fi
: "${CSS_BENCH_MS:=50}"
export CSS_BENCH_MS

ratchet_failed=0
for bench in "${BENCHES[@]}"; do
  out=$(mktemp)
  committed=""
  if [ "$RATCHET" -eq 1 ] && [ -f "BENCH_${bench}.json" ]; then
    committed=$(mktemp)
    cp "BENCH_${bench}.json" "$committed"
  fi
  echo "== $bench (CSS_BENCH_MS=${CSS_BENCH_MS})"
  cargo bench -q -p css-bench --bench "$bench" 2>&1 | tee "$out"
  awk -v bench="$bench" -v ms="$CSS_BENCH_MS" '
    # Benchmark lines: group/id    time:   12.345 µs/iter (n=1234)
    $1 ~ /\// && $0 ~ / time: / && $0 ~ /\/iter/ {
      v = ""; u = ""
      for (i = 2; i <= NF; i++) if ($i == "time:") { v = $(i + 1); u = $(i + 2); break }
      if (v == "") next
      f = 1000.0                      # default µs (non-ASCII prefix)
      if (u ~ /^ns/) f = 1.0
      else if (u ~ /^ms/) f = 1000000.0
      iters = 0
      if ($NF ~ /^\(n=/) { s = $NF; gsub(/[^0-9]/, "", s); iters = s + 0 }
      nr++
      rname[nr] = $1; rns[nr] = v * f; rit[nr] = iters
    }
    # Threaded-throughput lines (E15): "N ops across M thread(s): X ops/s"
    $0 ~ / ops across / && $NF == "ops/s" {
      t = 0; v = 0
      for (i = 1; i <= NF; i++) if ($i == "across") t = $(i + 1) + 0
      v = $(NF - 1) + 0
      if (t > 0) { sops[t] = v; if (t > smax) smax = t; shave = 1 }
    }
    # Large-world tail line (E19): "1M-world: events=N ... p50=Xns p99=Yns"
    $1 == "1M-world:" {
      for (i = 2; i <= NF; i++) {
        n = index($i, "=")
        if (n == 0) continue
        k = substr($i, 1, n - 1); val = substr($i, n + 1)
        gsub(/[^0-9]/, "", val)
        wk[++nw] = k; wv[nw] = val + 0
      }
      whave = 1
    }
    # Telemetry lines: stage.pdp_evaluate  count=N  p50=Xns p99=Yns ...
    # (trace.* counters from E16 use the same format)
    $1 ~ /^(stage|trace)\./ && $2 ~ /^count=/ {
      name = $1; sub(/:$/, "", name)
      c = $2; gsub(/[^0-9]/, "", c)
      p50 = 0; p99 = 0
      for (i = 3; i <= NF; i++) {
        if ($i ~ /^p50=/) { p50 = $i; sub(/^p50=/, "", p50); gsub(/[^0-9]/, "", p50) }
        if ($i ~ /^p99=/) { p99 = $i; sub(/^p99=/, "", p99); gsub(/[^0-9]/, "", p99) }
      }
      nt++
      tname[nt] = name; tc[nt] = c + 0; t50[nt] = p50 + 0; t99[nt] = p99 + 0
    }
    END {
      printf "{\n  \"bench\": \"%s\",\n  \"bench_ms\": %d,\n  \"results\": [", bench, ms
      for (i = 1; i <= nr; i++)
        printf "%s\n    {\"name\": \"%s\", \"ns_per_iter\": %.3f, \"iters\": %d}", (i > 1 ? "," : ""), rname[i], rns[i], rit[i]
      printf "\n  ],\n  \"telemetry\": ["
      for (i = 1; i <= nt; i++)
        printf "%s\n    {\"stage\": \"%s\", \"count\": %d, \"p50_ns\": %d, \"p99_ns\": %d}", (i > 1 ? "," : ""), tname[i], tc[i], t50[i], t99[i]
      printf "\n  ]"
      # Threaded scaling (E15): ops/s per thread count plus the 8v1
      # speedup ratio, so the shard win is one JSON field.
      if (shave) {
        printf ",\n  \"scaling\": {\"ops_per_sec\": {"
        first = 1
        for (t = 1; t <= smax; t++) if (t in sops) {
          printf "%s\"threads_%d\": %.0f", (first ? "" : ", "), t, sops[t]
          first = 0
        }
        printf "}"
        if ((1 in sops) && (8 in sops) && sops[1] > 0)
          printf ", \"speedup_8v1\": %.3f", sops[8] / sops[1]
        printf "}"
      }
      # Large-world tail (E19): the key=value pairs of the 1M-world marker.
      if (whave) {
        printf ",\n  \"world\": {"
        for (i = 1; i <= nw; i++)
          printf "%s\"%s\": %d", (i > 1 ? ", " : ""), wk[i], wv[i]
        printf "}"
      }
      # Overhead benches: the on/off ns-per-op delta, when the bench
      # registered an off and an on series (E16 collector_off/on,
      # E17 sampler_off/on, E21 recorder_off/on, E22 chronicle_off/on).
      off = -1; on = -1
      for (i = 1; i <= nr; i++) {
        if (rname[i] ~ /\/(collector|sampler|recorder|chronicle)_off$/) off = rns[i]
        if (rname[i] ~ /\/(collector|sampler|recorder|chronicle)_on$/) on = rns[i]
      }
      if (off >= 0 && on >= 0) {
        dropped = 0
        for (i = 1; i <= nt; i++) if (tname[i] == "trace.spans_dropped") dropped = tc[i]
        printf ",\n  \"overhead\": {\"off_ns\": %.3f, \"on_ns\": %.3f, \"delta_ns_per_op\": %.3f, \"delta_pct\": %.2f, \"spans_dropped\": %d}", off, on, on - off, (off > 0 ? 100.0 * (on - off) / off : 0), dropped
      }
      printf "\n}\n"
    }
  ' "$out" > "BENCH_${bench}.json"
  rm -f "$out"
  echo "-- wrote BENCH_${bench}.json"

  # The ratchet: fresh ns_per_iter vs the committed copy, per series.
  # Like-for-like runs (same bench_ms) get the tight 15/40 bars; a
  # smoke run compared against a full-scale baseline only trips on a
  # >2× blowup, because tiny windows carry ±50% noise on this box.
  if [ -n "$committed" ]; then
    while read -r verdict bar name old new pct; do
      case "$verdict" in
        FAIL)
          echo "-- ratchet FAIL: $name ${old}ns -> ${new}ns (${pct}%, bar +${bar}%)" >&2
          ratchet_failed=1
          ;;
        warn)
          echo "-- ratchet warn: $name ${old}ns -> ${new}ns (${pct}%, bar +${bar}%)"
          ;;
        *)
          echo "-- ratchet ok:   $name ${old}ns -> ${new}ns (${pct}%)"
          ;;
      esac
    done < <(awk '
      FNR == 1 { file++ }
      /"bench_ms": / {
        v = $0; sub(/.*"bench_ms": /, "", v); sub(/,.*/, "", v)
        ms[file] = v + 0
      }
      /"name": "/ && /"ns_per_iter": / {
        name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
        v = $0; sub(/.*"ns_per_iter": /, "", v); sub(/,.*/, "", v)
        if (file == 1) old[name] = v + 0
        else if (name in old) {
          warn_bar = 15; fail_bar = 40
          if (ms[1] != ms[2]) { warn_bar = 40; fail_bar = 100 }
          pct = (old[name] > 0) ? 100.0 * (v - old[name]) / old[name] : 0
          verdict = "ok"; bar = fail_bar
          if (pct > fail_bar) verdict = "FAIL"
          else if (pct > warn_bar) { verdict = "warn"; bar = warn_bar }
          # Concurrent series never hard-fail: on a single-core box
          # multi-thread (and multi-shard scatter-gather) timings
          # measure scheduler contention, not the code under test.
          if (verdict == "FAIL" && name ~ /(shards|threads)_([2-9]|[0-9][0-9])/) verdict = "warn"
          # Nor does a sub-500 ns series at a differing scale: a 5 ms
          # smoke window opens on cold caches, and a series this short
          # (e4 stage1_pip_resolve, 53-83 ns committed) then reads 2-4x
          # its steady state with nothing changed.
          if (verdict == "FAIL" && ms[1] != ms[2] && old[name] < 500) verdict = "warn"
          printf "%s %d %s %.3f %.3f %+.1f\n", verdict, bar, name, old[name], v, pct
        }
      }
    ' "$committed" "BENCH_${bench}.json")
    rm -f "$committed"
  fi
done

if [ "$ratchet_failed" -ne 0 ]; then
  echo "bench: perf-regression ratchet failed (ns_per_iter over the committed fail bar)" >&2
  exit 1
fi
