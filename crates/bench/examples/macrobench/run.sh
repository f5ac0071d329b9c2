#!/usr/bin/env bash
# E23 macrobench runner. Run from the repository root.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       One run: build if needed, run, print every metric by name with
#       its unit; the last line is the JSON result. This is the command
#       BENCHMARK.json names. A run the stall guard rejects (exit 3) is
#       repeated once.
#   run.sh --set [--seed N]
#       A set: 5 passes interleaved round-robin across the workloads
#       plus one traced run per workload; prints one table of every
#       end-to-end and per-layer metric (set medians) with unit and
#       bound, and writes target/macrobench/set.json.
#   run.sh --smoke
#       Every workload once, untraced and traced, at --seconds 1.
#   run.sh --self-check [--seed N]
#       Two sets of the same build; prints, per metric and workload,
#       their relative difference next to the metric's bound.
#   run.sh --dry-run --workload W --seed N
#       Digest of the world and of the generated operation stream.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)

# The driver sets CARGO_TARGET_DIR; by hand the build lands beside the
# results, under the repository's ignored target/.
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-target/macrobench/build}
bin=$CARGO_TARGET_DIR/release/css-macrobench

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
mkdir -p target/macrobench

case "${1:-}" in
--set | --smoke | --self-check)
    exec python3 "$here/report.py" "$@"
    ;;
esac

# Scheduler preemption by unrelated processes shows up as multi-
# millisecond pauses in every latency tail: ask for priority where the
# caller may have it, run unprioritised where not.
prioritised=()
if [ "$(nice -n -20 nice 2>/dev/null)" = "-20" ]; then
    prioritised=(nice -n -20)
fi

status=0
"${prioritised[@]}" "$bin" "$@" || status=$?
if [ "$status" -eq 3 ]; then
    echo "run.sh: the stall guard rejected the run; repeating it once" >&2
    status=0
    "${prioritised[@]}" "$bin" "$@" || status=$?
fi
exit "$status"
