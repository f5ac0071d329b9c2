#!/usr/bin/env bash
# Run one test target again and again on a busy host.
#
#   scripts/busy.sh <test-target> <runs> [loops]
#
# Builds the test binary of <test-target> (a file under tests/, named
# without `.rs`, e.g. ops_integration) once, in the debug profile
# `cargo test` uses, then starts [loops] `yes > /dev/null` processes of
# its own (default 3, never more than `nproc`) and runs the binary
# <runs> times, one run after another. Prints the passes and the
# failures, each failure with its first panic line, and exits non-zero
# if any run failed. The loops are stopped on every exit path. Every
# run's output is kept under target/busy/<test-target>/; nothing else
# is written and no setting of the host is touched.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: scripts/busy.sh <test-target> <runs> [loops]" >&2
    exit 2
fi
target=$1
runs=$2
loops=${3:-3}
for n in "$runs" "$loops"; do
    case $n in
        '' | *[!0-9]*)
            echo "busy.sh: <runs> and [loops] are whole numbers" >&2
            exit 2
            ;;
    esac
done
cpus=$(nproc)
if [ "$loops" -gt "$cpus" ]; then
    loops=$cpus
fi

bin=$(cargo test -q -p css --test "$target" --no-run --message-format=json |
    python3 -c '
import json, sys
for line in sys.stdin:
    m = json.loads(line)
    if m.get("reason") == "compiler-artifact" and m.get("executable") and m["target"]["name"] == sys.argv[1]:
        print(m["executable"])
' "$target")
if [ -z "$bin" ]; then
    echo "busy.sh: no test binary for target $target" >&2
    exit 2
fi
logs=target/busy/$target
mkdir -p "$logs"

pids=()
stop_loops() {
    for pid in "${pids[@]}"; do
        kill "$pid" 2>/dev/null || true
    done
    pids=()
}
trap stop_loops EXIT
trap 'stop_loops; exit 130' INT TERM
for _ in $(seq 1 "$loops"); do
    yes >/dev/null &
    pids+=($!)
done

passed=0
failed=0
for run in $(seq 1 "$runs"); do
    log=$logs/run-$run.log
    if "$bin" -q >"$log" 2>&1; then
        passed=$((passed + 1))
    else
        failed=$((failed + 1))
        first=$(grep -m1 -A1 'panicked at' "$log" | tr '\n' ' ' || true)
        echo "run $run failed: ${first:-no panic line, see $log}"
    fi
done
echo "$target: $passed passed, $failed failed of $runs runs beside $loops busy loops"
[ "$failed" -eq 0 ]
