#!/usr/bin/env bash
# Alternating macrobench pairs: a named commit against the working tree.
#
#   scripts/pair.sh <rev> <workload> <pairs> [first-seed]
#   scripts/pair.sh <rev> all <pairs> [first-seed]
#
# Builds the macrobench of <rev> from a clean export of that commit
# (`git archive`: nothing is registered in .git, so an interrupted run
# leaves no worktree behind) into target/pair/<rev>/, and the working
# tree's into target/pair/work/. Then runs <pairs> pairs of
#
#   run.sh --workload <workload> --seed S --seconds <run_seconds> --trace 0
#
# with S = first-seed (default 1), first-seed + 1, ...; the side that
# runs first alternates from pair to pair, and run_seconds is
# BENCHMARK.json's. Every run's output is kept under target/pair/runs/.
# With `all` for <workload>, the same pairs run for every workload of
# BENCHMARK.json, one workload after another, each with its own table.
#
# Prints, per end-to-end metric of BENCHMARK.json, each side's median
# [q1, q3], the pairs the working tree won (ties count for neither)
# and a verdict: "gain" when it won at least 9 pairs in 10 and the
# medians are further apart than the base's inter-quartile range,
# "worse" when its median is worse than the base's by more than the
# metric's bound, "held" otherwise. Below the table: each side's raw
# service p50 per operation and the reference kernel's median window,
# as measured (the gated numbers are normalised by that kernel). Exits
# non-zero if a run failed or reported a failed operation, on any
# workload.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: scripts/pair.sh <rev> <workload|all> <pairs> [first-seed]" >&2
    exit 2
fi
rev=$(git rev-parse --short "$1^{commit}")
if [ "$2" = all ]; then
    workloads=$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
else
    workloads=$2
fi
pairs=$3
first=${4:-1}
macrobench=crates/bench/examples/macrobench
root=$PWD/target/pair
base_src=$root/$rev/src
runs=$root/runs
mkdir -p "$runs"

# A macrobench build prunes the package's committed Cargo.lock in the
# tree it builds: put the working tree's back on exit.
cp "$macrobench/Cargo.lock" "$root/Cargo.lock.saved"
trap 'cp "$root/Cargo.lock.saved" "$macrobench/Cargo.lock"' EXIT

# An export stamps itself once whole; anything else there is redone,
# build included (an export's files carry the commit's mtimes, which an
# older build's fingerprints would take for fresh).
if [ ! -f "$root/$rev/exported" ]; then
    rm -rf "$root/${rev:?}"
    mkdir -p "$base_src"
    git archive "$rev" | tar -x -C "$base_src"
    touch "$root/$rev/exported"
fi
build() { # <source tree> <target dir>
    (cd "$1" && CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path "$macrobench/Cargo.toml")
}
build "$base_src" "$root/$rev/build"
build "$PWD" "$root/work/build"

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
run() { # <side> <seed>
    local tree=$PWD target=$root/work/build out=$runs/$workload-$2-$1.txt
    if [ "$1" = base ]; then
        tree=$base_src target=$root/$rev/build
    fi
    echo "pair.sh: $1 seed $2" >&2
    (cd "$tree" && CARGO_TARGET_DIR=$target bash "$macrobench/run.sh" \
        --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0) >"$out" 2>&1 ||
        echo "pair.sh: $1 seed $2 exited non-zero (see $out)" >&2
}
report() { # <workload>
    python3 - "$runs" "$1" "$first" "$pairs" "$rev" <<'EOF'
import json, re, statistics, sys

runs, workload, first, pairs, rev = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), sys.argv[5]
bench = json.load(open("BENCHMARK.json"))
service = re.compile(r"^(\w+): \d+ ops,.* service p50 ([\d.]+) ")
kernel = re.compile(r"reference kernel took [\d.]+ / ([\d.]+) / [\d.]+ ns")


def load(side, seed):
    text = open(f"{runs}/{workload}-{seed}-{side}.txt").read()
    result = None
    for line in text.splitlines():
        if line.startswith('{"correct"'):
            result = json.loads(line)
    raw = {m[1]: float(m[2]) for m in map(service.match, text.splitlines()) if m}
    k = kernel.search(text)
    return result, raw, float(k[1]) if k else None


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q1, q3


seeds = range(first, first + pairs)
sides = {side: [load(side, s) for s in seeds] for side in ("base", "work")}
broken = [
    (side, s)
    for side, loaded in sides.items()
    for s, (result, _, _) in zip(seeds, loaded)
    if result is None or not result["correct"] or result["failed"]
]
print(f"{workload}: {pairs} pairs, seeds {first}..{first + pairs - 1}; base = {rev}, work = working tree")
if broken:
    print(f"failed runs (side, seed): {broken}")
ok = [i for i in range(pairs) if ("base", first + i) not in broken and ("work", first + i) not in broken]
if len(ok) < 2:
    sys.exit(f"{len(ok)} whole pair(s): quartiles need two")
print(f"{'metric':<16} {'base median [q1, q3]':>32} {'work median [q1, q3]':>32} {'change':>8} {'wins':>6}  verdict")
for m in bench["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    b = [sides["base"][i][0]["metrics"][name]["value"] for i in ok]
    w = [sides["work"][i][0]["metrics"][name]["value"] for i in ok]
    (bm, b1, b3), (wm, w1, w3) = spread(b), spread(w)
    wins = sum((x < y) if lower else (x > y) for x, y in zip(w, b))
    change = (wm - bm) / bm if bm else 0.0
    better = change < 0 if lower else change > 0
    worse = -change if not lower else change
    if better and wins >= 0.9 * len(ok) and abs(wm - bm) > b3 - b1:
        verdict = "gain"
    elif worse > m["bound"]:
        verdict = f"worse (bound {m['bound']:.0%})"
    else:
        verdict = "held"
    print(
        f"{name:<16} {bm:>12.4g} [{b1:.4g}, {b3:.4g}]".ljust(49)
        + f" {wm:>12.4g} [{w1:.4g}, {w3:.4g}]".ljust(33)
        + f" {change:>+7.1%} {wins:>3}/{len(ok):<2}  {verdict}"
    )
print("raw service p50 (us, as measured; median over runs):")
ops = sorted({op for side in sides.values() for _, raw, _ in side for op in raw})
for op in ops:
    b = [raw[op] for _, raw, _ in sides["base"] if op in raw]
    w = [raw[op] for _, raw, _ in sides["work"] if op in raw]
    if b and w:
        bm, wm = statistics.median(b), statistics.median(w)
        wins = sum(x < y for x, y in zip(w, b))
        print(f"  {op:<10} base {bm:8.2f}  work {wm:8.2f}  {(wm - bm) / bm:+7.1%}  wins {wins}/{min(len(b), len(w))}")
kb = [k for _, _, k in sides["base"] if k]
kw = [k for _, _, k in sides["work"] if k]
if kb and kw:
    print(f"reference kernel median window (ns): base {statistics.median(kb):.0f}  work {statistics.median(kw):.0f}")
sys.exit(1 if broken else 0)
EOF
}

status=0
for workload in $workloads; do
    for ((i = 0; i < pairs; i++)); do
        seed=$((first + i))
        if ((i % 2 == 0)); then
            run base "$seed"
            run work "$seed"
        else
            run work "$seed"
            run base "$seed"
        fi
    done
    report "$workload" || status=1
    echo
done
exit "$status"
