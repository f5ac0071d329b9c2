#!/usr/bin/env python3
"""Sets of macrobench runs: `run.sh --set | --smoke | --self-check`.

A pass runs each workload once; a set is PASSES (5) passes interleaved
round-robin across the workloads (so drift hits every workload alike)
plus one traced run per workload, and a metric's value is its median
over the set. Every run goes through run.sh, like the driver's.
"""
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
OUT = pathlib.Path("target/macrobench")
PASSES = 5
# Runs in every set beside the BENCHMARK.json workloads, but is never
# gated: its timings are the shared disk's (README.md, "Noise").
UNGATED = ["durable_ingest"]


def spec():
    """BENCHMARK.json: workloads, metric units and bounds."""
    for root in [pathlib.Path.cwd(), *HERE.parents]:
        path = root / "BENCHMARK.json"
        if path.exists():
            return json.loads(path.read_text())
    sys.exit("report.py: BENCHMARK.json not found; run from the repository root")


def run_one(workload, seed, seconds, trace):
    """One run through run.sh (build check, priority, stall re-run)."""
    out = OUT / f"{workload}.{seed}.{trace}.json"
    cmd = ["bash", str(HERE / "run.sh"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        sys.exit(f"report.py: {workload} seed {seed} trace {trace} exited {done.returncode}")
    result = json.loads(out.read_text())
    out.unlink()
    if not result["correct"]:
        sys.exit(f"report.py: {workload} seed {seed}: {result['failed']} of "
                 f"{result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_set(bench, seed, seconds, passes=PASSES):
    """{workload: {metric: set median}} for end-to-end and per-layer metrics."""
    names = workloads(bench)
    runs = {name: [] for name in names}
    for p in range(passes):
        for name in names:
            print(f"  pass {p + 1}/{passes} {name}", file=sys.stderr)
            runs[name].append(run_one(name, seed + p, seconds, 0))
    values = {}
    for name in names:
        values[name] = {m: statistics.median(r[m] for r in runs[name]) for m in runs[name][0]}
        print(f"  traced {name}", file=sys.stderr)
        values[name].update(run_one(name, seed, seconds, 1))
    return values


def workloads(bench):
    return [w["name"] for w in bench["workloads"]] + UNGATED


def table(bench, values):
    names = workloads(bench)
    print(f"{'metric':<40}{'unit':>8}{'bound':>7}" + "".join(f"{n:>16}" for n in names))
    for metric in bench["end_to_end"] + bench["per_layer"]:
        bound = f"{metric['bound']:.0%}" if "bound" in metric else "-"
        cells = "".join(f"{values[n][metric['name']]:>16.4f}" for n in names)
        print(f"{metric['name']:<40}{metric['unit']:>8}{bound:>7}{cells}")


def self_check(bench, first, second):
    """Relative difference of two sets, per end-to-end metric and workload."""
    names = [w["name"] for w in bench["workloads"]]
    print(f"{'metric':<20}{'bound':>7}" + "".join(f"{n:>16}" for n in names))
    worst = 0.0
    for metric in bench["end_to_end"]:
        cells = ""
        for n in names:
            a, b = first[n][metric["name"]], second[n][metric["name"]]
            diff = abs(a - b) / min(a, b)
            worst = max(worst, diff / metric["bound"])
            flag = "!" if diff > metric["bound"] else " "
            cells += f"{diff:>15.2%}{flag}"
        print(f"{metric['name']:<20}{metric['bound']:>7.0%}{cells}")
    print(f"largest difference is {worst:.2f} of its bound")
    return worst <= 1.0


def main():
    args = sys.argv[1:]
    mode = args[0]
    seed = int(args[args.index("--seed") + 1]) if "--seed" in args else 1
    bench = spec()
    OUT.mkdir(parents=True, exist_ok=True)
    if mode == "--smoke":
        table(bench, run_set(bench, seed, 1, passes=1))
    elif mode in ("--set", "--self-check"):
        values = run_set(bench, seed, bench["run_seconds"])
        table(bench, values)
        (OUT / "set.json").write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
        print(f"set medians written to {OUT / 'set.json'}")
        if mode == "--self-check":
            second = run_set(bench, seed + 100, bench["run_seconds"])
            if not self_check(bench, values, second):
                sys.exit(1)
    else:
        sys.exit(f"report.py: unknown mode {mode}")


if __name__ == "__main__":
    main()
