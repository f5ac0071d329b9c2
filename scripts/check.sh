#!/usr/bin/env bash
# Repo-wide quality gate: formatting, lints, build, tests.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== css-lint: privacy-invariant pass (waiver budget + size ratchet vs lint-baseline.json)"
scripts/lint.sh

echo "== tracing: unit + end-to-end suite"
cargo test -q -p css-trace
cargo test -q --test trace_integration

echo "== tier-1: build + test (whole workspace; one red test hides no suite after it)"
cargo build --release
cargo test -q --workspace --no-fail-fast

echo "== ops plane: live scrape smoke"
scripts/obs.sh

echo "== benches: build + smoke run + perf-regression ratchet"
cargo build --benches
# Smoke sizes only — a real BENCH_*.json refresh is a plain
# `scripts/bench.sh` (e19 then builds its full-scale sim world).
# --ratchet compares the fresh ns_per_iter against the committed
# BENCH_*.json values (warn >15%, fail >40%); after a green check,
# regenerate the JSONs at full scale with `scripts/bench.sh` so the
# committed baseline stays a full-scale run.
CSS_BENCH_MS=5 CSS_E19_EVENTS=20000 CSS_E19_PERSONS=500 scripts/bench.sh --ratchet
