#!/usr/bin/env bash
# Repo-wide quality gate, twelve steps: formatting, unsafe allowlist,
# clippy, warning-free rustdoc, css-lint, release build, tests (and the
# css package's again on one CPU, and the release-only tests), the
# runnable examples, then the
# macrobench package
# (its tests and a smoke run). Those are the two gates — the tests
# carry every correctness claim, the macrobench is the one timing
# instrument — so no other bench harness, timing ratchet or shell smoke
# of the ops plane runs here. Every step runs even when an earlier one
# fails; the exit status is non-zero if any did, and the failed steps
# are listed at the end.
# Usage: scripts/check.sh
set -uo pipefail
cd "$(dirname "$0")/.."

failed=()
step() {
  local name=$1
  shift
  echo "== $name"
  "$@" || failed+=("$name")
}

# The workspace denies unsafe_code; the carve-out is the two files
# below, one audited site each. The token anywhere else in production
# source fails here with its file:line, so the carve-out cannot grow
# unnoticed.
unsafe_allowlist() {
  local hits
  hits=$(grep -rnw --include='*.rs' unsafe crates/*/src compat/*/src src |
    grep -v \
      -e '^compat/parking_lot/src/lib.rs:' \
      -e '^crates/crypto/src/sha256.rs:')
  if [ -n "$hits" ]; then
    echo "\`unsafe\` outside the allowlist (replace_guard, the SHA-NI call):" >&2
    echo "$hits" >&2
    return 1
  fi
}

step "cargo fmt --check" cargo fmt --all --check
step "unsafe: only at the two allowlisted sites" unsafe_allowlist
# clippy is where the no-panic floor of the request path lives: css-policy,
# css-controller, css-storage, css-bus and css-gateway deny unwrap_used,
# expect_used, panic and unreachable outside tests at their crate roots.
# It also holds css-core's discard floor: a filing's Result is neither
# bound to `_` nor dropped through `.ok()` (let_underscore_must_use,
# unused_result_ok), and a bare one is rustc's unused_must_use.
step "cargo clippy (deny warnings)" cargo clippy --workspace --all-targets -- -D warnings
# Every intra-doc link resolves and none points at a private item.
step "rustdoc (deny warnings)" \
  env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
step "css-lint: privacy-invariant pass (four rules, no waivers; size ratchet vs lint-baseline.json)" scripts/lint.sh
step "tier-1: release build" cargo build --release
step "tier-1: tests (whole workspace; one red test hides no suite after it)" \
  cargo test -q --workspace --no-fail-fast
# Pinned to one CPU, `default_shard_count()` is 1 whatever the host, so
# every test that takes the default runs on the one-shard plane too.
step "tier-1: the css package on one CPU" taskset -c 0 cargo test -q -p css
# A debug build compiles out the tests that pin what release builds
# carry: the clock's uncounted reads and the lock shim's std-sized
# locks. They run here, in release.
step "tier-1: the release-only tests (css-telemetry, parking_lot)" \
  cargo test -q --release -p css-telemetry -p parking_lot

# `cargo test` compiles the README's runnable examples but never runs
# them: each must exit 0. `ops_demo` serves its plane until a deadline
# and is left out.
run_examples() {
  local example name status=0
  for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    [ "$name" = ops_demo ] && continue
    echo "-- example $name"
    if ! cargo run -q --offline --example "$name" >/dev/null; then
      echo "example $name failed" >&2
      status=1
    fi
  done
  return $status
}
step "examples: every runnable example but ops_demo exits 0" run_examples

# The macrobench is a package of its own that `cargo build` at the root
# never compiles, and it calls the product crates directly: build its
# tests and run every workload once so an API break shows here.
# Resolving the package prunes its committed Cargo.lock, which only a
# benchmark PR refreshes: its bytes are saved first and put back on
# exit, whatever the steps did, so a gate run leaves the tree as it
# found it.
macrobench=crates/bench/examples/macrobench
saved_lock=target/macrobench/Cargo.lock.saved
mkdir -p target/macrobench
cp "$macrobench/Cargo.lock" "$saved_lock"
trap 'cp "$saved_lock" "$macrobench/Cargo.lock"' EXIT
step "macrobench: package tests" \
  env CARGO_TARGET_DIR=target/macrobench/build \
  cargo test -q --release --offline --manifest-path "$macrobench/Cargo.toml"
step "macrobench: smoke run (every workload, untraced + traced)" bash "$macrobench/run.sh" --smoke

if [ ${#failed[@]} -ne 0 ]; then
  echo "== check.sh: ${#failed[@]} step(s) failed:" >&2
  printf '   - %s\n' "${failed[@]}" >&2
  exit 1
fi
echo "== check.sh: every step passed"
