#!/usr/bin/env bash
# Run the css-lint privacy-invariant pass over the workspace.
#
# Writes the machine-readable report to target/LINT_REPORT.json (schema
# v2, see crates/lint/src/json.rs; it names the checkout path and the
# run's wall time, so it is a build output and is not committed) and
# exits nonzero on any error-severity finding or any waiver not covered
# by the committed lint-baseline.json budget — the same gate
# crates/lint/tests/self_check.rs enforces.
#
# Usage: scripts/lint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out=target/LINT_REPORT.json
mkdir -p target
if cargo run -q -p css-lint -- --format json --baseline lint-baseline.json > "$out"; then
    echo "css-lint: clean ($(grep -o '"files_scanned":[0-9]*' "$out" | cut -d: -f2) files, report in $out)"
else
    status=$?
    echo "css-lint: FAILED (exit $status); findings:" >&2
    # Re-run in human-readable form so the failure is actionable.
    cargo run -q -p css-lint -- --baseline lint-baseline.json || true
    exit "$status"
fi
