#!/usr/bin/env bash
# Run the css-lint privacy-invariant pass over the workspace.
#
# Prints one `error: [rule] file:line: message` line per finding and
# exits nonzero on any finding (every finding is an error; no comment
# suppresses one) or on any crate whose production size breaks the
# committed lint-baseline.json ratchet — the same gate
# crates/lint/tests/self_check.rs enforces under `cargo test`.
#
# Usage: scripts/lint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

exec cargo run -q -p css-lint -- --baseline lint-baseline.json
