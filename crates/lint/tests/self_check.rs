//! The live workspace must be lint-clean: zero findings, every one of
//! which is an error and none of which a comment can suppress. This is
//! the same gate `scripts/lint.sh` enforces in CI, run as a cargo test
//! so a plain `cargo test` catches regressions too.

use std::path::Path;

use css_lint::rules::all_rules;
use css_lint::{lint_workspace, render_text};

#[test]
fn live_workspace_has_no_lint_errors() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let report = lint_workspace(&root).expect("lint the workspace");

    assert!(
        report.files_scanned > 100,
        "scanned only {} files — wrong root?",
        report.files_scanned
    );
    assert_eq!(
        report.errors(),
        0,
        "workspace has lint errors:\n{}",
        render_text(&report)
    );
}

/// The rules css-lint holds — the ones that need a token walk, a
/// dataflow or the manifest graph. An invariant rustc, clippy or a
/// behavioural test can express is held there instead (DESIGN §9 says
/// which, and by what proof), so a rule joining or leaving this list
/// is a decision.
#[test]
fn the_six_rules_by_name() {
    let ids: Vec<_> = all_rules().iter().map(|r| r.id()).collect();
    assert_eq!(
        ids,
        [
            "detail-confinement",
            "identity-taint",
            "dom-free-read-path",
            "layering",
        ]
    );
}
