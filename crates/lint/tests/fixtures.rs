//! Every rule must demonstrably fire on its checked-in `fire` fixture
//! and stay silent on its `clean` twin. The fixtures live under
//! `tests/fixtures/` (cargo does not compile them; the lint reads them
//! as text), each linted as if it were production code of the crate
//! the rule targets.

use std::path::Path;

use css_lint::{lint_file_source, lint_workspace, FileRole, Finding, Severity};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lint a fixture as production code of `crate_name`; return active
/// (non-waived) findings for `rule` only.
fn fire(crate_name: &str, name: &str, rule: &str) -> Vec<Finding> {
    let src = fixture(name);
    lint_file_source(crate_name, name, FileRole::Production, &src)
        .into_iter()
        .filter(|f| f.rule == rule && !f.is_waived())
        .collect()
}

#[test]
fn detail_confinement_fires_and_clean_passes() {
    let hits = fire(
        "css-bus",
        "detail_confinement/fire.rs",
        "detail-confinement",
    );
    assert_eq!(hits.len(), 2, "DetailMessage + DetailStore: {hits:#?}");
    assert!(hits.iter().all(|f| f.severity == Severity::Error));
    assert!(hits[0].message.contains("DetailMessage"));

    let clean = fire(
        "css-bus",
        "detail_confinement/clean.rs",
        "detail-confinement",
    );
    assert!(clean.is_empty(), "clean fixture fired: {clean:#?}");
}

/// The broker stays payload-blind: a `BusDriver` impl instantiated
/// over a detail payload would let any transport inspect or journal
/// unfiltered person data, so naming one inside css-bus is an error.
#[test]
fn detail_confinement_covers_bus_driver_impls() {
    let hits = fire(
        "css-bus",
        "detail_confinement/driver_fire.rs",
        "detail-confinement",
    );
    assert_eq!(hits.len(), 2, "impl header + field: {hits:#?}");
    assert!(hits.iter().all(|f| f.severity == Severity::Error));
    assert!(hits.iter().all(|f| f.message.contains("DetailMessage")));

    // The same driver shape is fine in a crate outside the confinement
    // boundary (e.g. a producer-side adapter that legitimately holds
    // details before gateway persistence).
    let outside = fire(
        "css-gateway",
        "detail_confinement/driver_fire.rs",
        "detail-confinement",
    );
    assert!(outside.is_empty(), "fired outside boundary: {outside:#?}");
}

/// The ops plane is confined: its HTTP endpoints serve state to any
/// scraper, its incident bundles are written to disk, and its history
/// rings outlive any single request — so css-health must be
/// structurally unable to name a detail payload.
#[test]
fn detail_confinement_covers_the_ops_plane() {
    let hits = fire(
        "css-health",
        "detail_confinement/fire.rs",
        "detail-confinement",
    );
    assert_eq!(hits.len(), 2, "DetailMessage + DetailStore: {hits:#?}");
    assert!(hits.iter().all(|f| f.severity == Severity::Error));

    let clean = fire(
        "css-health",
        "detail_confinement/clean.rs",
        "detail-confinement",
    );
    assert!(clean.is_empty(), "clean fixture fired: {clean:#?}");
}

#[test]
fn detail_confinement_ops_plane_waiver_moves_finding_to_waived() {
    let src = fixture("detail_confinement/health_waived.rs");
    let all = lint_file_source(
        "css-health",
        "detail_confinement/health_waived.rs",
        FileRole::Production,
        &src,
    );
    let (waived, active): (Vec<_>, Vec<_>) = all.into_iter().partition(|f| f.is_waived());
    assert!(
        active.iter().all(|f| f.rule != "detail-confinement"),
        "{active:#?}"
    );
    assert_eq!(waived.len(), 1, "{waived:#?}");
    assert!(waived[0]
        .waive_reason
        .as_deref()
        .unwrap_or("")
        .contains("negative assertion"));
}

#[test]
fn detail_confinement_ignores_unconfined_crates() {
    // The same source in the gateway crate (where details legitimately
    // live) is fine.
    let hits = fire(
        "css-gateway",
        "detail_confinement/fire.rs",
        "detail-confinement",
    );
    assert!(hits.is_empty());
}

#[test]
fn audit_before_release_fires_and_clean_passes() {
    let hits = fire(
        "css-controller",
        "audit_release/fire.rs",
        "audit-before-release",
    );
    assert_eq!(hits.len(), 1, "{hits:#?}");
    assert!(hits[0].message.contains("deliver"));

    let clean = fire(
        "css-controller",
        "audit_release/clean.rs",
        "audit-before-release",
    );
    assert!(
        clean.is_empty(),
        "audited/forwarding fns flagged: {clean:#?}"
    );
}

/// The PEP's one index visit and a subject's profile unseal identities
/// inside the controller: release points beside `decrypt_notification`.
#[test]
fn audit_before_release_covers_the_one_visit_lookups() {
    let hits = fire(
        "css-controller",
        "audit_release/one_visit_fire.rs",
        "audit-before-release",
    );
    assert_eq!(hits.len(), 2, "{hits:#?}");
    assert!(hits[0].message.contains("resolve_detail_request"));
    assert!(hits[1].message.contains("notifications_of_person"));

    let clean = fire(
        "css-controller",
        "audit_release/one_visit_clean.rs",
        "audit-before-release",
    );
    assert!(
        clean.is_empty(),
        "audited/forwarding fns flagged: {clean:#?}"
    );
}

#[test]
fn dom_free_read_path_fires_and_clean_passes() {
    for krate in ["css-audit", "css-gateway", "css-controller", "css-storage"] {
        let hits = fire(krate, "dom_free/fire.rs", "dom-free-read-path");
        assert_eq!(hits.len(), 2, "import group + path call: {hits:#?}");
        assert!(hits.iter().all(|f| f.severity == Severity::Error));
        let clean = fire(krate, "dom_free/clean.rs", "dom-free-read-path");
        assert!(clean.is_empty(), "token decode flagged: {clean:#?}");
    }
    // The paper-facing formats keep the tree: read at open, queried after.
    for krate in ["css-policy", "css-registry", "css-event"] {
        let hits = fire(krate, "dom_free/fire.rs", "dom-free-read-path");
        assert!(hits.is_empty(), "fired outside the read path: {hits:#?}");
    }
}

#[test]
fn dom_free_waiver_moves_finding_to_waived() {
    let src = fixture("dom_free/waived.rs");
    let all = lint_file_source(
        "css-storage",
        "dom_free/waived.rs",
        FileRole::Production,
        &src,
    );
    let (waived, active): (Vec<_>, Vec<_>) = all.into_iter().partition(|f| f.is_waived());
    assert!(
        active.iter().all(|f| f.rule != "dom-free-read-path"),
        "{active:#?}"
    );
    assert_eq!(waived.len(), 1);
    assert!(waived[0]
        .waive_reason
        .as_deref()
        .unwrap_or("")
        .contains("startup-only"));
}

#[test]
fn test_role_files_are_exempt_from_file_rules() {
    // The fire fixtures themselves, read with their real role (Test),
    // must produce nothing — this is what keeps the self-check clean.
    for (krate, name) in [
        ("css-bus", "detail_confinement/fire.rs"),
        ("css-controller", "audit_release/fire.rs"),
        ("css-storage", "dom_free/fire.rs"),
        ("css-storage", "lock_across_io/fire.rs"),
    ] {
        let src = fixture(name);
        let hits = lint_file_source(krate, name, FileRole::Test, &src);
        assert!(hits.is_empty(), "{name} fired with Test role: {hits:#?}");
    }
}

#[test]
fn lock_across_io_fires_and_clean_passes() {
    let hits = fire("css-storage", "lock_across_io/fire.rs", "lock-across-io");
    assert_eq!(hits.len(), 2, "global + per-shard guard: {hits:#?}");
    assert_eq!(hits[0].severity, Severity::Warn);
    assert!(
        hits[0].message.contains("index"),
        "names the guard: {hits:#?}"
    );
    assert!(
        hits[1].message.contains("`shard`"),
        "names the per-shard guard: {hits:#?}"
    );

    let clean = fire("css-storage", "lock_across_io/clean.rs", "lock-across-io");
    assert!(clean.is_empty(), "allowed shapes flagged: {clean:#?}");
}

#[test]
fn layering_fires_on_upward_dep_and_clean_passes() {
    let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/layering");

    let report = lint_workspace(&base.join("fire")).expect("lint fire workspace");
    let hits: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "layering")
        .collect();
    assert_eq!(hits.len(), 1, "{:#?}", report.findings);
    assert!(hits[0].message.contains("css-controller"));
    assert!(hits[0].file.ends_with("Cargo.toml"));

    let report = lint_workspace(&base.join("clean")).expect("lint clean workspace");
    assert!(
        report.findings.iter().all(|f| f.rule != "layering"),
        "{:#?}",
        report.findings
    );
}

/// css-monitor sits on layer 3 beside css-health: a production dep on
/// a same-layer sibling must fire, while the lower-layer-only manifest
/// (with the sibling as a dev-dependency) must pass.
#[test]
fn layering_constrains_same_layer_siblings() {
    let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/layering");

    let report = lint_workspace(&base.join("sibling_fire")).expect("lint sibling_fire");
    let hits: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "layering")
        .collect();
    assert_eq!(hits.len(), 1, "{:#?}", report.findings);
    assert!(hits[0].message.contains("css-health"), "{hits:#?}");
    assert!(hits[0].file.contains("monitor"), "{hits:#?}");

    let report = lint_workspace(&base.join("sibling_clean")).expect("lint sibling_clean");
    assert!(
        report.findings.iter().all(|f| f.rule != "layering"),
        "dev-dep on css-health must not fire: {:#?}",
        report.findings
    );
}

#[test]
fn malformed_waiver_is_itself_a_finding() {
    let src = "fn f() {\n    // css-lint: allow(dom-free-read-path)\n    css_xml::parse(x);\n}\n";
    let all = lint_file_source("css-storage", "src/x.rs", FileRole::Production, src);
    assert!(
        all.iter().any(|f| f.rule == "waiver-syntax"),
        "reason-less waiver must be rejected: {all:#?}"
    );
    // And the waiver does NOT suppress the finding it names.
    assert!(all
        .iter()
        .any(|f| f.rule == "dom-free-read-path" && !f.is_waived()));
}

#[test]
fn identity_taint_fires_on_span_metric_and_publish() {
    let hits = fire("css-controller", "identity_taint/fire.rs", "identity-taint");
    assert_eq!(hits.len(), 3, "span + metric + publish: {hits:#?}");
    assert!(hits.iter().all(|f| f.severity == Severity::Error));
    assert!(
        hits[0].message.contains("SpanAttr::actor"),
        "first hit names the span sink: {hits:#?}"
    );
    assert!(
        hits[1].message.contains("metric name"),
        "second hit names the metric sink: {hits:#?}"
    );
    assert!(
        hits[2].message.contains("bus publish"),
        "third hit names the publish sink: {hits:#?}"
    );

    let clean = fire(
        "css-controller",
        "identity_taint/clean.rs",
        "identity-taint",
    );
    assert!(clean.is_empty(), "sanitized flows flagged: {clean:#?}");
}

/// What the one-visit lookups return is identity material like a
/// decrypted notification.
#[test]
fn identity_taint_treats_the_one_visit_lookups_as_sources() {
    let hits = fire(
        "css-controller",
        "identity_taint/one_visit_fire.rs",
        "identity-taint",
    );
    assert_eq!(hits.len(), 2, "metric name + publish: {hits:#?}");
    assert!(hits[0].message.contains("metric name"), "{hits:#?}");
    assert!(hits[1].message.contains("bus publish"), "{hits:#?}");

    let clean = fire(
        "css-controller",
        "identity_taint/one_visit_clean.rs",
        "identity-taint",
    );
    assert!(clean.is_empty(), "sanitized flows flagged: {clean:#?}");
}

/// Whatever reaches `.capture(..)` is frozen into an on-disk incident
/// bundle, so the capture reason is a taint sink like a metric name.
#[test]
fn identity_taint_fires_on_bundle_capture() {
    let hits = fire(
        "css-core",
        "identity_taint/capture_fire.rs",
        "identity-taint",
    );
    assert_eq!(hits.len(), 1, "{hits:#?}");
    assert!(
        hits[0].message.contains("incident bundle capture"),
        "names the capture sink: {hits:#?}"
    );

    let clean = fire(
        "css-core",
        "identity_taint/capture_clean.rs",
        "identity-taint",
    );
    assert!(clean.is_empty(), "sanitized capture flagged: {clean:#?}");
}

/// `HmacKey::mac` is `hmac_sha256` with the key state kept: its result
/// is a keyed tag, its argument is still plaintext.
#[test]
fn identity_taint_treats_the_kept_key_mac_as_a_sanitizer() {
    let clean = fire(
        "css-controller",
        "identity_taint/mac_clean.rs",
        "identity-taint",
    );
    assert!(clean.is_empty(), "keyed tag flagged: {clean:#?}");

    let hits = fire(
        "css-controller",
        "identity_taint/mac_fire.rs",
        "identity-taint",
    );
    assert_eq!(hits.len(), 1, "{hits:#?}");
    assert!(
        hits[0].message.contains("metric name"),
        "names the metric sink: {hits:#?}"
    );
}

#[test]
fn identity_taint_waiver_moves_finding_to_waived() {
    let src = fixture("identity_taint/waived.rs");
    let all = lint_file_source(
        "css-controller",
        "identity_taint/waived.rs",
        FileRole::Production,
        &src,
    );
    let (waived, active): (Vec<_>, Vec<_>) = all.into_iter().partition(|f| f.is_waived());
    assert!(
        active.iter().all(|f| f.rule != "identity-taint"),
        "{active:#?}"
    );
    assert_eq!(waived.len(), 1, "{waived:#?}");
    assert!(waived[0]
        .waive_reason
        .as_deref()
        .unwrap_or("")
        .contains("sealed enclave"));
}

#[test]
fn shard_lock_order_fires_and_clean_passes() {
    let hits = fire(
        "css-controller",
        "shard_lock_order/fire.rs",
        "shard-lock-order",
    );
    assert_eq!(hits.len(), 2, "descending + same-index: {hits:#?}");
    assert!(hits.iter().all(|f| f.severity == Severity::Error));
    assert!(
        hits[0].message.contains("descending") || hits[0].message.contains("order"),
        "{hits:#?}"
    );

    let clean = fire(
        "css-controller",
        "shard_lock_order/clean.rs",
        "shard-lock-order",
    );
    assert!(clean.is_empty(), "allowed shapes flagged: {clean:#?}");
}

#[test]
fn shard_lock_order_waiver_moves_finding_to_waived() {
    let src = fixture("shard_lock_order/waived.rs");
    let all = lint_file_source(
        "css-controller",
        "shard_lock_order/waived.rs",
        FileRole::Production,
        &src,
    );
    let (waived, active): (Vec<_>, Vec<_>) = all.into_iter().partition(|f| f.is_waived());
    assert!(
        active.iter().all(|f| f.rule != "shard-lock-order"),
        "{active:#?}"
    );
    assert_eq!(waived.len(), 1, "{waived:#?}");
    assert!(waived[0]
        .waive_reason
        .as_deref()
        .unwrap_or("")
        .contains("quiesce"));
}

#[test]
fn unchecked_backpressure_fires_and_clean_passes() {
    let hits = fire("css-core", "backpressure/fire.rs", "unchecked-backpressure");
    assert_eq!(hits.len(), 2, "swallowed + unhandled-caller: {hits:#?}");
    assert!(hits.iter().all(|f| f.severity == Severity::Warn));
    assert!(hits.iter().all(|f| f.message.contains("Backpressure")));

    let clean = fire(
        "css-core",
        "backpressure/clean.rs",
        "unchecked-backpressure",
    );
    assert!(
        clean.is_empty(),
        "handled/boundary filings flagged: {clean:#?}"
    );
}

#[test]
fn unchecked_backpressure_waiver_moves_finding_to_waived() {
    let src = fixture("backpressure/waived.rs");
    let all = lint_file_source(
        "css-core",
        "backpressure/waived.rs",
        FileRole::Production,
        &src,
    );
    let (waived, active): (Vec<_>, Vec<_>) = all.into_iter().partition(|f| f.is_waived());
    assert!(
        active.iter().all(|f| f.rule != "unchecked-backpressure"),
        "{active:#?}"
    );
    assert_eq!(waived.len(), 1, "{waived:#?}");
    assert!(waived[0]
        .waive_reason
        .as_deref()
        .unwrap_or("")
        .contains("telemetry"));
}

#[test]
fn audit_before_release_is_call_graph_transitive() {
    let hits = fire(
        "css-controller",
        "audit_release/transitive.rs",
        "audit-before-release",
    );
    assert_eq!(hits.len(), 1, "only the unaudited chain fires: {hits:#?}");
    assert!(
        hits[0].message.contains("hand_off"),
        "fires on the unaudited fn, not the audited one: {hits:#?}"
    );
}

#[test]
fn new_rule_fire_fixtures_are_exempt_in_test_role() {
    for (krate, name) in [
        ("css-controller", "identity_taint/fire.rs"),
        ("css-controller", "shard_lock_order/fire.rs"),
        ("css-core", "backpressure/fire.rs"),
        ("css-controller", "audit_release/transitive.rs"),
    ] {
        let src = fixture(name);
        let hits = lint_file_source(krate, name, FileRole::Test, &src);
        assert!(hits.is_empty(), "{name} fired with Test role: {hits:#?}");
    }
}
