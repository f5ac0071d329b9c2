//! Every rule must demonstrably fire on its checked-in `fire` fixture
//! and stay silent on its `clean` twin. The fixtures live under
//! `tests/fixtures/` (cargo does not compile them; the lint reads them
//! as text), each linted as if it were production code of the crate
//! the rule targets.

use std::path::Path;

use css_lint::{lint_file_source, lint_workspace, FileRole, Finding};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lint a fixture as production code of `crate_name`; return the
/// findings of `rule` only.
fn fire(crate_name: &str, name: &str, rule: &str) -> Vec<Finding> {
    let src = fixture(name);
    lint_file_source(crate_name, name, FileRole::Production, &src)
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

/// Lint a fixture holding an `allow` comment and return its one
/// finding: the comment is an ordinary comment, so the finding under it
/// is reported like any other, and nothing else is.
fn only_finding(crate_name: &str, name: &str) -> Finding {
    let src = fixture(name);
    let all = lint_file_source(crate_name, name, FileRole::Production, &src);
    assert_eq!(all.len(), 1, "{all:#?}");
    all.into_iter().next().expect("one finding")
}

#[test]
fn detail_confinement_fires_and_clean_passes() {
    let hits = fire(
        "css-bus",
        "detail_confinement/fire.rs",
        "detail-confinement",
    );
    // `DetailStore` is not a token rule: rustc refuses it outside
    // css-gateway (`css_controller::gateway_client`'s doctest).
    assert_eq!(hits.len(), 1, "DetailMessage only: {hits:#?}");
    assert!(hits[0].message.contains("DetailMessage"));

    let clean = fire(
        "css-bus",
        "detail_confinement/clean.rs",
        "detail-confinement",
    );
    assert!(clean.is_empty(), "clean fixture fired: {clean:#?}");
}

/// The broker stays payload-blind: a `Bus<DetailMessage>` would queue,
/// redeliver and dead-letter unfiltered person data, so naming one
/// inside css-bus is an error.
#[test]
fn detail_confinement_covers_a_bus_of_details() {
    let hits = fire(
        "css-bus",
        "detail_confinement/driver_fire.rs",
        "detail-confinement",
    );
    assert_eq!(hits.len(), 2, "field type + signature: {hits:#?}");
    assert_eq!(hits[0].line, 9, "{hits:#?}");
    assert_eq!(hits[1].line, 13, "{hits:#?}");
    assert!(hits.iter().all(|f| f.message.contains("DetailMessage")));

    // The same shape is fine in a crate outside the confinement
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
    assert_eq!(hits.len(), 1, "DetailMessage only: {hits:#?}");

    let clean = fire(
        "css-health",
        "detail_confinement/clean.rs",
        "detail-confinement",
    );
    assert!(clean.is_empty(), "clean fixture fired: {clean:#?}");
}

#[test]
fn detail_confinement_allow_comment_suppresses_nothing() {
    let hit = only_finding("css-health", "detail_confinement/health_waived.rs");
    assert_eq!((hit.rule, hit.line), ("detail-confinement", 7), "{hit:#?}");
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
fn dom_free_read_path_fires_and_clean_passes() {
    for krate in ["css-audit", "css-gateway", "css-controller", "css-storage"] {
        let hits = fire(krate, "dom_free/fire.rs", "dom-free-read-path");
        assert_eq!(hits.len(), 2, "import group + path call: {hits:#?}");
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
fn dom_free_allow_comment_suppresses_nothing() {
    let hit = only_finding("css-storage", "dom_free/waived.rs");
    assert_eq!((hit.rule, hit.line), ("dom-free-read-path", 7), "{hit:#?}");
}

#[test]
fn test_role_files_are_exempt_from_file_rules() {
    // The fire fixtures themselves, read with their real role (Test),
    // must produce nothing — this is what keeps the self-check clean.
    for (krate, name) in [
        ("css-bus", "detail_confinement/fire.rs"),
        ("css-storage", "dom_free/fire.rs"),
    ] {
        let src = fixture(name);
        let hits = lint_file_source(krate, name, FileRole::Test, &src);
        assert!(hits.is_empty(), "{name} fired with Test role: {hits:#?}");
    }
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

/// Without a reason the comment is no different: no finding of its
/// own, and the one under it stands.
#[test]
fn malformed_allow_comment_is_an_ordinary_comment() {
    let src = "fn f() {\n    // css-lint: allow(dom-free-read-path)\n    css_xml::parse(x);\n}\n";
    let all = lint_file_source("css-storage", "src/x.rs", FileRole::Production, src);
    assert_eq!(all.len(), 1, "{all:#?}");
    assert_eq!((all[0].rule, all[0].line), ("dom-free-read-path", 3));
}

#[test]
fn identity_taint_fires_on_span_metric_and_publish() {
    let hits = fire("css-controller", "identity_taint/fire.rs", "identity-taint");
    assert_eq!(hits.len(), 3, "span + metric + publish: {hits:#?}");
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
fn identity_taint_covers_the_bytes_of_an_at_rest_record() {
    let clean = fire(
        "css-controller",
        "identity_taint/at_rest_clean.rs",
        "identity-taint",
    );
    assert!(clean.is_empty(), "sealed bytes flagged: {clean:#?}");

    let hits = fire(
        "css-controller",
        "identity_taint/at_rest_fire.rs",
        "identity-taint",
    );
    assert_eq!(hits.len(), 1, "{hits:#?}");
    assert!(
        hits[0].message.contains("at-rest record bytes"),
        "names the at-rest sink: {hits:#?}"
    );
}

#[test]
fn identity_taint_allow_comment_suppresses_nothing() {
    let hit = only_finding("css-controller", "identity_taint/waived.rs");
    assert_eq!((hit.rule, hit.line), ("identity-taint", 8), "{hit:#?}");
}

#[test]
fn new_rule_fire_fixtures_are_exempt_in_test_role() {
    for (krate, name) in [
        ("css-controller", "identity_taint/fire.rs"),
        ("css-controller", "identity_taint/one_visit_fire.rs"),
        ("css-core", "identity_taint/capture_fire.rs"),
        ("css-controller", "identity_taint/mac_fire.rs"),
        ("css-controller", "identity_taint/at_rest_fire.rs"),
    ] {
        let src = fixture(name);
        let hits = lint_file_source(krate, name, FileRole::Test, &src);
        assert!(hits.is_empty(), "{name} fired with Test role: {hits:#?}");
    }
}
