//! The paper-derived invariant rules.
//!
//! Each rule is a named check; every finding it reports is an error.
//! File-scoped rules see one [`SourceFile`] at a time; the layering
//! rule sees the parsed manifests of the whole workspace. See
//! `DESIGN.md` §9 for the mapping from each rule to the paper mechanism
//! it encodes.

use crate::diag::Finding;
use crate::flow;
use crate::manifest::Manifest;
use crate::source::{matching_brace, SourceFile};

/// A named invariant check.
pub trait Rule {
    fn id(&self) -> &'static str;
    /// Check one source file (no-op for workspace rules).
    fn check_file(&self, _file: &SourceFile, _out: &mut Vec<Finding>) {}
    /// Check the workspace dependency graph (no-op for file rules).
    fn check_workspace(&self, _manifests: &[Manifest], _out: &mut Vec<Finding>) {}
}

/// Every shipped rule, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(DetailConfinement),
        Box::new(IdentityTaint),
        Box::new(DomFreeReadPath),
        Box::new(Layering),
    ]
}

fn finding(rule: &'static str, file: &SourceFile, tok: usize, message: String) -> Finding {
    Finding {
        rule,
        crate_name: file.crate_name.clone(),
        file: file.path.clone(),
        line: file.tokens.get(tok).map(|t| t.line).unwrap_or(0),
        message,
    }
}

// ---------------------------------------------------------------------------
// Rule 1: detail-confinement
// ---------------------------------------------------------------------------

/// Detail payloads never leave the producer's gateway until an
/// authorized request arrives (the paper's core architectural claim),
/// so the types that carry them must be unnameable in the event-sharing
/// middle layers — controller, bus, registry — and in the ops plane
/// (health), whose endpoints expose state to external scrapers.
pub struct DetailConfinement;

/// Types that hold unfiltered detail payloads. The gateway's store is
/// not listed: it is private to css-gateway, so rustc refuses it in
/// every other crate (`css_controller::gateway_client`'s doctest).
const CONFINED_TYPES: &[&str] = &["DetailMessage"];
/// Crates that must never name them outside tests. The ops plane
/// (`css-health`) is confined too: an exposition endpoint, an incident
/// bundle or a history ring that could name a detail payload could
/// leak it to any scraper.
const CONFINED_CRATES: &[&str] = &["css-controller", "css-bus", "css-registry", "css-health"];

impl Rule for DetailConfinement {
    fn id(&self) -> &'static str {
        "detail-confinement"
    }
    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !CONFINED_CRATES.contains(&file.crate_name.as_str()) {
            return;
        }
        for (i, tok) in file.tokens.iter().enumerate() {
            if !file.is_prod(i) {
                continue;
            }
            if CONFINED_TYPES.iter().any(|t| tok.is_ident(t)) {
                out.push(finding(
                    self.id(),
                    file,
                    i,
                    format!(
                        "detail-payload type `{}` named in `{}`: details must stay \
                         behind the producer gateway (only the filtered \
                         `getResponse` interface may cross)",
                        tok.text, file.crate_name
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 2: identity-taint
// ---------------------------------------------------------------------------

/// Detail confinement bans the *types*; this bans the *values*: an
/// identity-derived expression (fiscal code, person name fields,
/// decrypted notification material) must never flow into the trace,
/// metrics, broker, or ops planes — the brokers-can't-read-identities
/// guarantee the confidentiality-preserving pub/sub literature demands.
/// The dataflow engine lives in [`crate::flow`].
pub struct IdentityTaint;

impl Rule for IdentityTaint {
    fn id(&self) -> &'static str {
        "identity-taint"
    }
    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        for body in &file.fns {
            flow::check_fn(file, body, self.id(), out);
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3: dom-free-read-path
// ---------------------------------------------------------------------------

/// The audit log and the events index are decoded from the token stream
/// (`css_xml::Stored`, over the text or the binary form of a payload),
/// one decoder per stored type; the gateway's detail records are
/// decoded directly (`css_event::StoredDetail`, which hands the XML
/// documents stored before them to the token decoder): nothing on the
/// request or replay path builds an `Element` tree it would only walk
/// once and drop — and nothing outside the allowed field set is
/// materialised on the way out of the gateway. `css_xml::parse` stays
/// for the paper-facing documents read at open (`css-policy`'s XACML
/// repository); in the crates below it may appear in
/// tests only, so the carve-out cannot grow back unnoticed.
pub struct DomFreeReadPath;

/// Crates whose production code reads at-rest records.
const DOM_FREE_CRATES: &[&str] = &["css-gateway", "css-audit", "css-controller", "css-storage"];

impl Rule for DomFreeReadPath {
    fn id(&self) -> &'static str {
        "dom-free-read-path"
    }
    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !DOM_FREE_CRATES.contains(&file.crate_name.as_str()) {
            return;
        }
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if !(file.is_prod(i) && toks[i].is_ident("css_xml") && file.puncts(i + 1, "::")) {
                continue;
            }
            // What the path rooted here names: every identifier of a
            // `{ .. }` import group, or the segments of a plain path.
            let mut j = i + 3;
            let end = if toks.get(j).is_some_and(|t| t.is_punct('{')) {
                matching_brace(toks, j)
            } else {
                while file.ident(j).is_some() && file.puncts(j + 1, "::") {
                    j += 3;
                }
                j
            };
            for (k, tok) in toks.iter().enumerate().take(end + 1).skip(i + 3) {
                if tok.is_ident("parse") {
                    out.push(finding(
                        self.id(),
                        file,
                        k,
                        format!(
                            "`css_xml::parse` in production code of `{}`: stored records \
                             are decoded from `css_xml::Reader` tokens (one decoder per \
                             type), no tree is built on the read path",
                            file.crate_name
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: layering
// ---------------------------------------------------------------------------

/// The crate DAG is the privacy architecture: types at the bottom,
/// enforcement in the middle, assembly on top. An upward dependency
/// (say, css-bus pulling in css-gateway) would let detail payloads leak
/// into the shared event plane by construction.
pub struct Layering;

/// Crate → layer. A dependency must live on a *strictly lower* layer.
const LAYERS: &[(&str, u8)] = &[
    ("css-types", 0),
    ("css-xml", 1),
    ("css-crypto", 1),
    ("css-telemetry", 1),
    ("css-trace", 2),
    ("css-storage", 2),
    ("css-event", 2),
    ("css-policy", 3),
    ("css-bus", 3),
    ("css-registry", 3),
    ("css-audit", 3),
    ("css-gateway", 3),
    ("css-monitor", 3),
    ("css-health", 3),
    ("css-controller", 4),
    ("css-core", 5),
    ("css-sim", 6),
    ("css-lint", 6),
    ("css", 7),
];

/// Offline stand-ins for external crates: allowed everywhere, must
/// themselves depend on nothing.
const COMPAT_SHIMS: &[&str] = &["rand", "proptest", "parking_lot"];

fn layer_of(name: &str) -> Option<u8> {
    LAYERS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, l)| *l)
        .or_else(|| COMPAT_SHIMS.contains(&name).then_some(0))
}

impl Rule for Layering {
    fn id(&self) -> &'static str {
        "layering"
    }
    fn check_workspace(&self, manifests: &[Manifest], out: &mut Vec<Finding>) {
        let mut report = |m: &Manifest, message: String| {
            out.push(Finding {
                rule: self.id(),
                crate_name: m.name.clone(),
                file: format!("{}/Cargo.toml", m.dir),
                line: 0,
                message,
            });
        };
        let member_names: Vec<&str> = manifests.iter().map(|m| m.name.as_str()).collect();
        for m in manifests {
            if m.name.is_empty() {
                continue; // virtual manifest
            }
            if COMPAT_SHIMS.contains(&m.name.as_str()) {
                // Shims stand in for external crates: they may lean on
                // each other (proptest uses the rand shim) but must
                // never reach into the platform.
                for dep in m.deps.iter().chain(m.dev_deps.iter()) {
                    if !COMPAT_SHIMS.contains(&dep.as_str()) {
                        report(
                            m,
                            format!(
                                "compat shim `{}` must not depend on platform crates, found `{dep}`",
                                m.name
                            ),
                        );
                    }
                }
                continue;
            }
            let Some(own_layer) = layer_of(&m.name) else {
                report(
                    m,
                    format!(
                        "crate `{}` is not in the layer map: assign it a layer in \
                         css-lint's layering rule before depending on it",
                        m.name
                    ),
                );
                continue;
            };
            // Only `[dependencies]` constrain the layering; dev-deps may
            // reach across for tests (they cannot create runtime cycles).
            for dep in &m.deps {
                if !member_names.contains(&dep.as_str()) {
                    continue; // external (none exist offline, but be safe)
                }
                let Some(dep_layer) = layer_of(dep) else {
                    continue; // reported on the dep's own manifest
                };
                if COMPAT_SHIMS.contains(&dep.as_str()) {
                    continue; // shims are allowed everywhere
                }
                if dep_layer >= own_layer {
                    report(
                        m,
                        format!(
                            "`{}` (layer {}) depends on `{}` (layer {}): dependencies \
                             must point strictly down the stack",
                            m.name, own_layer, dep, dep_layer
                        ),
                    );
                }
            }
            // The named paper constraint, spelled out even though the
            // layer map implies it: the controller (PEP/PDP plane) must
            // not depend on assembly or simulation.
            if m.name == "css-controller" {
                for dep in m.deps.iter().chain(m.dev_deps.iter()) {
                    if dep == "css-core" || dep == "css-sim" {
                        report(m, format!("css-controller must never depend on `{dep}`"));
                    }
                }
            }
        }
    }
}
