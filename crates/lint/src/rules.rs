//! The paper-derived invariant rules.
//!
//! Each rule is a named check with a fixed severity. File-scoped rules
//! see one [`SourceFile`] at a time; the layering rule sees the parsed
//! manifests of the whole workspace. See `DESIGN.md` §9 for the mapping
//! from each rule to the paper mechanism it encodes.

use crate::callgraph::{Project, FILING_CALLS, RELEASE_CALLS};
use crate::diag::{Finding, Severity};
use crate::manifest::Manifest;
use crate::source::{matching_brace, FnBody, SourceFile};
use crate::{flow, locks};

/// A named invariant check.
pub trait Rule {
    fn id(&self) -> &'static str;
    fn severity(&self) -> Severity;
    /// One-line description for `--list-rules` and the JSON report.
    fn description(&self) -> &'static str;
    /// Check one source file (no-op for project/workspace rules).
    fn check_file(&self, _file: &SourceFile, _out: &mut Vec<Finding>) {}
    /// Check the summarized project (call-graph scope; no-op for file
    /// rules). Runs over [`FnSummary`](crate::callgraph::FnSummary)
    /// facts, not over source.
    fn check_project(&self, _project: &Project, _out: &mut Vec<Finding>) {}
    /// Check the workspace dependency graph (no-op for file rules).
    fn check_workspace(&self, _manifests: &[Manifest], _out: &mut Vec<Finding>) {}
}

/// Every shipped rule, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(DetailConfinement),
        Box::new(AuditBeforeRelease),
        Box::new(IdentityTaint),
        Box::new(LockAcrossIo),
        Box::new(ShardLockOrder),
        Box::new(UncheckedBackpressure),
        Box::new(DomFreeReadPath),
        Box::new(Layering),
    ]
}

fn finding(
    rule: &'static str,
    severity: Severity,
    file: &SourceFile,
    tok: usize,
    message: String,
) -> Finding {
    Finding {
        rule,
        severity,
        crate_name: file.crate_name.clone(),
        file: file.path.clone(),
        line: file.tokens.get(tok).map(|t| t.line).unwrap_or(0),
        message,
        waive_reason: None,
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

/// Types that hold unfiltered detail payloads at rest.
const CONFINED_TYPES: &[&str] = &["DetailMessage", "DetailStore"];
/// Crates that must never name them outside tests. The ops plane
/// (`css-health`) is confined too: an exposition endpoint, an incident
/// bundle or a history ring that could name a detail payload could
/// leak it to any scraper.
const CONFINED_CRATES: &[&str] = &["css-controller", "css-bus", "css-registry", "css-health"];

impl Rule for DetailConfinement {
    fn id(&self) -> &'static str {
        "detail-confinement"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "detail-payload types must not appear in controller/bus/registry/health non-test code"
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
                    self.severity(),
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
// Rule 2: audit-before-release
// ---------------------------------------------------------------------------

/// The Privacy Requirements Analysis requires every release to be
/// traceable: any function that rebuilds an identity-bearing
/// notification or pulls filtered details from a gateway must also
/// append an audit record — in its own body or (v2, call-graph
/// transitive) in a same-crate helper it calls, so refactoring the
/// append into `log_release()` cannot silently lose the obligation.
pub struct AuditBeforeRelease;

/// Crates where releases happen and the audit obligation applies.
const RELEASE_CRATES: &[&str] = &["css-controller", "css-gateway"];

impl Rule for AuditBeforeRelease {
    fn id(&self) -> &'static str {
        "audit-before-release"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "functions releasing notification identities (decrypt, the one-visit detail lookup, a subject's profile) or gateway details must append an audit record (directly or via a same-crate callee)"
    }
    fn check_project(&self, project: &Project, out: &mut Vec<Finding>) {
        for (fi, file) in project.files.iter().enumerate() {
            if !RELEASE_CRATES.contains(&file.crate_name.as_str()) {
                continue;
            }
            for (gi, f) in file.fns.iter().enumerate() {
                // A forwarding impl or the defining method itself (e.g.
                // a `get_response` trait impl delegating inward) is the
                // narrow interface, not a release site.
                if !f.is_prod
                    || RELEASE_CALLS.contains(&f.name.as_str())
                    || f.release_calls.is_empty()
                {
                    continue;
                }
                if project.appends_audit_transitively((fi, gi)) {
                    continue;
                }
                let site = &f.release_calls[0];
                out.push(Finding {
                    rule: self.id(),
                    severity: self.severity(),
                    crate_name: file.crate_name.clone(),
                    file: file.path.clone(),
                    line: site.line,
                    message: format!(
                        "fn `{}` calls `.{}(..)` but neither it nor any same-crate \
                         callee appends an audit record: every release must be \
                         traceable (PRA)",
                        f.name, site.callee
                    ),
                    waive_reason: None,
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3: identity-taint
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
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "identity-derived values (fields, decrypted notifications, the one-visit detail lookup) must not reach span attrs, metric names, bus publishes, or ops responses"
    }
    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        for body in &file.fns {
            flow::check_fn(file, body, self.id(), out);
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: lock-across-io
// ---------------------------------------------------------------------------

/// Holding a `parking_lot` guard across a storage-backend write stalls
/// every thread contending that lock for the duration of the disk
/// round-trip. Writes to the guarded resource itself are the point of
/// the lock and stay allowed; flagged is a guard on X held while
/// writing through some *other* path Y.
pub struct LockAcrossIo;

const GUARD_CALLS: &[&str] = &["lock", "read", "write"];
const IO_CALLS: &[&str] = &[
    "append",
    "append_batch",
    "persist",
    "put",
    "put_batch",
    "save",
    "save_all",
    "sync",
    "flush",
    "write_all",
];

impl Rule for LockAcrossIo {
    fn id(&self) -> &'static str {
        "lock-across-io"
    }
    fn severity(&self) -> Severity {
        Severity::Warn
    }
    fn description(&self) -> &'static str {
        "a held lock guard should not span a storage write on an unrelated path"
    }
    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        for body in &file.fns {
            if !file.is_prod(body.open) {
                continue;
            }
            check_lock_across_io(self, file, body, out);
        }
    }
}

struct ActiveGuard {
    name: String,
    depth: usize,
    line: u32,
}

fn check_lock_across_io(
    rule: &LockAcrossIo,
    file: &SourceFile,
    body: &FnBody,
    out: &mut Vec<Finding>,
) {
    let toks = &file.tokens;
    let mut guards: Vec<ActiveGuard> = Vec::new();
    let mut depth = 0usize;
    let mut i = body.open;
    while i <= body.close {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            guards.retain(|g| g.depth <= depth);
        } else if t.is_ident("let") {
            // `let [mut] NAME = ... .lock();` — a guard iff the statement
            // *ends* with a guard-taking call (a temporary like
            // `repo.lock().load_all()?` is dropped at the `;`).
            let mut n = i + 1;
            if toks.get(n).is_some_and(|t| t.is_ident("mut")) {
                n += 1;
            }
            if let Some(name) = file.ident(n) {
                // Find the end of the statement at paren depth 0.
                let mut paren = 0isize;
                let mut j = n + 1;
                while j <= body.close {
                    let tj = &toks[j];
                    if tj.is_punct('(') {
                        paren += 1;
                    } else if tj.is_punct(')') {
                        paren -= 1;
                    } else if tj.is_punct(';') && paren <= 0 {
                        break;
                    } else if tj.is_punct('{') && paren == 0 {
                        // A block expression initializer; too clever to
                        // track — skip this statement.
                        j = matching_brace(toks, j);
                    }
                    j += 1;
                }
                // Statement tail: `.` GUARD `(` `)` `;`
                if j >= 4
                    && toks.get(j).is_some_and(|t| t.is_punct(';'))
                    && file.puncts(j - 2, "()")
                    && toks
                        .get(j - 3)
                        .is_some_and(|t| GUARD_CALLS.iter().any(|g| t.is_ident(g)))
                    && toks.get(j - 4).is_some_and(|t| t.is_punct('.'))
                {
                    guards.push(ActiveGuard {
                        name: name.to_string(),
                        depth,
                        line: t.line,
                    });
                }
                i = j;
                continue;
            }
        } else if t.is_ident("drop") && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            if let Some(name) = file.ident(i + 2) {
                if toks.get(i + 3).is_some_and(|t| t.is_punct(')')) {
                    guards.retain(|g| g.name != name);
                }
            }
        } else if !guards.is_empty()
            && t.is_punct('.')
            && toks
                .get(i + 1)
                .is_some_and(|t| IO_CALLS.iter().any(|c| t.is_ident(c)))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            && file.is_prod(i)
        {
            // Receiver chain root: walk back over `ident . ident ...`.
            let root = chain_root(file, i);
            let through_guard = root
                .as_deref()
                .is_some_and(|r| guards.iter().any(|g| g.name == r));
            if !through_guard {
                let guard = &guards[guards.len() - 1];
                out.push(finding(
                    rule.id(),
                    rule.severity(),
                    file,
                    i + 1,
                    format!(
                        "storage write `.{}(..)` while lock guard `{}` (taken line {}) is held: \
                         move the write out of the critical section or write through the guard",
                        file.ident(i + 1).unwrap_or("?"),
                        guard.name,
                        guard.line
                    ),
                ));
            }
        }
        i += 1;
    }
}

/// The root identifier of a method-call chain ending at the `.` token
/// `dot` (e.g. `self.audit.append(` → `self`; `markers.flush(` →
/// `markers`). `None` when the chain starts with a call or index result.
fn chain_root(file: &SourceFile, dot: usize) -> Option<String> {
    let toks = &file.tokens;
    let mut i = dot;
    loop {
        // Expect ident before the dot.
        let prev = i.checked_sub(1)?;
        let name = file.ident(prev)?;
        if prev == 0 {
            return Some(name.to_string());
        }
        if toks[prev - 1].is_punct('.') {
            i = prev - 1;
            continue;
        }
        return Some(name.to_string());
    }
}

// ---------------------------------------------------------------------------
// Rule 5: shard-lock-order
// ---------------------------------------------------------------------------

/// The sharded data plane (PR 7) is deadlock-free because every
/// cross-shard path acquires one guard at a time or walks indices in
/// ascending order. This rule pins that argument mechanically; the
/// acquisition tracker lives in [`crate::locks`].
pub struct ShardLockOrder;

impl Rule for ShardLockOrder {
    fn id(&self) -> &'static str {
        "shard-lock-order"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "a held shard guard must not acquire another shard's lock except in ascending index order"
    }
    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        for body in &file.fns {
            locks::check_fn(file, body, self.id(), out);
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 6: unchecked-backpressure
// ---------------------------------------------------------------------------

/// The pending-access queue is bounded (PR 7): `PendingQueue::file` and
/// its `request_access` forwarders return `CssError::Backpressure` at
/// the high-water mark. A production caller that neither matches that
/// variant nor propagates to a caller that does silently drops the
/// queue-full signal — the backlog becomes invisible exactly when it
/// matters. Boundary APIs (the filing call propagated outward, with no
/// production caller yet) are exempt: their obligation transfers to
/// whoever calls them.
pub struct UncheckedBackpressure;

impl Rule for UncheckedBackpressure {
    fn id(&self) -> &'static str {
        "unchecked-backpressure"
    }
    fn severity(&self) -> Severity {
        Severity::Warn
    }
    fn description(&self) -> &'static str {
        "pending-queue filings must handle or propagate `CssError::Backpressure`"
    }
    fn check_project(&self, project: &Project, out: &mut Vec<Finding>) {
        for file in &project.files {
            for f in &file.fns {
                if !f.is_prod
                    || FILING_CALLS.contains(&f.name.as_str())
                    || f.filing_calls.is_empty()
                    || f.mentions_backpressure
                    || project.any_transitive_caller(&f.name, |c| c.mentions_backpressure)
                {
                    continue;
                }
                for site in &f.filing_calls {
                    if site.propagated && !project.has_prod_caller(&f.name) {
                        continue; // boundary API: the obligation transfers
                    }
                    out.push(Finding {
                        rule: self.id(),
                        severity: self.severity(),
                        crate_name: file.crate_name.clone(),
                        file: file.path.clone(),
                        line: site.line,
                        message: format!(
                            "fn `{}` files into the bounded pending queue via `.{}(..)` \
                             but neither it nor any production caller matches \
                             `CssError::Backpressure`: handle queue-full or propagate \
                             it to a caller that does",
                            f.name, site.callee
                        ),
                        waive_reason: None,
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 7: dom-free-read-path
// ---------------------------------------------------------------------------

/// The at-rest logs are decoded from the token stream
/// (`css_xml::Reader`), one decoder per stored type: nothing on the
/// request or replay path builds an `Element` tree it would only walk
/// once and drop — and nothing outside the allowed field set is
/// materialised on the way out of the gateway. `css_xml::parse` stays
/// for the paper-facing documents read at open (`css-policy`'s XACML
/// repository, `css-registry`); in the crates below it may appear in
/// tests only, so the carve-out cannot grow back unnoticed.
pub struct DomFreeReadPath;

/// Crates whose production code reads at-rest records.
const DOM_FREE_CRATES: &[&str] = &["css-gateway", "css-audit", "css-controller", "css-storage"];

impl Rule for DomFreeReadPath {
    fn id(&self) -> &'static str {
        "dom-free-read-path"
    }
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "gateway/audit/controller/storage production code decodes stored records from `css_xml::Reader` tokens, never via `css_xml::parse`"
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
                        self.severity(),
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
// Rule 8: layering
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
    fn severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        "crate dependencies must point strictly down the layer stack; compat shims depend on nothing"
    }
    fn check_workspace(&self, manifests: &[Manifest], out: &mut Vec<Finding>) {
        let mut report = |m: &Manifest, message: String| {
            out.push(Finding {
                rule: self.id(),
                severity: self.severity(),
                crate_name: m.name.clone(),
                file: format!("{}/Cargo.toml", m.dir),
                line: 0,
                message,
                waive_reason: None,
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
