//! Workspace-wide function resolution and transitive-caller queries.
//!
//! The scanner stays token-level, so the "call graph" is name-based:
//! each function body is distilled into a [`FnSummary`] (who it calls,
//! whether it appends to the audit trail, whether it matches
//! `CssError::Backpressure`, where it releases identities or files into
//! the bounded pending queue), and [`Project`] indexes those summaries
//! by name across every scanned file. Name resolution is deliberately
//! conservative: a call edge `f -> g` exists when `f`'s body contains
//! `g(` or `.g(` and *some* workspace fn is named `g`. Rules that walk
//! the graph restrict resolution further (e.g. same-crate only for the
//! audit obligation) to keep false edges from absolving a violation.
//!
//! Summaries are cheap and order-stable: project-scoped rules run over
//! them, not over source.

use std::collections::HashMap;

use crate::diag::Finding;
use crate::scanner::TokenKind;
use crate::source::{matching_paren, FnBody, SourceFile};
use crate::waiver::Waiver;

/// Calls that constitute a release of protected data (shared with the
/// audit-before-release rule).
pub const RELEASE_CALLS: &[&str] = &[
    "decrypt_notification",
    "resolve_detail_request",
    "notifications_of_person",
    "get_response",
];

/// Calls that file into the bounded pending-access queue.
pub const FILING_CALLS: &[&str] = &["file", "request_access"];

/// Keywords that look like calls when followed by `(` but are not.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "fn", "in", "move", "as", "let",
];

/// One interesting call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The called method/function name.
    pub callee: String,
    /// 1-based source line of the call.
    pub line: u32,
    /// Whether the call's result is propagated outward (`?`, tail
    /// expression, or an explicit `return`), i.e. the caller forwards
    /// the error instead of swallowing it.
    pub propagated: bool,
}

/// The distilled facts about one function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSummary {
    pub name: String,
    /// 1-based line of the body's opening brace.
    pub line: u32,
    /// Whether the body is production code (role + `#[cfg(test)]`).
    pub is_prod: bool,
    /// Names this body calls (`g(` or `.g(`), deduplicated, in order.
    pub calls: Vec<String>,
    /// Body mentions an `audit`-ish identifier *and* an `.append(..)` /
    /// `.append_batch(..)` call — the textual audit-append heuristic.
    pub appends_audit: bool,
    /// Body names `Backpressure` (a match arm or construction).
    pub mentions_backpressure: bool,
    /// Release-call sites (`.decrypt_notification(` etc.).
    pub release_calls: Vec<CallSite>,
    /// Pending-queue filing sites (`.file(` / `.request_access(`).
    pub filing_calls: Vec<CallSite>,
}

/// Everything the engine keeps per file: the file-scoped findings
/// (waivers *not* yet applied), the waivers themselves, and the fn
/// summaries project rules run over.
#[derive(Debug, Clone)]
pub struct FileFacts {
    pub crate_name: String,
    /// Path relative to the workspace root.
    pub path: String,
    /// File-scoped findings, unwaived (waivers apply at assembly time).
    pub findings: Vec<Finding>,
    pub waivers: Vec<Waiver>,
    pub fns: Vec<FnSummary>,
    /// Production lines and public items ([`SourceFile::prod_size`]).
    pub prod_lines: usize,
    pub pub_items: usize,
}

/// Distill every fn body of a parsed file into summaries.
pub fn extract_fn_summaries(file: &SourceFile) -> Vec<FnSummary> {
    file.fns.iter().map(|b| summarize_fn(file, b)).collect()
}

fn summarize_fn(file: &SourceFile, body: &FnBody) -> FnSummary {
    let toks = &file.tokens;
    let mut calls: Vec<String> = Vec::new();
    let mut appends = false;
    let mut audit_ident = false;
    let mut backpressure = false;
    let mut release_calls = Vec::new();
    let mut filing_calls = Vec::new();

    for i in body.open..body.close {
        let t = &toks[i];
        if t.kind == TokenKind::Ident {
            if t.text.contains("audit") {
                audit_ident = true;
            }
            if t.text == "Backpressure" {
                backpressure = true;
            }
            // A call: ident directly followed by `(` (macro bangs like
            // `format!(` have a `!` in between and are excluded).
            if toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
            {
                if !calls.iter().any(|c| c == &t.text) {
                    calls.push(t.text.clone());
                }
                let dotted = i > 0 && toks[i - 1].is_punct('.');
                if dotted && (t.is_ident("append") || t.is_ident("append_batch")) {
                    appends = true;
                }
                if dotted && RELEASE_CALLS.contains(&t.text.as_str()) && file.is_prod(i) {
                    release_calls.push(CallSite {
                        callee: t.text.clone(),
                        line: t.line,
                        propagated: call_propagates(file, body, i),
                    });
                }
                if dotted && FILING_CALLS.contains(&t.text.as_str()) && file.is_prod(i) {
                    filing_calls.push(CallSite {
                        callee: t.text.clone(),
                        line: t.line,
                        propagated: call_propagates(file, body, i),
                    });
                }
            }
        }
    }

    FnSummary {
        name: body.name.clone(),
        line: toks.get(body.open).map(|t| t.line).unwrap_or(0),
        is_prod: file.is_prod(body.open),
        calls,
        appends_audit: audit_ident && appends,
        mentions_backpressure: backpressure,
        release_calls,
        filing_calls,
    }
}

/// Whether the call whose name token is at `name_idx` propagates its
/// result outward: followed by `?`, in tail position (`}` directly after
/// the closing paren), or in a `return` statement.
fn call_propagates(file: &SourceFile, body: &FnBody, name_idx: usize) -> bool {
    let toks = &file.tokens;
    let Some(open) = toks
        .get(name_idx + 1)
        .filter(|t| t.is_punct('('))
        .map(|_| name_idx + 1)
    else {
        return false;
    };
    let close = matching_paren(toks, open);
    match toks.get(close + 1) {
        Some(t) if t.is_punct('?') => return true,
        Some(t) if t.is_punct('}') => return true,
        _ => {}
    }
    // Walk back to the start of the statement; `return` there counts.
    let mut k = name_idx;
    while k > body.open {
        let t = &toks[k - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        if t.is_ident("return") {
            return true;
        }
        k -= 1;
    }
    false
}

/// A key into [`Project::files`] → `fns`: (file index, fn index).
pub type FnKey = (usize, usize);

/// The whole workspace, summarized: every file's facts plus name
/// indices for definition lookup and reverse (caller) edges.
pub struct Project {
    pub files: Vec<FileFacts>,
    defs: HashMap<String, Vec<FnKey>>,
    callers: HashMap<String, Vec<FnKey>>,
}

impl Project {
    pub fn new(files: Vec<FileFacts>) -> Project {
        let mut defs: HashMap<String, Vec<FnKey>> = HashMap::new();
        let mut callers: HashMap<String, Vec<FnKey>> = HashMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                defs.entry(f.name.clone()).or_default().push((fi, gi));
                for callee in &f.calls {
                    callers.entry(callee.clone()).or_default().push((fi, gi));
                }
            }
        }
        Project {
            files,
            defs,
            callers,
        }
    }

    pub fn fn_at(&self, key: FnKey) -> &FnSummary {
        &self.files[key.0].fns[key.1]
    }

    pub fn file_of(&self, key: FnKey) -> &FileFacts {
        &self.files[key.0]
    }

    /// Workspace fns named `name`.
    pub fn defs(&self, name: &str) -> &[FnKey] {
        self.defs.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Fns whose body contains a call to `name`.
    pub fn callers_of(&self, name: &str) -> &[FnKey] {
        self.callers.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether any *production* fn calls `name`.
    pub fn has_prod_caller(&self, name: &str) -> bool {
        self.callers_of(name).iter().any(|&k| self.fn_at(k).is_prod)
    }

    /// Breadth-first walk up the (name-resolved) caller edges from the
    /// fn named `start`, production fns only; `true` when any reached
    /// caller satisfies `pred`.
    pub fn any_transitive_caller(&self, start: &str, pred: impl Fn(&FnSummary) -> bool) -> bool {
        let mut queue: Vec<FnKey> = self
            .callers_of(start)
            .iter()
            .copied()
            .filter(|&k| self.fn_at(k).is_prod)
            .collect();
        let mut visited: Vec<FnKey> = queue.clone();
        while let Some(key) = queue.pop() {
            let f = self.fn_at(key);
            if pred(f) {
                return true;
            }
            for &up in self.callers_of(&f.name) {
                if self.fn_at(up).is_prod && !visited.contains(&up) {
                    visited.push(up);
                    queue.push(up);
                }
            }
        }
        false
    }

    /// Whether `key`'s fn appends an audit record itself or through a
    /// transitive *same-crate* callee (helper-fn refactors stay inside
    /// the crate; cross-crate resolution would let an unrelated
    /// `.append(` absolve a release).
    pub fn appends_audit_transitively(&self, key: FnKey) -> bool {
        let mut visited: Vec<FnKey> = Vec::new();
        self.audit_walk(key, &mut visited)
    }

    fn audit_walk(&self, key: FnKey, visited: &mut Vec<FnKey>) -> bool {
        if visited.contains(&key) {
            return false;
        }
        visited.push(key);
        let f = self.fn_at(key);
        if f.appends_audit {
            return true;
        }
        let crate_name = &self.file_of(key).crate_name;
        for callee in &f.calls {
            for &def in self.defs(callee) {
                if def != key
                    && &self.file_of(def).crate_name == crate_name
                    && self.audit_walk(def, visited)
                {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileRole;

    fn facts(crate_name: &str, path: &str, src: &str) -> FileFacts {
        let file = SourceFile::parse(crate_name, path, FileRole::Production, src);
        FileFacts {
            crate_name: crate_name.into(),
            path: path.into(),
            findings: Vec::new(),
            waivers: file.waivers.clone(),
            fns: extract_fn_summaries(&file),
            prod_lines: 0,
            pub_items: 0,
        }
    }

    #[test]
    fn summaries_capture_calls_and_flags() {
        let f = facts(
            "css-controller",
            "src/a.rs",
            "fn deliver(&self) -> CssResult<()> {\n\
                 let n = self.index.decrypt_notification(id)?;\n\
                 self.log_release(&n);\n\
                 Ok(())\n\
             }\n\
             fn log_release(&self, n: &Note) {\n\
                 self.audit.append(record(n));\n\
             }\n",
        );
        let deliver = &f.fns[0];
        assert_eq!(deliver.name, "deliver");
        assert!(deliver.calls.contains(&"log_release".to_string()));
        assert_eq!(deliver.release_calls.len(), 1);
        assert!(deliver.release_calls[0].propagated, "`?` propagates");
        assert!(!deliver.appends_audit);
        let log = &f.fns[1];
        assert!(log.appends_audit);
    }

    #[test]
    fn audit_obligation_resolves_through_same_crate_helper() {
        let p = Project::new(vec![facts(
            "css-controller",
            "src/a.rs",
            "fn deliver(&self) { let n = self.index.decrypt_notification(id); self.log_release(n); }\n\
             fn log_release(&self, n: Note) { self.audit.append(record(n)); }\n\
             fn bare(&self) { let n = self.index.decrypt_notification(id); drop(n); }\n",
        )]);
        assert!(p.appends_audit_transitively((0, 0)), "via helper");
        assert!(!p.appends_audit_transitively((0, 2)), "no audit anywhere");
    }

    #[test]
    fn audit_obligation_does_not_cross_crates() {
        let a = facts(
            "css-controller",
            "src/a.rs",
            "fn deliver(&self) { let n = self.x.decrypt_notification(id); helper(n); }\n",
        );
        let b = facts(
            "css-gateway",
            "src/b.rs",
            "fn helper(n: Note) { audit_log.append(n); }\n",
        );
        let p = Project::new(vec![a, b]);
        assert!(
            !p.appends_audit_transitively((0, 0)),
            "a same-named fn in another crate must not absolve the release"
        );
    }

    #[test]
    fn transitive_callers_walk_upward() {
        let p = Project::new(vec![facts(
            "css-core",
            "src/a.rs",
            "fn request_access(&self) -> CssResult<u64> { self.pending.file(x) }\n\
             fn step(&self) { self.request_access(); }\n\
             fn run(&self) { match self.step() { Err(CssError::Backpressure(_)) => {} _ => {} } }\n",
        )]);
        assert!(p.any_transitive_caller("request_access", |f| f.mentions_backpressure));
        assert!(!p.any_transitive_caller("request_access", |f| f.name == "nope"));
        assert!(p.has_prod_caller("request_access"));
        assert!(p.has_prod_caller("file")); // called by request_access
        assert!(!p.has_prod_caller("run")); // nothing calls the top fn
    }

    #[test]
    fn cycles_terminate() {
        let p = Project::new(vec![facts(
            "css-controller",
            "src/a.rs",
            "fn a(&self) { let n = self.x.decrypt_notification(id); b(); }\n\
             fn b(&self) { a(); }\n",
        )]);
        assert!(!p.appends_audit_transitively((0, 0)));
        assert!(!p.any_transitive_caller("a", |f| f.appends_audit));
    }

    #[test]
    fn tail_and_return_calls_propagate() {
        let f = facts(
            "css-core",
            "src/a.rs",
            "fn tail(&self) -> CssResult<u64> { self.pending.file(a, b) }\n\
             fn ret(&self) -> CssResult<u64> { return self.pending.file(a, b); }\n\
             fn swallowed(&self) { let _ = self.pending.file(a, b); }\n",
        );
        assert!(f.fns[0].filing_calls[0].propagated, "tail");
        assert!(f.fns[1].filing_calls[0].propagated, "return");
        assert!(!f.fns[2].filing_calls[0].propagated, "bound and dropped");
    }
}
