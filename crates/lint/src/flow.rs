//! Intraprocedural identity-taint dataflow.
//!
//! The paper's detail-confinement claim is type-shaped: the broker and
//! ops planes cannot *name* detail payload types. This pass closes the
//! value-shaped gap: a plaintext fiscal code read out of a
//! `PersonIdentity` can flow through locals, `format!`, and helper
//! chains into a span attribute, metric name, bus publish, or ops
//! response without ever naming a confined type. The engine walks one
//! fn body's token stream in source order, tracking which local
//! bindings are derived from identity **sources**, erasing taint at
//! **sanitizers** (sealing/HMAC/aggregation), and reporting when a
//! tainted expression reaches a **sink**.
//!
//! Sources: `.fiscal_code` field reads; `.name`/`.surname` reads whose
//! receiver chain mentions a person/identity; returns of
//! `.decrypt_notification(..)`, `.resolve_detail_request(..)` (the
//! PEP's one index visit, which unseals the data subject),
//! `.notifications_of_person(..)`, `.unseal(..)` and
//! `PersonIdentity::from_bytes(..)`.
//!
//! Sanitizers: `seal`, `hmac_sha256`, `mac` (the same MAC under a kept
//! `HmacKey`), `sha256`, `derive_tag_key`, `person_tag`, `len`,
//! `is_empty`, `count` — calls whose result is a
//! ciphertext, keyed tag, or cardinality, none of which identify.
//!
//! Sinks: `SpanAttr::<ctor>(..)` arguments (traces), `.counter(` /
//! `.gauge(` / `.histogram(` metric names (telemetry), `.publish(` /
//! `.publish_opts(` / `.dedup_key(` (broker plane), `respond(..)` (the
//! ops HTTP server).
//!
//! The analysis is flow-sensitive (a rebind clears taint), scope-aware
//! (bindings die with their block; shadowing is honored), and
//! deliberately intraprocedural — cross-fn flows are the call-graph
//! rules' job, and keeping this pass local keeps the file phase one
//! walk per file.

use crate::diag::{Finding, Severity};
use crate::source::{matching_brace, matching_paren, FnBody, SourceFile};

/// Field reads that are identifying wherever they appear.
const SOURCE_FIELDS_ALWAYS: &[&str] = &["fiscal_code"];
/// Field reads that are identifying when the receiver chain mentions a
/// person/identity (bare `.name` is too common — XML nodes, docs).
const SOURCE_FIELDS_PERSONAL: &[&str] = &["name", "surname"];
/// Method calls whose return value is decrypted identity material.
const SOURCE_CALLS: &[&str] = &[
    "decrypt_notification",
    "resolve_detail_request",
    "notifications_of_person",
    "unseal",
];
/// Calls that erase taint: ciphertexts, keyed tags, cardinalities.
const SANITIZERS: &[&str] = &[
    "seal",
    "hmac_sha256",
    "mac",
    "sha256",
    "derive_tag_key",
    "person_tag",
    "len",
    "is_empty",
    "count",
];
/// Method-call sinks: `.<name>(` args must be taint-free.
const SINK_METHODS: &[(&str, &str)] = &[
    ("counter", "metric name"),
    ("gauge", "metric name"),
    ("histogram", "metric name"),
    ("publish", "bus publish"),
    ("publish_opts", "bus publish"),
    ("dedup_key", "publish dedup key"),
    ("capture", "incident bundle capture"),
];
/// Pattern-binding keywords that are not binding names themselves.
const PATTERN_KEYWORDS: &[&str] = &["mut", "ref", "box"];

/// One tracked binding: name, block depth it was bound at, and the
/// taint origin (`None` = clean; a clean rebind shadows an earlier
/// tainted one).
struct Binding {
    name: String,
    depth: usize,
    origin: Option<String>,
}

/// A binding parsed out of a `let`/assignment/`for`, to be applied once
/// the walk passes the end of its initializer (so `let x = x.len();`
/// reads the *old* `x`).
struct PendingBind {
    apply_after: usize,
    names: Vec<String>,
    depth: usize,
    origin: Option<String>,
}

/// Run the taint walk over one fn body, pushing findings for every
/// tainted expression that reaches a sink. Nested fns are skipped (they
/// are checked through their own [`FnBody`]).
pub fn check_fn(file: &SourceFile, body: &FnBody, rule_id: &'static str, out: &mut Vec<Finding>) {
    if !file.is_prod(body.open) {
        return;
    }
    let toks = &file.tokens;
    let mut env: Vec<Binding> = Vec::new();
    let mut pending: Vec<PendingBind> = Vec::new();
    let mut depth = 0usize;
    let mut i = body.open;
    while i <= body.close {
        // Apply bindings whose initializer the walk has passed.
        let mut k = 0;
        while k < pending.len() {
            if i > pending[k].apply_after {
                let b = pending.remove(k);
                for name in b.names {
                    env.push(Binding {
                        name,
                        depth: b.depth,
                        origin: b.origin.clone(),
                    });
                }
            } else {
                k += 1;
            }
        }

        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            env.retain(|b| b.depth <= depth);
        } else if t.is_ident("fn") && i > body.open {
            // A nested fn: skip its body entirely (it has its own walk).
            if let Some(open) = find_fn_open(file, i, body.close) {
                i = matching_brace(toks, open);
                continue;
            }
        } else if t.is_ident("let") {
            if let Some(b) = parse_let(file, body, i, depth, &env) {
                pending.push(b);
            }
        } else if t.is_ident("for") {
            if let Some(b) = parse_for(file, body, i, depth, &env) {
                pending.push(b);
            }
        } else if is_assignment(file, body, i) {
            let end = stmt_end(file, body, i + 2);
            let origin = expr_taint(file, i + 2, end, &env);
            pending.push(PendingBind {
                apply_after: end,
                names: vec![t.text.clone()],
                depth,
                origin,
            });
        }

        // Sink detection runs at every position, including inside
        // initializers (a tainted sink call can be an initializer).
        if let Some((args_open, sink_desc)) = sink_at(file, i) {
            let close = matching_paren(toks, args_open);
            if close > args_open + 1 {
                if let Some(origin) = expr_taint(file, args_open + 1, close - 1, &env) {
                    out.push(Finding {
                        rule: rule_id,
                        severity: Severity::Error,
                        crate_name: file.crate_name.clone(),
                        file: file.path.clone(),
                        line: t.line,
                        message: format!(
                            "fn `{}`: {} flows into {} — identifying data must stay out of \
                             the trace/metrics/broker/ops planes (detail confinement bans \
                             the types; identity-taint bans the values)",
                            body.name, origin, sink_desc
                        ),
                        waive_reason: None,
                    });
                }
            }
        }
        i += 1;
    }
}

/// `fn` at `at`: find its body's `{` (None for a bodiless declaration).
fn find_fn_open(file: &SourceFile, at: usize, limit: usize) -> Option<usize> {
    let toks = &file.tokens;
    let mut paren = 0isize;
    let mut k = at + 1;
    while k <= limit {
        let t = &toks[k];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if paren == 0 {
            if t.is_punct(';') {
                return None;
            }
            if t.is_punct('{') {
                return Some(k);
            }
        }
        k += 1;
    }
    None
}

/// Statement end: index of the `;` at paren/bracket depth zero (blocks
/// are skipped), or of the `else` keyword (let-else), or `limit`.
fn stmt_end(file: &SourceFile, body: &FnBody, from: usize) -> usize {
    let toks = &file.tokens;
    let mut paren = 0isize;
    let mut k = from;
    while k <= body.close {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') {
            paren += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren -= 1;
        } else if paren == 0 {
            if t.is_punct(';') {
                return k;
            }
            if t.is_ident("else") {
                return k;
            }
            if t.is_punct('{') {
                k = matching_brace(toks, k);
            }
        }
        k += 1;
    }
    body.close
}

/// Parse `let PAT[: TYPE] = INIT ...` starting at the `let` token.
fn parse_let(
    file: &SourceFile,
    body: &FnBody,
    at: usize,
    depth: usize,
    env: &[Binding],
) -> Option<PendingBind> {
    let toks = &file.tokens;
    // Collect bound names until `=` (skipping a `: TYPE` annotation).
    let mut names: Vec<String> = Vec::new();
    let mut k = at + 1;
    let mut in_type = false;
    let mut eq_at: Option<usize> = None;
    let mut angle = 0isize;
    while k <= body.close {
        let t = &toks[k];
        if t.is_punct(';') {
            return None; // `let x;` — no initializer, nothing to taint
        }
        if t.is_punct('=') && !toks.get(k + 1).is_some_and(|n| n.is_punct('=')) && angle <= 0 {
            eq_at = Some(k);
            break;
        }
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.is_punct(':') {
            if file.puncts(k, "::") {
                k += 2;
                continue; // a path separator inside the pattern/type
            }
            in_type = true;
        } else if !in_type && t.kind == crate::scanner::TokenKind::Ident {
            let text = t.text.as_str();
            let is_keyword = PATTERN_KEYWORDS.contains(&text);
            // Uppercase-initial idents are constructors/types, not binds.
            let is_ctor = text.chars().next().is_some_and(|c| c.is_ascii_uppercase());
            if !is_keyword && !is_ctor {
                names.push(t.text.clone());
            }
        }
        k += 1;
    }
    let eq = eq_at?;
    // Is this an `if let` / `while let` (condition, ends at `{`)?
    let cond = at > 0 && (toks[at - 1].is_ident("if") || toks[at - 1].is_ident("while"));
    let end = if cond {
        // Initializer ends at the `{` opening the conditional's block.
        let mut paren = 0isize;
        let mut j = eq + 1;
        loop {
            if j >= body.close {
                break j;
            }
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') {
                paren += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                paren -= 1;
            } else if t.is_punct('{') && paren == 0 {
                break j - 1;
            }
            j += 1;
        }
    } else {
        stmt_end(file, body, eq + 1)
    };
    if names.is_empty() {
        return None;
    }
    let origin = expr_taint(file, eq + 1, end, env);
    Some(PendingBind {
        apply_after: end,
        names,
        depth,
        origin,
    })
}

/// Parse `for PAT in EXPR {`: the pattern is tainted iff EXPR is.
fn parse_for(
    file: &SourceFile,
    body: &FnBody,
    at: usize,
    depth: usize,
    env: &[Binding],
) -> Option<PendingBind> {
    let toks = &file.tokens;
    let mut names: Vec<String> = Vec::new();
    let mut k = at + 1;
    while k <= body.close && !toks[k].is_ident("in") {
        let t = &toks[k];
        if t.kind == crate::scanner::TokenKind::Ident {
            let is_ctor = t
                .text
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_uppercase());
            if !is_ctor && !PATTERN_KEYWORDS.contains(&t.text.as_str()) {
                names.push(t.text.clone());
            }
        }
        if t.is_punct('{') {
            return None; // malformed / not a for loop we understand
        }
        k += 1;
    }
    let in_at = k;
    // EXPR runs to the loop body's `{` at paren depth zero.
    let mut paren = 0isize;
    let mut j = in_at + 1;
    let end = loop {
        if j >= body.close {
            break j;
        }
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            paren += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren -= 1;
        } else if t.is_punct('{') && paren == 0 {
            break j - 1;
        }
        j += 1;
    };
    if names.is_empty() {
        return None;
    }
    let origin = expr_taint(file, in_at + 1, end, env);
    Some(PendingBind {
        apply_after: end,
        names,
        depth,
        origin,
    })
}

/// `x = expr;` at statement level (not `==`, not `let`, not a field).
fn is_assignment(file: &SourceFile, body: &FnBody, i: usize) -> bool {
    let toks = &file.tokens;
    if file.ident(i).is_none() {
        return false;
    }
    if !toks.get(i + 1).is_some_and(|t| t.is_punct('=')) {
        return false;
    }
    if toks.get(i + 2).is_some_and(|t| t.is_punct('=')) {
        return false; // `==`
    }
    if i == body.open {
        return false;
    }
    let prev = &toks[i - 1];
    prev.is_punct(';') || prev.is_punct('{') || prev.is_punct('}')
}

/// Whether the receiver chain before the `.` at `dot` mentions a
/// person/identity component (`person.name`, `self.identity.surname`).
fn chain_mentions_identity(file: &SourceFile, dot: usize) -> bool {
    let toks = &file.tokens;
    let mut k = dot;
    loop {
        let Some(prev) = k.checked_sub(1) else {
            return false;
        };
        let Some(name) = file.ident(prev) else {
            return false; // chain starts at a call/index result: unknown
        };
        let lower = name.to_ascii_lowercase();
        if lower.contains("person") || lower.contains("identit") {
            return true;
        }
        if prev == 0 || !toks[prev - 1].is_punct('.') {
            return false;
        }
        k = prev - 1;
    }
}

/// Scan `[a, b]` for a taint source, honoring sanitizer calls (their
/// argument spans are skipped) and the current environment. Returns a
/// human-readable origin description.
fn expr_taint(file: &SourceFile, a: usize, b: usize, env: &[Binding]) -> Option<String> {
    let toks = &file.tokens;
    let is_tainted = |name: &str| -> Option<&str> {
        env.iter()
            .rev()
            .find(|bind| bind.name == name)
            .and_then(|bind| bind.origin.as_deref())
    };
    let mut j = a;
    while j <= b && j < toks.len() {
        let t = &toks[j];
        // Sanitizer call: skip its argument span.
        if t.kind == crate::scanner::TokenKind::Ident
            && SANITIZERS.contains(&t.text.as_str())
            && toks.get(j + 1).is_some_and(|n| n.is_punct('('))
        {
            j = matching_paren(toks, j + 1) + 1;
            continue;
        }
        if t.is_punct('.') {
            if let Some(fld) = file.ident(j + 1) {
                let is_call = toks.get(j + 2).is_some_and(|n| n.is_punct('('));
                let source = if SOURCE_FIELDS_ALWAYS.contains(&fld) && !is_call {
                    Some("a plaintext fiscal code (`.fiscal_code`)".to_string())
                } else if SOURCE_FIELDS_PERSONAL.contains(&fld)
                    && !is_call
                    && chain_mentions_identity(file, j)
                {
                    Some(format!("a person `.{fld}` field"))
                } else if SOURCE_CALLS.contains(&fld) && is_call {
                    Some(format!("the decrypted return of `.{fld}(..)`"))
                } else {
                    None
                };
                if let Some(origin) = source {
                    // `.fiscal_code.len()` — a chained sanitizer makes
                    // the expression a cardinality/tag, not an identity.
                    let after = if is_call {
                        matching_paren(toks, j + 2) + 1
                    } else {
                        j + 2
                    };
                    if let Some(next) = sanitizer_chain_end(file, after) {
                        j = next;
                        continue;
                    }
                    return Some(origin);
                }
            }
        }
        if t.kind == crate::scanner::TokenKind::Ident {
            if t.is_ident("PersonIdentity")
                && file.puncts(j + 1, "::")
                && file.ident(j + 3) == Some("from_bytes")
            {
                return Some("the decoded return of `PersonIdentity::from_bytes(..)`".into());
            }
            // A tainted local — but `.name` field positions don't count.
            let is_field_pos = j > 0 && toks[j - 1].is_punct('.');
            if !is_field_pos {
                if let Some(origin) = is_tainted(&t.text) {
                    if let Some(next) = sanitizer_chain_end(file, j + 1) {
                        j = next; // `x.len()` — sanitized use of a tainted local
                        continue;
                    }
                    return Some(format!("local `{}` (tainted by {origin})", t.text));
                }
            }
        }
        j += 1;
    }
    None
}

/// If the tokens at `at` are `.sanitizer(..)`, return the index just
/// past the call's closing paren (the chained result is sanitized).
fn sanitizer_chain_end(file: &SourceFile, at: usize) -> Option<usize> {
    let toks = &file.tokens;
    if !toks.get(at).is_some_and(|t| t.is_punct('.')) {
        return None;
    }
    let name = file.ident(at + 1)?;
    if !SANITIZERS.contains(&name) {
        return None;
    }
    if !toks.get(at + 2).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    Some(matching_paren(toks, at + 2) + 1)
}

/// A sink whose argument list opens at the returned index.
fn sink_at(file: &SourceFile, i: usize) -> Option<(usize, String)> {
    let toks = &file.tokens;
    let t = toks.get(i)?;
    if !file.is_prod(i) {
        return None;
    }
    // `SpanAttr::<ctor>(` — trace-plane attribute payloads.
    if t.is_ident("SpanAttr") && file.puncts(i + 1, "::") {
        if let Some(ctor) = file.ident(i + 3) {
            if toks.get(i + 4).is_some_and(|n| n.is_punct('(')) {
                return Some((i + 4, format!("span attribute `SpanAttr::{ctor}`")));
            }
        }
    }
    // `.counter(` / `.publish(` / ... method sinks.
    if t.is_punct('.') {
        if let Some(name) = file.ident(i + 1) {
            if toks.get(i + 2).is_some_and(|n| n.is_punct('(')) {
                if let Some((_, desc)) = SINK_METHODS.iter().find(|(m, _)| *m == name) {
                    return Some((i + 2, format!("{desc} `.{name}(..)`")));
                }
            }
        }
    }
    // `respond(` — the ops-plane HTTP response writer.
    if t.is_ident("respond")
        && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        && !(i > 0 && toks[i - 1].is_ident("fn"))
    {
        return Some((i + 1, "an ops-plane response (`respond(..)`)".to_string()));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileRole;

    fn taint_findings(src: &str) -> Vec<Finding> {
        let file = SourceFile::parse("css-controller", "src/x.rs", FileRole::Production, src);
        let mut out = Vec::new();
        for body in &file.fns {
            check_fn(&file, body, "identity-taint", &mut out);
        }
        out
    }

    #[test]
    fn fiscal_code_into_span_attr_fires() {
        let hits = taint_findings(
            "fn f(&self, p: &PersonIdentity) {\n\
                 let code = p.fiscal_code.clone();\n\
                 span.attr(SpanAttr::actor(code));\n\
             }",
        );
        assert_eq!(hits.len(), 1, "{hits:#?}");
        assert!(hits[0].message.contains("fiscal code"));
        assert!(hits[0].message.contains("SpanAttr::actor"));
    }

    #[test]
    fn sanitized_value_is_clean() {
        let hits = taint_findings(
            "fn f(&self, p: &PersonIdentity) {\n\
                 let tag = hmac_sha256(&self.key, p.fiscal_code.as_bytes());\n\
                 span.attr(SpanAttr::actor(tag));\n\
                 registry.counter(&format!(\"n{}\", p.fiscal_code.len()));\n\
             }",
        );
        assert!(hits.is_empty(), "{hits:#?}");
    }

    #[test]
    fn rebind_clears_taint_and_shadowing_is_scoped() {
        let hits = taint_findings(
            "fn f(&self, p: &PersonIdentity) {\n\
                 let mut x = p.fiscal_code.clone();\n\
                 x = String::new();\n\
                 registry.counter(&x);\n\
                 {\n\
                     let y = p.fiscal_code.clone();\n\
                 }\n\
                 registry.gauge(&y);\n\
             }",
        );
        assert!(hits.is_empty(), "rebind + block scoping: {hits:#?}");
    }

    #[test]
    fn shadowed_let_reads_the_old_binding() {
        // `let x = x.len()` reads the tainted old x but binds clean.
        let hits = taint_findings(
            "fn f(&self, p: &PersonIdentity) {\n\
                 let x = p.fiscal_code.clone();\n\
                 let x = x.len();\n\
                 registry.counter(&format!(\"len{x}\"));\n\
             }",
        );
        assert!(hits.is_empty(), "{hits:#?}");
    }

    #[test]
    fn person_name_needs_identity_chain() {
        let fire = taint_findings(
            "fn f(&self, n: &Notification) {\n\
                 let who = n.person.name.clone();\n\
                 bus.dedup_key(&who);\n\
             }",
        );
        assert_eq!(fire.len(), 1, "{fire:#?}");
        let clean = taint_findings(
            "fn g(&self, doc: &Document) {\n\
                 let tag = doc.name.clone();\n\
                 registry.counter(&tag);\n\
             }",
        );
        assert!(clean.is_empty(), "XML node names are not identities");
    }

    #[test]
    fn decrypt_return_taints_through_let_else_and_for() {
        let hits = taint_findings(
            "fn f(&self) {\n\
                 let Ok(note) = self.index.decrypt_notification(id) else {\n\
                     return;\n\
                 };\n\
                 for part in note.parts() {\n\
                     registry.histogram(&part);\n\
                 }\n\
             }",
        );
        assert_eq!(hits.len(), 1, "let-else bind then for-loop: {hits:#?}");
    }

    #[test]
    fn closure_capturing_tainted_local_fires() {
        let hits = taint_findings(
            "fn f(&self, p: &PersonIdentity) {\n\
                 let code = p.fiscal_code.clone();\n\
                 let emit = move || bus.publish(topic, code.clone(), ctx);\n\
                 emit();\n\
             }",
        );
        assert_eq!(hits.len(), 1, "{hits:#?}");
    }

    #[test]
    fn method_chain_across_lines_fires() {
        let hits = taint_findings(
            "fn f(&self, p: &PersonIdentity) {\n\
                 let label = p\n\
                     .fiscal_code\n\
                     .chars()\n\
                     .take(4)\n\
                     .collect::<String>();\n\
                 registry.counter(&label);\n\
             }",
        );
        assert_eq!(hits.len(), 1, "{hits:#?}");
    }

    #[test]
    fn direct_source_in_sink_args_fires_without_a_binding() {
        let hits = taint_findings(
            "fn f(&self, p: &PersonIdentity) {\n\
                 respond(stream, 200, \"text/plain\", p.fiscal_code.as_bytes());\n\
             }",
        );
        assert_eq!(hits.len(), 1, "{hits:#?}");
        assert!(hits[0].message.contains("ops-plane"));
    }

    #[test]
    fn nested_fn_not_double_reported() {
        let hits = taint_findings(
            "fn outer(&self, p: &PersonIdentity) {\n\
                 fn inner(p: &PersonIdentity) {\n\
                     registry.counter(&p.fiscal_code);\n\
                 }\n\
                 inner(p);\n\
             }",
        );
        assert_eq!(hits.len(), 1, "inner checked once: {hits:#?}");
    }

    #[test]
    fn test_role_is_exempt() {
        let file = SourceFile::parse(
            "css-controller",
            "tests/x.rs",
            FileRole::Test,
            "fn f(p: &PersonIdentity) { registry.counter(&p.fiscal_code); }",
        );
        let mut out = Vec::new();
        for body in &file.fns {
            check_fn(&file, body, "identity-taint", &mut out);
        }
        assert!(out.is_empty());
    }
}
