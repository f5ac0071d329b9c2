//! Scanner edge cases the flow rules lean on: raw strings with hash
//! guards, strings containing comment openers, shifted-line method
//! chains, and `let`-adjacent syntax that must not confuse the token
//! stream the dataflow walkers consume.

use css_lint::scanner::{scan, TokenKind};
use css_lint::{lint_file_source, FileRole};

fn idents(src: &str) -> Vec<String> {
    scan(src)
        .into_iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text)
        .collect()
}

#[test]
fn raw_strings_with_hash_guards_hide_their_interior() {
    // The interior `"#` must not end the r## string early; `unwrap`
    // inside it must never become an identifier token.
    let src = r####"fn f() { let x = r##"inner "# quote and .unwrap() text"##; }"####;
    let names = idents(src);
    assert!(names.contains(&"f".to_string()));
    assert!(!names.contains(&"unwrap".to_string()), "{names:?}");
}

#[test]
fn comment_openers_inside_strings_do_not_start_comments() {
    let src = "fn f() { let url = \"https://host/path\"; let y = 1; }";
    let names = idents(src);
    assert!(names.contains(&"y".to_string()), "{names:?}");
}

#[test]
fn line_numbers_survive_multiline_raw_strings() {
    let src = "fn f() {\n    let x = r#\"line\nline\nline\"#;\n    g()\n}";
    let tokens = scan(src);
    let g = tokens.iter().find(|t| t.is_ident("g")).expect("g token");
    assert_eq!(g.line, 5, "line count must include raw-string newlines");
}

#[test]
fn method_chains_split_across_lines_still_taint() {
    // The field read and the sink are three lines apart; the walker
    // must connect them through the token stream, not line text.
    let src = "impl M {\n\
               \x20   pub fn f(&self, p: &PersonIdentity) {\n\
               \x20       let label = p\n\
               \x20           .fiscal_code\n\
               \x20           .clone();\n\
               \x20       self.metrics.counter(label, 1);\n\
               \x20   }\n\
               }\n";
    let hits = lint_file_source("css-controller", "src/x.rs", FileRole::Production, src);
    assert!(hits.iter().any(|f| f.rule == "identity-taint"), "{hits:#?}");
}

#[test]
fn let_else_divergence_does_not_leak_bindings() {
    // `let .. else { return }` introduces the binding for the rest of
    // the block; the else block itself must not bind it.
    let src = "impl M {\n\
               \x20   pub fn f(&self, p: &PersonIdentity) {\n\
               \x20       let Some(code) = p.fiscal_code.get(0..4) else {\n\
               \x20           return;\n\
               \x20       };\n\
               \x20       self.metrics.counter(code, 1);\n\
               \x20   }\n\
               }\n";
    let hits = lint_file_source("css-controller", "src/x.rs", FileRole::Production, src);
    assert!(
        hits.iter().any(|f| f.rule == "identity-taint"),
        "let-else bound taint lost: {hits:#?}"
    );
}

#[test]
fn shadowing_in_an_inner_block_is_scoped() {
    // The inner clean `code` shadows the tainted outer one only inside
    // the block; the outer use afterwards is still tainted.
    let src = "impl M {\n\
               \x20   pub fn f(&self, p: &PersonIdentity) {\n\
               \x20       let code = p.fiscal_code.clone();\n\
               \x20       {\n\
               \x20           let code = 0usize;\n\
               \x20           self.metrics.gauge(code, 1);\n\
               \x20       }\n\
               \x20       self.metrics.counter(code, 1);\n\
               \x20   }\n\
               }\n";
    let hits: Vec<_> = lint_file_source("css-controller", "src/x.rs", FileRole::Production, src)
        .into_iter()
        .filter(|f| f.rule == "identity-taint")
        .collect();
    assert_eq!(hits.len(), 1, "only the outer use fires: {hits:#?}");
    assert_eq!(hits[0].line, 8, "{hits:#?}");
}

#[test]
fn closures_capture_tainted_locals() {
    let src = "impl M {\n\
               \x20   pub fn f(&self, p: &PersonIdentity) {\n\
               \x20       let code = p.fiscal_code.clone();\n\
               \x20       let emit = || self.metrics.counter(code, 1);\n\
               \x20       emit();\n\
               \x20   }\n\
               }\n";
    let hits = lint_file_source("css-controller", "src/x.rs", FileRole::Production, src);
    assert!(
        hits.iter().any(|f| f.rule == "identity-taint"),
        "closure capture lost taint: {hits:#?}"
    );
}
