//! A scanned source file plus the structural facts rules need:
//! which tokens are test-only and where function bodies are.

use crate::scanner::{scan, Token, TokenKind};

/// Why a file is (or is not) production code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// Under `src/` — production code (minus `#[cfg(test)]` regions).
    Production,
    /// Under `tests/` or `examples/` — exempt from the
    /// non-test rules.
    Test,
}

/// One function body: name and token span (body tokens, braces included).
#[derive(Debug, Clone)]
pub struct FnBody {
    pub name: String,
    /// Index of the opening `{` token.
    pub open: usize,
    /// Index of the matching `}` token.
    pub close: usize,
}

/// A scanned file ready for rule checks.
pub struct SourceFile {
    pub crate_name: String,
    /// Path relative to the workspace root (diagnostics only).
    pub path: String,
    pub role: FileRole,
    pub tokens: Vec<Token>,
    /// `test_mask[i]` — token `i` is inside a `#[cfg(test)]` item.
    pub test_mask: Vec<bool>,
    pub fns: Vec<FnBody>,
}

impl SourceFile {
    pub fn parse(crate_name: &str, path: &str, role: FileRole, src: &str) -> SourceFile {
        let tokens = scan(src);
        let test_mask = compute_test_mask(&tokens);
        let fns = find_fn_bodies(&tokens);
        SourceFile {
            crate_name: crate_name.to_string(),
            path: path.to_string(),
            role,
            tokens,
            test_mask,
            fns,
        }
    }

    /// Whether token `i` is production code in this file.
    pub fn is_prod(&self, i: usize) -> bool {
        self.role == FileRole::Production && !self.test_mask.get(i).copied().unwrap_or(false)
    }

    /// The production size of this file for the size ratchet: distinct
    /// source lines carrying a production token (so comments, blanks and
    /// `#[cfg(test)]` items do not count), and the `pub fn | struct |
    /// trait | enum | type` items among them.
    pub fn prod_size(&self) -> (usize, usize) {
        let item = |k: &str| matches!(k, "fn" | "struct" | "trait" | "enum" | "type");
        let (mut lines, mut last_line, mut items) = (0, 0, 0);
        for (i, t) in self.tokens.iter().enumerate() {
            if !self.is_prod(i) {
                continue;
            }
            if t.line != last_line {
                lines += 1;
                last_line = t.line;
            }
            if t.is_ident("pub") && self.ident(i + 1).is_some_and(item) {
                items += 1;
            }
        }
        (lines, items)
    }

    /// The identifier text of token `i`, if it is an identifier.
    pub fn ident(&self, i: usize) -> Option<&str> {
        let t = self.tokens.get(i)?;
        (t.kind == TokenKind::Ident).then_some(t.text.as_str())
    }

    /// Whether tokens at `i..` spell the given punctuation characters.
    pub fn puncts(&self, i: usize, chars: &str) -> bool {
        chars
            .chars()
            .enumerate()
            .all(|(k, c)| self.tokens.get(i + k).is_some_and(|t| t.is_punct(c)))
    }
}

/// Find the token index of the `}` matching the `{` at `open`.
/// Returns `tokens.len() - 1` on unbalanced input (tolerant: the lint
/// must never panic on odd source).
pub fn matching_brace(tokens: &[Token], open: usize) -> usize {
    matching_delim(tokens, open, '{', '}')
}

/// Find the token index of the `)` matching the `(` at `open`.
pub fn matching_paren(tokens: &[Token], open: usize) -> usize {
    matching_delim(tokens, open, '(', ')')
}

fn matching_delim(tokens: &[Token], open: usize, oc: char, cc: char) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(oc) {
            depth += 1;
        } else if t.is_punct(cc) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Mark every token inside an item annotated `#[cfg(test)]` (or any
/// `cfg(...)` whose argument mentions `test`, covering `all(test, ..)`).
fn compute_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        // `#` `[` cfg `(` ... test ... `)` `]`
        let is_cfg_test = tokens[i].is_punct('#')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
            && tokens.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct('('));
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Scan the cfg(...) argument for the ident `test`.
        let mut j = i + 4;
        let mut depth = 1usize;
        let mut mentions_test = false;
        while j < tokens.len() && depth > 0 {
            if tokens[j].is_punct('(') {
                depth += 1;
            } else if tokens[j].is_punct(')') {
                depth -= 1;
            } else if tokens[j].is_ident("test") {
                mentions_test = true;
            }
            j += 1;
        }
        // Expect the closing `]`.
        if tokens.get(j).is_some_and(|t| t.is_punct(']')) {
            j += 1;
        }
        if !mentions_test {
            i = j;
            continue;
        }
        // The annotated item: skip any further attributes, then mask to
        // the end of the item — the matching `}` of its first block, or
        // the first `;` at bracket depth zero (e.g. `#[cfg(test)] use x;`).
        let item_start = i;
        let mut k = j;
        while tokens.get(k).is_some_and(|t| t.is_punct('#'))
            && tokens.get(k + 1).is_some_and(|t| t.is_punct('['))
        {
            // Skip the whole `#[...]`.
            let mut d = 0usize;
            k += 1;
            while k < tokens.len() {
                if tokens[k].is_punct('[') {
                    d += 1;
                } else if tokens[k].is_punct(']') {
                    d -= 1;
                    if d == 0 {
                        k += 1;
                        break;
                    }
                }
                k += 1;
            }
        }
        let mut paren = 0isize;
        let mut bracket = 0isize;
        let mut end = tokens.len().saturating_sub(1);
        while k < tokens.len() {
            let t = &tokens[k];
            if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren -= 1;
            } else if t.is_punct('[') {
                bracket += 1;
            } else if t.is_punct(']') {
                bracket -= 1;
            } else if t.is_punct(';') && paren == 0 && bracket == 0 {
                end = k;
                break;
            } else if t.is_punct('{') && paren == 0 && bracket == 0 {
                end = matching_brace(tokens, k);
                break;
            }
            k += 1;
        }
        for slot in mask.iter_mut().take(end + 1).skip(item_start) {
            *slot = true;
        }
        i = end + 1;
    }
    mask
}

/// Extract every `fn` body (including nested ones — each is reported
/// independently).
fn find_fn_bodies(tokens: &[Token]) -> Vec<FnBody> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name) = tokens
            .get(i + 1)
            .and_then(|t| (t.kind == TokenKind::Ident).then(|| t.text.clone()))
        else {
            i += 1;
            continue;
        };
        // Scan the signature for the body `{` — or a `;` (trait method
        // declaration, no body) — at bracket depth zero.
        let mut k = i + 2;
        let mut paren = 0isize;
        let mut bracket = 0isize;
        let mut found: Option<usize> = None;
        while k < tokens.len() {
            let t = &tokens[k];
            if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren -= 1;
            } else if t.is_punct('[') {
                bracket += 1;
            } else if t.is_punct(']') {
                bracket -= 1;
            } else if paren == 0 && bracket == 0 {
                if t.is_punct(';') {
                    break; // no body
                }
                if t.is_punct('{') {
                    found = Some(k);
                    break;
                }
            }
            k += 1;
        }
        if let Some(open) = found {
            let close = matching_brace(tokens, open);
            out.push(FnBody { name, open, close });
            i += 2; // continue inside: nested fns found on their own
        } else {
            i = k + 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse("css-test", "x.rs", FileRole::Production, src)
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let f = file("fn prod() {}\n#[cfg(test)]\nmod tests { fn t() { bad() } }\nfn tail() {}");
        let bad_idx = f
            .tokens
            .iter()
            .position(|t| t.is_ident("bad"))
            .expect("bad token");
        assert!(!f.is_prod(bad_idx));
        let prod_idx = f
            .tokens
            .iter()
            .position(|t| t.is_ident("prod"))
            .expect("prod");
        assert!(f.is_prod(prod_idx));
        let tail_idx = f
            .tokens
            .iter()
            .position(|t| t.is_ident("tail"))
            .expect("tail");
        assert!(f.is_prod(tail_idx), "masking must end with the test item");
    }

    #[test]
    fn cfg_all_test_is_masked() {
        let f = file("#[cfg(all(test, feature = \"x\"))]\nmod t { fn a() {} }");
        let a = f.tokens.iter().position(|t| t.is_ident("a")).expect("a");
        assert!(!f.is_prod(a));
    }

    #[test]
    fn cfg_test_use_statement_masked_to_semicolon() {
        let f = file("#[cfg(test)] use helpers::x;\nfn real() {}");
        let real = f
            .tokens
            .iter()
            .position(|t| t.is_ident("real"))
            .expect("real");
        assert!(f.is_prod(real));
    }

    #[test]
    fn test_role_file_is_never_prod() {
        let f = SourceFile::parse("c", "tests/a.rs", FileRole::Test, "fn x() {}");
        assert!(!f.is_prod(0));
    }

    #[test]
    fn fn_bodies_found_with_names() {
        let f = file("fn outer(a: [u8; 4]) -> u8 { inner();\n fn inner() {} 0 }");
        let names: Vec<&str> = f.fns.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
        let outer = &f.fns[0];
        assert!(outer.close > outer.open);
    }

    #[test]
    fn trait_method_without_body_skipped() {
        let f = file("trait T { fn decl(&self) -> u8; }\nfn real() {}");
        let names: Vec<&str> = f.fns.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }
}
