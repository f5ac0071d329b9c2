//! A hand-rolled Rust token scanner.
//!
//! The lint rules reason about identifier and punctuation sequences, so
//! the scanner's job is to produce those *correctly*: everything inside
//! line comments, nested block comments, string literals, raw strings,
//! byte strings and char literals must never surface as a token —
//! otherwise a forbidden name quoted in a doc comment would trip a rule.
//! Comments are dropped: no comment changes what a rule sees.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `Decision`, `unwrap`, ...).
    Ident,
    /// A single punctuation character (`{`, `:`, `.`, ...). Composite
    /// operators (`::`, `=>`, `..`) appear as consecutive tokens.
    Punct,
    /// A numeric literal (kept so adjacency checks stay honest).
    Number,
}

/// One token with its source line (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    pub line: u32,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

/// Tokenize `src`, skipping comments and literal interiors.
pub fn scan(src: &str) -> Vec<Token> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Advance over `n` bytes, counting newlines.
    macro_rules! advance {
        ($n:expr) => {{
            let n = $n;
            for k in 0..n {
                if bytes.get(i + k) == Some(&b'\n') {
                    line += 1;
                }
            }
            i += n;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i] as char;

        // Whitespace.
        if c.is_ascii_whitespace() {
            advance!(1);
            continue;
        }

        // Line comment (also catches doc comments `///` and `//!`).
        if c == '/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue; // the newline itself is consumed next iteration
        }

        // Block comment, possibly nested.
        if c == '/' && bytes.get(i + 1) == Some(&b'*') {
            advance!(2);
            let mut depth = 1usize;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    advance!(2);
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    advance!(2);
                } else {
                    advance!(1);
                }
            }
            continue;
        }

        // Identifier or keyword — with special-casing for the string
        // prefixes `r"`, `r#"`, `b"`, `br"`, `br#"` which are *not*
        // identifiers.
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let word = &src[start..i];
            let next = bytes.get(i).copied();
            let raw = matches!(word, "r" | "br") && matches!(next, Some(b'"') | Some(b'#'));
            let plain_byte = word == "b" && next == Some(b'"');
            if raw {
                // Raw (byte) string: r##"..."## — count the hashes.
                let mut hashes = 0usize;
                while bytes.get(i + hashes) == Some(&b'#') {
                    hashes += 1;
                }
                if bytes.get(i + hashes) == Some(&b'"') {
                    advance!(hashes + 1);
                    // Scan for `"` followed by `hashes` hashes.
                    'raw: while i < bytes.len() {
                        if bytes[i] == b'"' {
                            let mut ok = true;
                            for h in 0..hashes {
                                if bytes.get(i + 1 + h) != Some(&b'#') {
                                    ok = false;
                                    break;
                                }
                            }
                            if ok {
                                advance!(1 + hashes);
                                break 'raw;
                            }
                        }
                        advance!(1);
                    }
                    continue;
                }
                // `r#ident` raw identifier: fall through, emit as ident.
                let id_start = i + hashes;
                if hashes == 1
                    && bytes
                        .get(id_start)
                        .is_some_and(|b| b.is_ascii_alphabetic() || *b == b'_')
                {
                    let mut j = id_start;
                    while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_')
                    {
                        j += 1;
                    }
                    tokens.push(Token {
                        kind: TokenKind::Ident,
                        text: src[id_start..j].to_string(),
                        line,
                    });
                    advance!(j - i);
                    continue;
                }
            }
            if plain_byte {
                // b"..." — scan as a normal string below by not emitting
                // the prefix; the `"` branch handles the body.
                continue;
            }
            tokens.push(Token {
                kind: TokenKind::Ident,
                text: word.to_string(),
                line,
            });
            continue;
        }

        // Numeric literal (digits, hex/bin/oct, suffixes, exponents).
        if c.is_ascii_digit() {
            let start = i;
            i += 1;
            while i < bytes.len() {
                let b = bytes[i];
                if b.is_ascii_alphanumeric() || b == b'_' {
                    i += 1;
                } else if b == b'.'
                    && bytes.get(i + 1).is_some_and(|n| n.is_ascii_digit())
                    && bytes.get(i.wrapping_sub(1)) != Some(&b'.')
                {
                    // A decimal point, not a `..` range.
                    i += 1;
                } else {
                    break;
                }
            }
            tokens.push(Token {
                kind: TokenKind::Number,
                text: src[start..i].to_string(),
                line,
            });
            continue;
        }

        // String literal with escapes.
        if c == '"' {
            advance!(1);
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => advance!(2),
                    b'"' => {
                        advance!(1);
                        break;
                    }
                    _ => advance!(1),
                }
            }
            continue;
        }

        // `'` — lifetime, loop label, or char literal.
        if c == '\'' {
            let one = bytes.get(i + 1).copied();
            let two = bytes.get(i + 2).copied();
            let is_lifetime =
                one.is_some_and(|b| b.is_ascii_alphabetic() || b == b'_') && two != Some(b'\'');
            if is_lifetime {
                advance!(1);
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    advance!(1);
                }
            } else {
                // Char literal: 'x', '\n', '\u{1F600}'.
                advance!(1);
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => advance!(2),
                        b'\'' => {
                            advance!(1);
                            break;
                        }
                        _ => advance!(1),
                    }
                }
            }
            continue;
        }

        // Everything else: one punctuation character.
        let ch_len = c.len_utf8();
        tokens.push(Token {
            kind: TokenKind::Punct,
            text: src[i..i + ch_len].to_string(),
            line,
        });
        advance!(ch_len);
    }

    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        scan(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn skips_line_and_block_comments() {
        let src = "let a = 1; // DetailMessage here\n/* DetailMessage /* nested */ too */ let b;";
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "a", "let", "b"]);
    }

    #[test]
    fn skips_string_interiors() {
        let ids = idents(r#"let s = "DetailMessage \" still inside"; done"#);
        assert_eq!(ids, vec!["let", "s", "done"]);
    }

    #[test]
    fn skips_raw_and_byte_strings() {
        let src =
            "let a = r#\"DetailMessage \" quote\"#; let b = br\"unwrap\"; let c = b\"panic\"; end";
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "a", "let", "b", "let", "c", "end"]);
    }

    #[test]
    fn raw_identifier_is_an_ident() {
        let ids = idents("fn r#match() {}");
        assert_eq!(ids, vec!["fn", "match"]);
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let ids = idents("fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; }");
        assert!(ids.contains(&"str".to_string()));
        // Nothing from inside the char literals leaked, and the
        // lifetime name is not an ident token.
        assert!(!ids.contains(&"x'".to_string()));
    }

    #[test]
    fn tracks_line_numbers() {
        let s = scan("a\nb\n\nc");
        let lines: Vec<u32> = s.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn composite_punct_appears_as_consecutive_tokens() {
        let s = scan("A::B { .. } =>");
        let texts: Vec<&str> = s.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            vec!["A", ":", ":", "B", "{", ".", ".", "}", "=", ">"]
        );
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let s = scan("for i in 1..5 {}");
        let texts: Vec<&str> = s.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["for", "i", "in", "1", ".", ".", "5", "{", "}"]);
    }
}
