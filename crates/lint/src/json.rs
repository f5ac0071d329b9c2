//! Hand-rolled JSON: rendering for `--format json` (schema version 2)
//! and the minimal value parser the baseline ratchet and the schema
//! tests read it back with. The crate is zero-dependency; the parser
//! takes exactly the JSON this crate writes: objects, arrays, strings
//! with the escapes [`escape`] emits, integers, booleans and null.
//!
//! Shape:
//! ```json
//! {
//!   "version": 2,
//!   "root": "...",
//!   "rules": [{"id": "...", "severity": "...", "description": "..."}],
//!   "findings": [{"rule","severity","crate","file","line","message"}],
//!   "waived":   [... same fields plus "reason"],
//!   "summary": {"errors","warnings","waived","files_scanned"},
//!   "timing": {"wall_ms","files_reused","files_parsed"}   // CLI runs only
//! }
//! ```
//!
//! v2 adds the three project-phase rules to `rules`, and the optional
//! `timing` object — present only when the CLI measured a run (engine-
//! produced reports omit it, so two runs over one tree are
//! byte-identical). `files_reused` is part of the v2 shape and always 0:
//! every run parses every file.

use crate::diag::Finding;
use crate::engine::Report;
use crate::rules::all_rules;

/// Escape a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn finding_json(f: &Finding) -> String {
    let mut s = format!(
        "{{\"rule\":\"{}\",\"severity\":\"{}\",\"crate\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"",
        escape(f.rule),
        f.severity.as_str(),
        escape(&f.crate_name),
        escape(&f.file),
        f.line,
        escape(&f.message),
    );
    if let Some(reason) = &f.waive_reason {
        s.push_str(&format!(",\"reason\":\"{}\"", escape(reason)));
    }
    s.push('}');
    s
}

/// Render the full report as JSON.
pub fn render_json(report: &Report) -> String {
    let rules: Vec<String> = all_rules()
        .iter()
        .map(|r| {
            format!(
                "{{\"id\":\"{}\",\"severity\":\"{}\",\"description\":\"{}\"}}",
                escape(r.id()),
                r.severity().as_str(),
                escape(r.description())
            )
        })
        .collect();
    let findings: Vec<String> = report.findings.iter().map(finding_json).collect();
    let waived: Vec<String> = report.waived.iter().map(finding_json).collect();
    let timing = match &report.timing {
        Some(t) => format!(
            ",\"timing\":{{\"wall_ms\":{},\"files_reused\":{},\"files_parsed\":{}}}",
            t.wall_ms, t.files_reused, t.files_parsed
        ),
        None => String::new(),
    };
    format!(
        "{{\"version\":2,\"root\":\"{}\",\"rules\":[{}],\"findings\":[{}],\"waived\":[{}],\
         \"summary\":{{\"errors\":{},\"warnings\":{},\"waived\":{},\"files_scanned\":{}}}{}}}\n",
        escape(&report.root),
        rules.join(","),
        findings.join(","),
        waived.join(","),
        report.errors(),
        report.warnings(),
        report.waived.len(),
        report.files_scanned,
        timing,
    )
}

/// A parsed JSON value. Numbers keep their raw text so 64-bit counts
/// round-trip exactly (no f64 detour).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse a JSON document. `None` on any syntax error, never a panic.
pub fn parse_json(src: &str) -> Option<Json> {
    let mut cursor = Cursor {
        bytes: src.as_bytes(),
        pos: 0,
    };
    let value = cursor.value()?;
    cursor.skip_ws();
    (cursor.pos == cursor.bytes.len()).then_some(value)
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    /// Consume `token` if it is what comes next, whitespace aside.
    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        let hit = self.bytes[self.pos..].starts_with(token.as_bytes());
        if hit {
            self.pos += token.len();
        }
        hit
    }

    /// Comma-separated `item`s up to `close` (the opener is consumed).
    fn list<T>(
        &mut self,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let mut items = Vec::new();
        if self.eat(close) {
            return Some(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close) {
                return Some(items);
            }
            if !self.eat(",") {
                return None;
            }
        }
    }

    fn value(&mut self) -> Option<Json> {
        if self.eat("{") {
            let pair = |c: &mut Self| {
                let key = c.string()?;
                c.eat(":").then(|| c.value())?.map(|value| (key, value))
            };
            return self.list("}", pair).map(Json::Obj);
        }
        if self.eat("[") {
            return self.list("]", Self::value).map(Json::Arr);
        }
        for (word, value) in [
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("null", Json::Null),
        ] {
            if self.eat(word) {
                return Some(value);
            }
        }
        if self.bytes.get(self.pos) == Some(&b'"') {
            return self.string().map(Json::Str);
        }
        let start = self.pos;
        let numeric = |b: &u8| b.is_ascii_digit() || b"-+.eE".contains(b);
        while self.bytes.get(self.pos).is_some_and(numeric) {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        (!raw.is_empty()).then(|| Json::Num(raw.to_string()))
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat("\"") {
            return None;
        }
        let mut out = String::new();
        loop {
            // Everything up to the next quote or backslash is literal.
            let rest = &self.bytes[self.pos..];
            let run = rest.iter().position(|b| matches!(b, b'"' | b'\\'))?;
            out.push_str(std::str::from_utf8(&rest[..run]).ok()?);
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Some(out);
            }
            let escape = *self.bytes.get(self.pos)?;
            self.pos += 1;
            out.push(match escape {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let hex = std::str::from_utf8(self.bytes.get(self.pos..self.pos + 4)?).ok()?;
                    self.pos += 4;
                    char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
                }
                _ => return None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_round_trips_values() {
        let doc = parse_json(
            "{\"a\": [1, 2, {\"b\": \"x\\ny\"}], \"c\": true, \"d\": null, \"n\": 184467440737095516}",
        )
        .expect("parse");
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[2]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x\ny")
        );
        assert_eq!(doc.get("c"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("d"), Some(&Json::Null));
        assert_eq!(doc.get("n").unwrap().as_u64(), Some(184467440737095516));
    }

    #[test]
    fn corrupt_json_is_none() {
        assert!(parse_json("{\"a\":").is_none());
        assert!(parse_json("{]}").is_none());
        assert!(parse_json("").is_none());
        assert!(parse_json("{} trailing").is_none());
    }
}
