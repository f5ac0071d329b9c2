//! JSON: `--format json` (schema version 2), written with the
//! workspace's one JSON writer ([`css_telemetry::JsonBuf`]), and the
//! minimal value parser the baseline ratchet and the schema tests read
//! it back with. The parser takes exactly the JSON this workspace
//! writes: objects, arrays, strings with the escapes `JsonBuf` emits,
//! integers, booleans and null.
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

use css_telemetry::JsonBuf;

use crate::diag::Finding;
use crate::engine::Report;
use crate::rules::all_rules;

fn findings_json(j: &mut JsonBuf, key: &str, findings: &[Finding]) {
    j.key(key).begin_array();
    for f in findings {
        j.begin_object();
        j.key("rule").string(f.rule);
        j.key("severity").string(f.severity.as_str());
        j.key("crate").string(&f.crate_name);
        j.key("file").string(&f.file);
        j.key("line").u64(u64::from(f.line));
        j.key("message").string(&f.message);
        if let Some(reason) = &f.waive_reason {
            j.key("reason").string(reason);
        }
        j.end_object();
    }
    j.end_array();
}

/// Render the full report as JSON.
pub fn render_json(report: &Report) -> String {
    let mut j = JsonBuf::new();
    j.begin_object();
    j.key("version").u64(2);
    j.key("root").string(&report.root);
    j.key("rules").begin_array();
    for r in all_rules() {
        j.begin_object();
        j.key("id").string(r.id());
        j.key("severity").string(r.severity().as_str());
        j.key("description").string(r.description());
        j.end_object();
    }
    j.end_array();
    findings_json(&mut j, "findings", &report.findings);
    findings_json(&mut j, "waived", &report.waived);
    j.key("summary").begin_object();
    j.key("errors").u64(report.errors() as u64);
    j.key("warnings").u64(report.warnings() as u64);
    j.key("waived").u64(report.waived.len() as u64);
    j.key("files_scanned").u64(report.files_scanned as u64);
    j.end_object();
    if let Some(t) = &report.timing {
        j.key("timing").begin_object();
        j.key("wall_ms").u64(t.wall_ms);
        j.key("files_reused").u64(t.files_reused as u64);
        j.key("files_parsed").u64(t.files_parsed as u64);
        j.end_object();
    }
    j.end_object();
    let mut out = j.finish();
    out.push('\n');
    out
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
