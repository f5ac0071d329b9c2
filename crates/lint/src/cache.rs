//! Incremental lint cache: per-file facts keyed by (path, mtime, size).
//!
//! A warm run re-reads nothing that has not changed on disk: for every
//! file whose (mtime, size) stat matches the cached entry, the engine
//! reuses the persisted [`FileFacts`] — file-scoped findings, waivers,
//! and fn summaries — and only the project/workspace phases rerun
//! (they are cheap: they walk summaries, not source). The cache lives
//! in `target/css-lint-cache.json` and is versioned by a fingerprint of
//! the rule set, so editing a rule invalidates every entry at once
//! rather than silently serving findings from an older rule.
//!
//! The crate is zero-dependency, so this module carries its own minimal
//! JSON value parser (also used by the SARIF tests and the waiver
//! baseline ratchet). It parses exactly the JSON this crate writes:
//! objects, arrays, strings with the escapes [`crate::json::escape`]
//! emits, integers, and booleans.

use std::collections::HashMap;
use std::fs;
use std::path::Path;

use crate::callgraph::{CallSite, FileFacts, FnSummary};
use crate::diag::{Finding, Severity};
use crate::json::escape;
use crate::rules::all_rules;
use crate::source::FileRole;
use crate::waiver::Waiver;

/// Bump to invalidate caches whose serialized shape is unchanged but
/// whose semantics are not (e.g. a summarizer bug fix).
const CACHE_SCHEMA: u32 = 1;

// ---------------------------------------------------------------------------
// Minimal JSON value parser
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers keep their raw text so 64-bit stat
/// values round-trip exactly (no f64 detour).
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
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
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

/// Parse a JSON document. `None` on any syntax error (the cache is an
/// optimization: a corrupt file must read as "cold", never as a panic).
pub fn parse_json(src: &str) -> Option<Json> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    (pos == bytes.len()).then_some(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && (b[*pos] as char).is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Option<Json> {
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'{' => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Some(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return None;
                }
                *pos += 1;
                let val = parse_value(b, pos)?;
                pairs.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos)? {
                    b',' => *pos += 1,
                    b'}' => {
                        *pos += 1;
                        return Some(Json::Obj(pairs));
                    }
                    _ => return None,
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Some(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos)? {
                    b',' => *pos += 1,
                    b']' => {
                        *pos += 1;
                        return Some(Json::Arr(items));
                    }
                    _ => return None,
                }
            }
        }
        b'"' => Some(Json::Str(parse_string(b, pos)?)),
        b't' => {
            *pos = pos.checked_add(4)?;
            (b.get(*pos - 4..*pos)? == b"true").then_some(Json::Bool(true))
        }
        b'f' => {
            *pos = pos.checked_add(5)?;
            (b.get(*pos - 5..*pos)? == b"false").then_some(Json::Bool(false))
        }
        b'n' => {
            *pos = pos.checked_add(4)?;
            (b.get(*pos - 4..*pos)? == b"null").then_some(Json::Null)
        }
        c if c == b'-' || c.is_ascii_digit() => {
            let start = *pos;
            if c == b'-' {
                *pos += 1;
            }
            while *pos < b.len()
                && (b[*pos].is_ascii_digit()
                    || b[*pos] == b'.'
                    || b[*pos] == b'e'
                    || b[*pos] == b'E'
                    || b[*pos] == b'+'
                    || b[*pos] == b'-')
            {
                *pos += 1;
            }
            Some(Json::Num(
                std::str::from_utf8(&b[start..*pos]).ok()?.to_string(),
            ))
        }
        _ => None,
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
    if b.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match *b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match *b.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = std::str::from_utf8(b.get(*pos + 1..*pos + 5)?).ok()?;
                        let code = u32::from_str_radix(hex, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Copy the full UTF-8 sequence starting here.
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).ok()?);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule-id interning (Finding.rule is &'static str)
// ---------------------------------------------------------------------------

/// Map a cached rule-id string back to the live rule's static id.
/// `None` for ids this build no longer ships — the entry is stale.
fn intern_rule(id: &str) -> Option<&'static str> {
    if id == "waiver-syntax" {
        return Some("waiver-syntax");
    }
    all_rules().iter().map(|r| r.id()).find(|r| *r == id)
}

/// A fingerprint of the live rule set; any rule change (id, severity,
/// description — the description doubles as a cheap version string)
/// invalidates the whole cache.
pub fn rules_fingerprint() -> String {
    let mut h: u64 = 0xcbf29ce484222325; // FNV-1a
    let mut eat = |s: &str| {
        for byte in s.bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    eat(&CACHE_SCHEMA.to_string());
    for rule in all_rules() {
        eat(rule.id());
        eat(rule.severity().as_str());
        eat(rule.description());
    }
    format!("{h:016x}")
}

// ---------------------------------------------------------------------------
// Cache entries
// ---------------------------------------------------------------------------

/// One cached file: its stat key and the facts the engine needs.
pub struct CachedFile {
    pub mtime_ns: u128,
    pub size: u64,
    pub facts: FileFacts,
}

/// Load the cache; empty map on missing/corrupt/stale-fingerprint file.
pub fn load(path: &Path) -> HashMap<String, CachedFile> {
    let Ok(src) = fs::read_to_string(path) else {
        return HashMap::new();
    };
    let Some(doc) = parse_json(&src) else {
        return HashMap::new();
    };
    if doc.get("fingerprint").and_then(Json::as_str) != Some(rules_fingerprint().as_str()) {
        return HashMap::new();
    }
    let mut out = HashMap::new();
    let Some(files) = doc.get("files").and_then(Json::as_arr) else {
        return HashMap::new();
    };
    for entry in files {
        if let Some((key, cached)) = read_entry(entry) {
            out.insert(key, cached);
        }
    }
    out
}

fn read_entry(entry: &Json) -> Option<(String, CachedFile)> {
    let path = entry.get("path")?.as_str()?.to_string();
    let mtime_ns = entry.get("mtime")?.as_u128()?;
    let size = entry.get("size")?.as_u64()?;
    let crate_name = entry.get("crate")?.as_str()?.to_string();
    let role = match entry.get("role")?.as_str()? {
        "prod" => FileRole::Production,
        "test" => FileRole::Test,
        _ => return None,
    };
    let mut findings = Vec::new();
    for f in entry.get("findings")?.as_arr()? {
        findings.push(read_finding(f)?);
    }
    let mut waivers = Vec::new();
    for w in entry.get("waivers")?.as_arr()? {
        waivers.push(Waiver {
            rule: w.get("rule")?.as_str()?.to_string(),
            reason: w.get("reason")?.as_str()?.to_string(),
            line: w.get("line")?.as_u64()? as u32,
        });
    }
    let mut fns = Vec::new();
    for f in entry.get("fns")?.as_arr()? {
        fns.push(read_fn(f)?);
    }
    let facts = FileFacts {
        crate_name,
        path: path.clone(),
        role,
        findings,
        waivers,
        fns,
        prod_lines: entry.get("prod_lines")?.as_u64()? as usize,
        pub_items: entry.get("pub_items")?.as_u64()? as usize,
    };
    Some((
        path,
        CachedFile {
            mtime_ns,
            size,
            facts,
        },
    ))
}

fn read_finding(f: &Json) -> Option<Finding> {
    Some(Finding {
        rule: intern_rule(f.get("rule")?.as_str()?)?,
        severity: match f.get("severity")?.as_str()? {
            "warn" => Severity::Warn,
            "error" => Severity::Error,
            _ => return None,
        },
        crate_name: f.get("crate")?.as_str()?.to_string(),
        file: f.get("file")?.as_str()?.to_string(),
        line: f.get("line")?.as_u64()? as u32,
        message: f.get("message")?.as_str()?.to_string(),
        waive_reason: None,
    })
}

fn read_fn(f: &Json) -> Option<FnSummary> {
    let mut calls = Vec::new();
    for c in f.get("calls")?.as_arr()? {
        calls.push(c.as_str()?.to_string());
    }
    let read_sites = |key: &str| -> Option<Vec<CallSite>> {
        let mut sites = Vec::new();
        for s in f.get(key)?.as_arr()? {
            sites.push(CallSite {
                callee: s.get("callee")?.as_str()?.to_string(),
                line: s.get("line")?.as_u64()? as u32,
                propagated: s.get("prop")?.as_bool()?,
            });
        }
        Some(sites)
    };
    Some(FnSummary {
        name: f.get("name")?.as_str()?.to_string(),
        line: f.get("line")?.as_u64()? as u32,
        is_prod: f.get("prod")?.as_bool()?,
        calls,
        appends_audit: f.get("audit")?.as_bool()?,
        mentions_backpressure: f.get("bp")?.as_bool()?,
        release_calls: read_sites("release")?,
        filing_calls: read_sites("filing")?,
    })
}

/// Persist the cache (best-effort: an unwritable target dir is not an
/// error — the next run is simply cold again).
pub fn store(path: &Path, entries: &[(String, u128, u64, &FileFacts)]) {
    let mut files = Vec::with_capacity(entries.len());
    for (file_path, mtime_ns, size, facts) in entries {
        files.push(write_entry(file_path, *mtime_ns, *size, facts));
    }
    let doc = format!(
        "{{\"version\":{CACHE_SCHEMA},\"fingerprint\":\"{}\",\"files\":[{}]}}\n",
        rules_fingerprint(),
        files.join(",")
    );
    if let Some(dir) = path.parent() {
        let _ = fs::create_dir_all(dir);
    }
    let _ = fs::write(path, doc);
}

fn write_entry(path: &str, mtime_ns: u128, size: u64, facts: &FileFacts) -> String {
    let findings: Vec<String> = facts.findings.iter().map(write_finding).collect();
    let waivers: Vec<String> = facts
        .waivers
        .iter()
        .map(|w| {
            format!(
                "{{\"rule\":\"{}\",\"reason\":\"{}\",\"line\":{}}}",
                escape(&w.rule),
                escape(&w.reason),
                w.line
            )
        })
        .collect();
    let fns: Vec<String> = facts.fns.iter().map(write_fn).collect();
    format!(
        "{{\"path\":\"{}\",\"mtime\":{mtime_ns},\"size\":{size},\"crate\":\"{}\",\"role\":\"{}\",\
         \"findings\":[{}],\"waivers\":[{}],\"fns\":[{}],\
         \"prod_lines\":{},\"pub_items\":{}}}",
        escape(path),
        escape(&facts.crate_name),
        match facts.role {
            FileRole::Production => "prod",
            FileRole::Test => "test",
        },
        findings.join(","),
        waivers.join(","),
        fns.join(","),
        facts.prod_lines,
        facts.pub_items
    )
}

fn write_finding(f: &Finding) -> String {
    format!(
        "{{\"rule\":\"{}\",\"severity\":\"{}\",\"crate\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
        escape(f.rule),
        f.severity.as_str(),
        escape(&f.crate_name),
        escape(&f.file),
        f.line,
        escape(&f.message),
    )
}

fn write_fn(f: &FnSummary) -> String {
    let calls: Vec<String> = f
        .calls
        .iter()
        .map(|c| format!("\"{}\"", escape(c)))
        .collect();
    let sites = |sites: &[CallSite]| -> String {
        sites
            .iter()
            .map(|s| {
                format!(
                    "{{\"callee\":\"{}\",\"line\":{},\"prop\":{}}}",
                    escape(&s.callee),
                    s.line,
                    s.propagated
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{{\"name\":\"{}\",\"line\":{},\"prod\":{},\"audit\":{},\"bp\":{},\"calls\":[{}],\
         \"release\":[{}],\"filing\":[{}]}}",
        escape(&f.name),
        f.line,
        f.is_prod,
        f.appends_audit,
        f.mentions_backpressure,
        calls.join(","),
        sites(&f.release_calls),
        sites(&f.filing_calls)
    )
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
        assert_eq!(doc.get("c").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("d"), Some(&Json::Null));
        assert_eq!(doc.get("n").unwrap().as_u128(), Some(184467440737095516));
    }

    #[test]
    fn corrupt_json_is_none() {
        assert!(parse_json("{\"a\":").is_none());
        assert!(parse_json("{]}").is_none());
        assert!(parse_json("").is_none());
        assert!(parse_json("{} trailing").is_none());
    }

    #[test]
    fn facts_round_trip_through_the_cache_file() {
        let facts = FileFacts {
            crate_name: "css-core".into(),
            path: "crates/core/src/a.rs".into(),
            role: FileRole::Production,
            findings: vec![Finding {
                rule: "identity-taint",
                severity: Severity::Error,
                crate_name: "css-core".into(),
                file: "crates/core/src/a.rs".into(),
                line: 7,
                message: "a \"quoted\" message".into(),
                waive_reason: None,
            }],
            waivers: vec![Waiver {
                rule: "no-panic-hot-path".into(),
                reason: "why".into(),
                line: 3,
            }],
            fns: vec![FnSummary {
                name: "f".into(),
                line: 1,
                is_prod: true,
                calls: vec!["g".into()],
                appends_audit: true,
                mentions_backpressure: false,
                release_calls: vec![CallSite {
                    callee: "get_response".into(),
                    line: 4,
                    propagated: true,
                }],
                filing_calls: vec![],
            }],
            prod_lines: 12,
            pub_items: 2,
        };
        let dir = std::env::temp_dir().join("css-lint-cache-test");
        let path = dir.join("cache.json");
        store(
            &path,
            &[(
                facts.path.clone(),
                1_700_000_000_123_456_789_u128,
                42,
                &facts,
            )],
        );
        let loaded = load(&path);
        let entry = loaded.get("crates/core/src/a.rs").expect("entry");
        assert_eq!(entry.size, 42);
        assert_eq!(entry.facts.crate_name, "css-core");
        assert_eq!(entry.facts.findings, facts.findings);
        assert_eq!(entry.facts.waivers, facts.waivers);
        assert_eq!(entry.facts.fns, facts.fns);
        assert_eq!((entry.facts.prod_lines, entry.facts.pub_items), (12, 2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_fingerprint_reads_cold() {
        let dir = std::env::temp_dir().join("css-lint-cache-stale");
        let path = dir.join("cache.json");
        let _ = fs::create_dir_all(&dir);
        let _ = fs::write(
            &path,
            "{\"version\":1,\"fingerprint\":\"not-this-build\",\"files\":[]}",
        );
        assert!(load(&path).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_rule_id_invalidates_the_entry() {
        assert!(intern_rule("identity-taint").is_some());
        assert!(intern_rule("rule-from-the-future").is_none());
    }
}
