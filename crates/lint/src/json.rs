//! The minimal JSON value parser the baseline ratchet reads
//! `lint-baseline.json` with (the ops-plane tests read every JSON body
//! with it too). It takes exactly the JSON this workspace writes with
//! [`css_telemetry::JsonBuf`]: objects, arrays, strings with the
//! escapes `JsonBuf` emits, integers, booleans and null.

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
