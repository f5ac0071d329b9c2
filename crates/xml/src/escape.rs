//! Escaping and unescaping of XML character data.

use std::borrow::Cow;

/// Whether `b` must be written as an entity: `&`, `<`, `>` anywhere,
/// and the two quotes inside attribute values.
fn needs_escape(b: u8, attr: bool) -> bool {
    matches!(b, b'&' | b'<' | b'>') || (attr && matches!(b, b'"' | b'\''))
}

/// Append `s` to `out` with the predefined entities substituted — the
/// one place the entity text is written.
fn push_escaped(out: &mut String, s: &str, attr: bool) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' if attr => out.push_str("&quot;"),
            '\'' if attr => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
}

/// Escape, in place, what was appended to `out` from byte `start` on.
/// Values that need no escaping — ids, numbers, hex, most text — cost
/// one scan and no copy.
pub(crate) fn escape_tail(out: &mut String, start: usize, attr: bool) {
    let first = out.as_bytes()[start..]
        .iter()
        .position(|&b| needs_escape(b, attr));
    if let Some(first) = first {
        let tail = out.split_off(start + first);
        push_escaped(out, &tail, attr);
    }
}

/// Expand the five predefined entities plus decimal/hex character
/// references. Unknown entities are an error (returned as `None`).
/// Text without an entity — ids, numbers, hex, most values — comes back
/// borrowed.
pub fn unescape(s: &str) -> Option<Cow<'_, str>> {
    let Some(first) = s.find('&') else {
        return Some(Cow::Borrowed(s));
    };
    let mut out = String::with_capacity(s.len());
    out.push_str(&s[..first]);
    let mut rest = &s[first..];
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos..];
        let end = rest.find(';')?;
        let entity = &rest[1..end];
        match entity {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ => {
                let code = if let Some(hex) = entity.strip_prefix("#x") {
                    u32::from_str_radix(hex, 16).ok()?
                } else if let Some(dec) = entity.strip_prefix('#') {
                    dec.parse::<u32>().ok()?
                } else {
                    return None;
                };
                out.push(char::from_u32(code)?);
            }
        }
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
    Some(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `s` escaped as the tail of a buffer whose head would itself need
    /// escaping: only the tail may change.
    fn escaped(s: &str, attr: bool) -> String {
        let mut out = String::from("kept<");
        out.push_str(s);
        escape_tail(&mut out, 5, attr);
        assert!(out.starts_with("kept<"));
        out.split_off(5)
    }

    #[test]
    fn plain_tail_is_left_alone() {
        assert_eq!(escaped("hello", true), "hello");
        assert_eq!(escaped("", false), "");
    }

    #[test]
    fn text_escaping() {
        assert_eq!(escaped("a<b&c>d", false), "a&lt;b&amp;c&gt;d");
        // Quotes are left alone in text content.
        assert_eq!(escaped(r#"say "hi""#, false), r#"say "hi""#);
    }

    #[test]
    fn attr_escaping() {
        assert_eq!(escaped(r#"a"b'c"#, true), "a&quot;b&apos;c");
    }

    #[test]
    fn unescape_roundtrip() {
        let original = r#"<results> "AIDS test" & more's </results>"#;
        assert_eq!(unescape(&escaped(original, true)).unwrap(), original);
    }

    #[test]
    fn unescape_char_references() {
        assert_eq!(unescape("&#65;&#x42;").unwrap(), "AB");
        assert_eq!(unescape("caf&#xE9;").unwrap(), "café");
    }

    #[test]
    fn unescape_rejects_unknown_entity() {
        assert!(unescape("&nbsp;").is_none());
        assert!(unescape("&unterminated").is_none());
        assert!(unescape("&#xZZ;").is_none());
        assert!(unescape("&#1114112;").is_none()); // beyond char::MAX
    }

    #[test]
    fn unicode_passthrough() {
        assert_eq!(escaped("trentò", false), "trentò");
        assert_eq!(unescape("trentò").unwrap(), "trentò");
    }
}
