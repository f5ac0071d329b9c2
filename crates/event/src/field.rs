//! Typed fields of event details.
//!
//! Definition 1 models an event details as a list of fields
//! `e = {f_1, ..., f_k}`. Here every field carries a declared kind
//! ([`FieldKind`], used for schema validation) and a value
//! ([`FieldValue`]). The dedicated [`FieldValue::Empty`] variant is
//! load-bearing: the enforcement pipeline blanks unauthorized fields
//! rather than removing them, so responses keep the declared shape.

use std::fmt;
use std::str::FromStr;

use css_types::Timestamp;

/// A fixed-point decimal (mantissa × 10^-scale).
///
/// Clinical values (hemoglobin levels, autonomy scores) need exact
/// decimal semantics with `Eq`/`Ord`, which floats cannot give.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Decimal {
    mantissa: i64,
    scale: u8,
}

impl Decimal {
    /// Construct from a mantissa and scale: `Decimal::new(135, 1)` is 13.5.
    pub fn new(mantissa: i64, scale: u8) -> Self {
        Decimal { mantissa, scale }.normalized()
    }

    /// A whole number.
    pub fn whole(n: i64) -> Self {
        Decimal {
            mantissa: n,
            scale: 0,
        }
    }

    fn normalized(mut self) -> Self {
        while self.scale > 0 && self.mantissa % 10 == 0 {
            self.mantissa /= 10;
            self.scale -= 1;
        }
        self
    }
}

impl PartialOrd for Decimal {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Decimal {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Compare by scaling both to the larger scale; mantissas fit in
        // i128 after scaling.
        let max_scale = self.scale.max(other.scale);
        let a = self.mantissa as i128 * 10i128.pow((max_scale - self.scale) as u32);
        let b = other.mantissa as i128 * 10i128.pow((max_scale - other.scale) as u32);
        a.cmp(&b)
    }
}

impl fmt::Display for Decimal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.scale == 0 {
            return write!(f, "{}", self.mantissa);
        }
        let sign = if self.mantissa < 0 { "-" } else { "" };
        let abs = self.mantissa.unsigned_abs();
        let pow = 10u64.pow(self.scale as u32);
        write!(
            f,
            "{sign}{}.{:0width$}",
            abs / pow,
            abs % pow,
            width = self.scale as usize
        )
    }
}

impl FromStr for Decimal {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (sign, body) = match s.strip_prefix('-') {
            Some(rest) => (-1i64, rest),
            None => (1, s),
        };
        let (int_part, frac_part) = match body.split_once('.') {
            Some((_, "")) => return Err(format!("invalid decimal {s:?}")),
            Some((i, fr)) => (i, fr),
            None => (body, ""),
        };
        if int_part.is_empty()
            || !int_part.bytes().all(|b| b.is_ascii_digit())
            || !frac_part.bytes().all(|b| b.is_ascii_digit())
            || frac_part.len() > 18
        {
            return Err(format!("invalid decimal {s:?}"));
        }
        let digits: String = format!("{int_part}{frac_part}");
        let mantissa: i64 = digits
            .parse::<i64>()
            .map_err(|e| format!("decimal out of range {s:?}: {e}"))?;
        Ok(Decimal::new(sign * mantissa, frac_part.len() as u8))
    }
}

/// The declared kind of a field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldKind {
    /// Free text.
    Text,
    /// 64-bit signed integer.
    Integer,
    /// Fixed-point decimal.
    Decimal,
    /// Boolean.
    Boolean,
    /// Instant in time.
    DateTime,
    /// One of an enumerated set of codes.
    Code(Vec<String>),
}

impl FieldKind {
    /// Parse a textual value into a [`FieldValue`] of this kind.
    pub fn parse_value(&self, text: &str) -> Result<FieldValue, String> {
        if text.is_empty() {
            return Ok(FieldValue::Empty);
        }
        match self {
            FieldKind::Text => Ok(FieldValue::Text(text.to_string())),
            FieldKind::Integer => text
                .parse::<i64>()
                .map(FieldValue::Integer)
                .map_err(|e| format!("bad integer {text:?}: {e}")),
            FieldKind::Decimal => text.parse::<Decimal>().map(FieldValue::Decimal),
            FieldKind::Boolean => match text {
                "true" => Ok(FieldValue::Boolean(true)),
                "false" => Ok(FieldValue::Boolean(false)),
                _ => Err(format!("bad boolean {text:?}")),
            },
            FieldKind::DateTime => parse_timestamp(text)
                .map(FieldValue::DateTime)
                .ok_or_else(|| format!("bad datetime {text:?}")),
            FieldKind::Code(allowed) => {
                in_enumeration(allowed, text).map(|()| FieldValue::Code(text.to_string()))
            }
        }
    }

    /// Whether `text` is a well-typed value of this kind — the outcome
    /// of [`FieldKind::parse_value`] without the value: what a decoder
    /// does with a field it checks but may not hold.
    pub fn check_value(&self, text: &str) -> Result<(), String> {
        match self {
            // Any text is a text value, and nothing is copied to say so.
            FieldKind::Text => Ok(()),
            FieldKind::Code(allowed) if !text.is_empty() => in_enumeration(allowed, text),
            // The other kinds parse to plain numbers: parsing is the check.
            _ => self.parse_value(text).map(drop),
        }
    }
}

fn in_enumeration(allowed: &[String], text: &str) -> Result<(), String> {
    if allowed.iter().any(|a| a == text) {
        Ok(())
    } else {
        Err(format!("code {text:?} not in enumeration"))
    }
}

/// Parse the `YYYY-MM-DDTHH:MM:SS.mmmZ` form emitted by
/// `css_types::Timestamp`'s `Display`.
fn parse_timestamp(s: &str) -> Option<Timestamp> {
    let s = s.strip_suffix('Z')?;
    let (date, time) = s.split_once('T')?;
    let mut dp = date.split('-');
    let (y, mo, d): (i64, u32, u32) = (
        dp.next()?.parse().ok()?,
        dp.next()?.parse().ok()?,
        dp.next()?.parse().ok()?,
    );
    if dp.next().is_some() || !(1..=12).contains(&mo) || !(1..=31).contains(&d) {
        return None;
    }
    let (hms, millis) = match time.split_once('.') {
        Some((a, b)) => (a, b.parse::<u64>().ok()?),
        None => (time, 0),
    };
    let mut tp = hms.split(':');
    let (h, mi, sec): (u64, u64, u64) = (
        tp.next()?.parse().ok()?,
        tp.next()?.parse().ok()?,
        tp.next()?.parse().ok()?,
    );
    if tp.next().is_some() || h > 23 || mi > 59 || sec > 60 {
        return None;
    }
    let days = days_from_civil(y, mo, d);
    if days < 0 {
        return None;
    }
    Some(Timestamp(
        (days as u64) * 86_400_000 + h * 3_600_000 + mi * 60_000 + sec * 1_000 + millis,
    ))
}

/// Howard Hinnant's `days_from_civil`.
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u64;
    let mp = if m > 2 { m - 3 } else { m + 9 } as u64;
    let doy = (153 * mp + 2) / 5 + (d as u64 - 1);
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe as i64 - 719_468
}

/// A field's value inside an event details instance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FieldValue {
    /// Free text.
    Text(String),
    /// Integer.
    Integer(i64),
    /// Fixed-point decimal.
    Decimal(Decimal),
    /// Boolean.
    Boolean(bool),
    /// Instant.
    DateTime(Timestamp),
    /// Enumerated code.
    Code(String),
    /// No value — either never filled in, or blanked by the policy
    /// enforcer ("fields that are not authorized are left empty").
    Empty,
}

impl FieldValue {
    /// Whether this is the empty value (`e[f]` empty in Definition 4).
    pub fn is_empty(&self) -> bool {
        matches!(self, FieldValue::Empty)
    }

    /// Textual form used in XML serialization. Empty renders as "".
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// Approximate serialized size in bytes, used by the benchmark
    /// harness to count sensitive bytes crossing boundaries.
    pub fn byte_size(&self) -> usize {
        self.render().len()
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::Text(s) | FieldValue::Code(s) => f.write_str(s),
            FieldValue::Integer(i) => write!(f, "{i}"),
            FieldValue::Decimal(d) => write!(f, "{d}"),
            FieldValue::Boolean(b) => write!(f, "{b}"),
            FieldValue::DateTime(t) => write!(f, "{t}"),
            FieldValue::Empty => Ok(()),
        }
    }
}

/// Declaration of a field in an event schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name, unique within the schema.
    pub name: String,
    /// Declared kind.
    pub kind: FieldKind,
    /// Whether instances must carry a non-empty value at the source.
    pub required: bool,
    /// Whether this field is sensitive (health data, test results).
    /// Used by the simulation metrics to count sensitive exposure.
    pub sensitive: bool,
}

impl FieldDef {
    /// A required field.
    pub fn required(name: impl Into<String>, kind: FieldKind) -> Self {
        FieldDef {
            name: name.into(),
            kind,
            required: true,
            sensitive: false,
        }
    }

    /// An optional field.
    pub fn optional(name: impl Into<String>, kind: FieldKind) -> Self {
        FieldDef {
            name: name.into(),
            kind,
            required: false,
            sensitive: false,
        }
    }

    /// Builder: mark the field sensitive.
    pub fn sensitive(mut self) -> Self {
        self.sensitive = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_parse_display_roundtrip() {
        for s in ["13.5", "0.05", "-2.75", "100", "-7", "0"] {
            let d: Decimal = s.parse().unwrap();
            assert_eq!(d.to_string(), s, "roundtrip {s}");
        }
    }

    #[test]
    fn decimal_normalization() {
        let a: Decimal = "13.50".parse().unwrap();
        let b: Decimal = "13.5".parse().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "13.5");
    }

    #[test]
    fn decimal_ordering_across_scales() {
        let a: Decimal = "13.5".parse().unwrap();
        let b: Decimal = "13.45".parse().unwrap();
        let c: Decimal = "-1.2".parse().unwrap();
        assert!(a > b);
        assert!(c < b);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn decimal_rejects_garbage() {
        for s in ["", ".", "1.", ".5", "1.2.3", "abc", "--1", "1e5"] {
            assert!(s.parse::<Decimal>().is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn parse_value_per_kind() {
        assert_eq!(
            FieldKind::Integer.parse_value("42").unwrap(),
            FieldValue::Integer(42)
        );
        assert_eq!(
            FieldKind::Boolean.parse_value("true").unwrap(),
            FieldValue::Boolean(true)
        );
        assert!(FieldKind::Integer.parse_value("x").is_err());
        let code = FieldKind::Code(vec!["negative".into(), "positive".into()]);
        assert_eq!(
            code.parse_value("negative").unwrap(),
            FieldValue::Code("negative".into())
        );
        assert!(code.parse_value("inconclusive").is_err());
    }

    #[test]
    fn check_value_agrees_with_parse_value() {
        let kinds = [
            FieldKind::Text,
            FieldKind::Integer,
            FieldKind::Decimal,
            FieldKind::Boolean,
            FieldKind::DateTime,
            FieldKind::Code(vec!["positive".into(), "negative".into()]),
        ];
        let texts = [
            "",
            "42",
            "-1.50",
            "true",
            "2010-09-13T08:30:00.000Z",
            "negative",
            "anything at all",
        ];
        for kind in &kinds {
            for text in texts {
                assert_eq!(
                    kind.check_value(text),
                    kind.parse_value(text).map(drop),
                    "{kind:?} {text:?}"
                );
            }
        }
    }

    #[test]
    fn empty_text_parses_to_empty() {
        for kind in [
            FieldKind::Text,
            FieldKind::Integer,
            FieldKind::Decimal,
            FieldKind::Boolean,
            FieldKind::DateTime,
        ] {
            assert_eq!(kind.parse_value("").unwrap(), FieldValue::Empty);
        }
    }

    #[test]
    fn timestamp_roundtrip_through_text() {
        let t = Timestamp(1_284_379_200_123); // 2010-09-13T12:00:00.123Z
        let rendered = FieldValue::DateTime(t).render();
        let parsed = FieldKind::DateTime.parse_value(&rendered).unwrap();
        assert_eq!(parsed, FieldValue::DateTime(t));
    }

    #[test]
    fn timestamp_rejects_malformed() {
        for s in [
            "2010-09-13",
            "2010-09-13T12:00:00",
            "2010-13-01T00:00:00Z",
            "not a date",
            "1969-12-31T23:59:59Z", // before epoch
        ] {
            assert!(
                FieldKind::DateTime.parse_value(s).is_err(),
                "should reject {s:?}"
            );
        }
    }

    #[test]
    fn field_value_render_matrix() {
        assert_eq!(FieldValue::Integer(-3).render(), "-3");
        assert_eq!(FieldValue::Empty.render(), "");
        assert_eq!(FieldValue::Boolean(false).render(), "false");
        assert_eq!(FieldValue::Decimal("2.5".parse().unwrap()).render(), "2.5");
    }

    #[test]
    fn field_def_builders() {
        let f = FieldDef::required("hiv_result", FieldKind::Text).sensitive();
        assert!(f.required && f.sensitive);
        let g = FieldDef::optional("notes", FieldKind::Text);
        assert!(!g.required && !g.sensitive);
    }
}
