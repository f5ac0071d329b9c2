//! The size ratchet against a committed baseline.
//!
//! `lint-baseline.json` records each crate's production size
//! ([`crate::engine::CrateSize`]): a run fails when a crate holds more
//! production lines or public items than its entry, when a crate has no
//! entry, or when an entry names a crate the workspace no longer has
//! (its ceiling would otherwise pass to a later crate of that name).
//! Regenerating the baseline over a smaller one writes the larger count
//! with an empty `"reason"` beside it, and an empty reason fails the
//! check — so a count only rises together with a sentence, visible in
//! review, that says why. Shrinking never fails and drops the reason.

use std::fs;
use std::path::Path;

use css_telemetry::JsonBuf;

use crate::engine::Report;
use crate::json::{parse_json, Json};

/// One crate's size ceiling, with the reason its last rise recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeEntry {
    pub crate_name: String,
    pub prod_lines: usize,
    pub pub_items: usize,
    pub reason: Option<String>,
}

/// The parsed baseline file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    pub sizes: Vec<SizeEntry>,
}

/// Load the baseline file. `Err` carries a human-readable reason.
pub fn load(path: &Path) -> Result<Baseline, String> {
    let src = fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let doc =
        parse_json(&src).ok_or_else(|| format!("baseline {} is not valid JSON", path.display()))?;
    let sizes = doc
        .get("sizes")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("baseline {} has no \"sizes\" array", path.display()))?;
    let mut out = Baseline::default();
    for s in sizes {
        let (Some(name), Some(lines), Some(items)) = (
            s.get("crate").and_then(Json::as_str),
            s.get("prod_lines").and_then(Json::as_u64),
            s.get("pub_items").and_then(Json::as_u64),
        ) else {
            return Err(format!(
                "baseline {} size entry missing crate/prod_lines/pub_items",
                path.display()
            ));
        };
        out.sizes.push(SizeEntry {
            crate_name: name.to_string(),
            prod_lines: lines as usize,
            pub_items: items as usize,
            reason: s.get("reason").and_then(Json::as_str).map(str::to_string),
        });
    }
    Ok(out)
}

/// Check the report against the baseline. Returns the list of
/// violations (empty = pass): a crate larger than its size entry (or
/// without one), a size entry whose rise still lacks its reason, or an
/// entry for a crate the report does not have.
pub fn check(report: &Report, baseline: &Baseline) -> Vec<String> {
    let mut violations = Vec::new();
    for size in &report.sizes {
        let name = &size.crate_name;
        match baseline.sizes.iter().find(|e| e.crate_name == *name) {
            None => violations.push(format!("crate {name} has no size entry in the baseline")),
            Some(e) if size.prod_lines > e.prod_lines || size.pub_items > e.pub_items => violations
                .push(format!(
                    "crate {name} grew past its baseline: {} production lines (baseline {}), \
                     {} public items (baseline {})",
                    size.prod_lines, e.prod_lines, size.pub_items, e.pub_items
                )),
            Some(e) if e.reason.as_deref() == Some("") => violations.push(format!(
                "crate {name} rose in the baseline without a reason: fill in its \"reason\""
            )),
            Some(_) => {}
        }
    }
    for e in &baseline.sizes {
        if !report.sizes.iter().any(|s| s.crate_name == e.crate_name) {
            violations.push(format!(
                "the baseline has a size entry for crate {}, which the workspace does not have: \
                 regenerate the baseline",
                e.crate_name
            ));
        }
    }
    violations
}

/// Render the current report's sizes as a baseline document, for
/// deliberate regeneration (`css-lint --write-baseline`). Against the
/// `previous` baseline, a crate whose count rose (or that is new) gets
/// an empty `"reason"` to fill in, an unchanged one keeps its reason,
/// and one that shrank loses it. With no previous baseline there is
/// nothing to rise from and no reason is asked for.
pub fn render(report: &Report, previous: Option<&Baseline>) -> String {
    let sizes: Vec<String> = report
        .sizes
        .iter()
        .map(|s| {
            let was = previous.map(|b| b.sizes.iter().find(|e| e.crate_name == s.crate_name));
            let reason = match was {
                None => None,
                Some(None) => Some(String::new()),
                Some(Some(e)) if s.prod_lines > e.prod_lines || s.pub_items > e.pub_items => {
                    Some(String::new())
                }
                Some(Some(e)) if (s.prod_lines, s.pub_items) == (e.prod_lines, e.pub_items) => {
                    e.reason.clone()
                }
                Some(Some(_)) => None,
            };
            // One compact object per line, so a review diff shows one crate.
            let mut j = JsonBuf::new();
            j.begin_object();
            j.key("crate").string(&s.crate_name);
            j.key("prod_lines").u64(s.prod_lines as u64);
            j.key("pub_items").u64(s.pub_items as u64);
            if let Some(reason) = &reason {
                j.key("reason").string(reason);
            }
            j.end_object();
            format!("    {}", j.finish())
        })
        .collect();
    format!(
        "{{\n  \"version\": 2,\n  \"sizes\": [\n{}\n  ]\n}}\n",
        sizes.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CrateSize;

    fn sized(sizes: &[(&str, usize, usize)]) -> Report {
        Report {
            sizes: sizes
                .iter()
                .map(|(name, prod_lines, pub_items)| CrateSize {
                    crate_name: name.to_string(),
                    prod_lines: *prod_lines,
                    pub_items: *pub_items,
                })
                .collect(),
            ..Report::default()
        }
    }

    fn reparse(doc: &str) -> Baseline {
        // Tests run in parallel: one directory per call.
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("css-lint-baseline-{}-{call}", std::process::id()));
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("lint-baseline.json");
        fs::write(&path, doc).unwrap();
        let loaded = load(&path).expect("load");
        let _ = fs::remove_dir_all(&dir);
        loaded
    }

    #[test]
    fn render_round_trips_through_load() {
        let before = reparse(&render(&sized(&[("a", 100, 10), ("b", 50, 5)]), None));
        let grown = sized(&[("a", 120, 10), ("b", 50, 5)]);
        let doc = render(&grown, Some(&before))
            .replace("\"reason\":\"\"", "\"reason\":\"a \\\"quoted\\\" rise\"");
        let loaded = reparse(&doc);
        assert_eq!(
            loaded.sizes,
            [
                SizeEntry {
                    crate_name: "a".into(),
                    prod_lines: 120,
                    pub_items: 10,
                    reason: Some("a \"quoted\" rise".into()),
                },
                SizeEntry {
                    crate_name: "b".into(),
                    prod_lines: 50,
                    pub_items: 5,
                    reason: None,
                },
            ]
        );
        assert!(check(&grown, &loaded).is_empty());
        // Written over itself, the document is the same bytes.
        assert_eq!(render(&grown, Some(&loaded)), doc);
    }

    #[test]
    fn sizes_may_shrink_but_not_grow() {
        let baseline = reparse(&render(&sized(&[("a", 100, 10), ("b", 50, 5)]), None));
        assert!(baseline.sizes.iter().all(|e| e.reason.is_none()));
        assert!(check(&sized(&[("a", 100, 10), ("b", 40, 5)]), &baseline).is_empty());
        let more_lines = check(&sized(&[("a", 101, 10), ("b", 50, 5)]), &baseline);
        assert_eq!(more_lines.len(), 1, "{more_lines:?}");
        assert!(more_lines[0].contains("101") && more_lines[0].contains("100"));
        assert_eq!(
            check(&sized(&[("a", 100, 10), ("b", 50, 6)]), &baseline).len(),
            1
        );
        // A crate the baseline has never seen is growth too.
        let new_crate = sized(&[("a", 100, 10), ("b", 50, 5), ("c", 1, 0)]);
        assert_eq!(check(&new_crate, &baseline).len(), 1);
        // A baseline without sizes fails until it is regenerated.
        assert_eq!(check(&new_crate, &Baseline::default()).len(), 3);
    }

    #[test]
    fn a_row_for_a_crate_that_is_gone_is_a_violation() {
        let baseline = reparse(&render(&sized(&[("a", 100, 10), ("b", 50, 5)]), None));
        let violations = check(&sized(&[("a", 100, 10)]), &baseline);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("crate b"), "{violations:?}");
        // Regenerating drops the row, and the check passes again.
        let regenerated = reparse(&render(&sized(&[("a", 100, 10)]), Some(&baseline)));
        assert_eq!(regenerated.sizes.len(), 1);
        assert!(check(&sized(&[("a", 100, 10)]), &regenerated).is_empty());
    }

    #[test]
    fn a_count_rises_only_with_a_reason_beside_it() {
        let before = reparse(&render(&sized(&[("a", 100, 10), ("b", 50, 5)]), None));
        let grown = sized(&[("a", 120, 10), ("b", 50, 5)]);
        // Regenerating over the smaller baseline leaves the reason to fill in…
        let doc = render(&grown, Some(&before));
        let unfilled = reparse(&doc);
        assert_eq!(unfilled.sizes[0].reason.as_deref(), Some(""));
        assert_eq!(unfilled.sizes[1].reason, None);
        let violations = check(&grown, &unfilled);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("reason"));
        // …and passes once it is.
        let filled = reparse(&doc.replace("\"reason\":\"\"", "\"reason\":\"new subsystem\""));
        assert!(check(&grown, &filled).is_empty());
        // An unchanged count keeps its reason; a shrunk one drops it.
        let kept = reparse(&render(&grown, Some(&filled)));
        assert_eq!(kept.sizes[0].reason.as_deref(), Some("new subsystem"));
        let shrunk = reparse(&render(
            &sized(&[("a", 90, 10), ("b", 50, 5)]),
            Some(&filled),
        ));
        assert_eq!(shrunk.sizes[0].reason, None);
    }
}
