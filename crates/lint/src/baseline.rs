//! Waiver-budget and size ratchets against a committed baseline.
//!
//! `lint-baseline.json` records the waivers the workspace is allowed to
//! carry, as (rule, file) pairs. A lint run checked against the
//! baseline fails when the current waiver multiset is not a subset of
//! the baseline's — i.e. any *new* waiver (or a second waiver of the
//! same rule in the same file) must be paid for by deliberately
//! regenerating the baseline in the same change, which makes waiver
//! growth visible in review instead of accreting silently. Removing
//! waivers never fails: the ratchet only turns one way.
//!
//! The same file records each crate's production size
//! ([`crate::engine::CrateSize`]): a run fails when a crate holds more
//! production lines or public items than its entry. Regenerating the
//! baseline over a smaller one writes the larger count with an empty
//! `"reason"` beside it, and an empty reason fails the check — so a
//! count only rises together with a sentence, visible in review, that
//! says why. Shrinking never fails and drops the reason.

use std::fs;
use std::path::Path;

use css_telemetry::JsonBuf;

use crate::engine::Report;
use crate::json::{parse_json, Json};

/// One allowed waiver: the rule and the file it is waived in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    pub rule: String,
    pub file: String,
}

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
    pub waivers: Vec<BaselineEntry>,
    /// Empty for a baseline written before the size ratchet existed
    /// (sizes are then not enforced).
    pub sizes: Vec<SizeEntry>,
}

/// Load the baseline file. `Err` carries a human-readable reason.
pub fn load(path: &Path) -> Result<Baseline, String> {
    let src = fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let doc =
        parse_json(&src).ok_or_else(|| format!("baseline {} is not valid JSON", path.display()))?;
    let waivers = doc
        .get("waivers")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("baseline {} has no \"waivers\" array", path.display()))?;
    let mut out = Baseline::default();
    for w in waivers {
        let (Some(rule), Some(file)) = (
            w.get("rule").and_then(Json::as_str),
            w.get("file").and_then(Json::as_str),
        ) else {
            return Err(format!(
                "baseline {} entry missing rule/file",
                path.display()
            ));
        };
        out.waivers.push(BaselineEntry {
            rule: rule.to_string(),
            file: file.to_string(),
        });
    }
    for s in doc.get("sizes").and_then(Json::as_arr).unwrap_or_default() {
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
/// violations (empty = pass): a waiver present in the report but not
/// covered by a remaining baseline entry (multiset semantics — two
/// waivers of one rule in one file need two entries), a crate larger
/// than its size entry (or without one), or a size entry whose rise
/// still lacks its reason.
pub fn check(report: &Report, baseline: &Baseline) -> Vec<String> {
    let mut budget: Vec<BaselineEntry> = baseline.waivers.clone();
    let mut violations = Vec::new();
    for f in &report.waived {
        let entry = BaselineEntry {
            rule: f.rule.to_string(),
            file: f.file.clone(),
        };
        match budget.iter().position(|b| *b == entry) {
            Some(i) => {
                budget.swap_remove(i);
            }
            None => violations.push(format!(
                "new waiver not in baseline: {} in {} (line {})",
                f.rule, f.file, f.line
            )),
        }
    }
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
    violations
}

/// Render the current report's waivers and sizes as a baseline
/// document, for deliberate regeneration (`css-lint --write-baseline`).
/// Against the `previous` baseline, a crate whose count rose (or that
/// is new) gets an empty `"reason"` to fill in, an unchanged one keeps
/// its reason, and one that shrank loses it. With no previous baseline
/// there is nothing to rise from and no reason is asked for.
pub fn render(report: &Report, previous: Option<&Baseline>) -> String {
    // One compact object per line, so a review diff shows one crate.
    fn row(fill: impl FnOnce(&mut JsonBuf)) -> String {
        let mut j = JsonBuf::new();
        j.begin_object();
        fill(&mut j);
        j.end_object();
        format!("    {}", j.finish())
    }
    let mut entries: Vec<String> = report
        .waived
        .iter()
        .map(|f| {
            row(|j| {
                j.key("rule").string(f.rule);
                j.key("file").string(&f.file);
            })
        })
        .collect();
    entries.sort();
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
            row(|j| {
                j.key("crate").string(&s.crate_name);
                j.key("prod_lines").u64(s.prod_lines as u64);
                j.key("pub_items").u64(s.pub_items as u64);
                if let Some(reason) = &reason {
                    j.key("reason").string(reason);
                }
            })
        })
        .collect();
    format!(
        "{{\n  \"version\": 1,\n  \"waivers\": [\n{}\n  ],\n  \"sizes\": [\n{}\n  ]\n}}\n",
        entries.join(",\n"),
        sizes.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Finding, Severity};
    use crate::engine::CrateSize;

    fn waived(rule: &'static str, file: &str) -> Finding {
        Finding {
            rule,
            severity: Severity::Error,
            crate_name: "c".into(),
            file: file.into(),
            line: 1,
            message: "m".into(),
            waive_reason: Some("r".into()),
        }
    }

    fn report_with(waivers: Vec<Finding>) -> Report {
        Report {
            waived: waivers,
            ..Report::default()
        }
    }

    fn entry(rule: &str, file: &str) -> BaselineEntry {
        BaselineEntry {
            rule: rule.into(),
            file: file.into(),
        }
    }

    fn waivers(entries: Vec<BaselineEntry>) -> Baseline {
        Baseline {
            waivers: entries,
            sizes: Vec::new(),
        }
    }

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
    fn subset_passes_and_new_waiver_fails() {
        let baseline = waivers(vec![
            entry("dom-free-read-path", "a.rs"),
            entry("layering", "b.rs"),
        ]);
        let ok = report_with(vec![waived("dom-free-read-path", "a.rs")]);
        assert!(check(&ok, &baseline).is_empty());
        let bad = report_with(vec![waived("identity-taint", "c.rs")]);
        let violations = check(&bad, &baseline);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("identity-taint"));
    }

    #[test]
    fn multiset_semantics_need_one_entry_per_waiver() {
        let baseline = waivers(vec![entry("dom-free-read-path", "a.rs")]);
        let two = report_with(vec![
            waived("dom-free-read-path", "a.rs"),
            waived("dom-free-read-path", "a.rs"),
        ]);
        assert_eq!(check(&two, &baseline).len(), 1);
    }

    #[test]
    fn render_round_trips_through_load() {
        let report = report_with(vec![
            waived("dom-free-read-path", "a.rs"),
            waived("audit-before-release", "b.rs"),
        ]);
        let loaded = reparse(&render(&report, None));
        assert_eq!(loaded.waivers.len(), 2);
        assert!(loaded
            .waivers
            .contains(&entry("dom-free-read-path", "a.rs")));
        assert!(check(&report, &loaded).is_empty());
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
        assert_eq!(check(&new_crate, &waivers(Vec::new())).len(), 3);
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
