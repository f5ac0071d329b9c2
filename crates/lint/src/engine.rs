//! Workspace loading and rule execution.
//!
//! The engine runs in two phases:
//!
//! 1. **File phase** — each source file is parsed once and distilled
//!    into its facts: its findings, with the file's own waivers
//!    applied, and its production size.
//! 2. **Workspace phase** — manifest-level rules (`check_workspace`),
//!    whose findings land in manifests, where no waiver is written.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::diag::{Finding, Severity};
use crate::manifest::{expand_members, read_manifest, Manifest};
use crate::rules::{all_rules, Rule};
use crate::source::{FileRole, SourceFile};
use crate::waiver::apply_waivers;

/// Wall-clock statistics for one lint run, in the shape report schema
/// v2 fixed. Populated by the CLI, never by the engine, so that two
/// engine runs over identical sources produce byte-identical reports
/// regardless of timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timing {
    /// End-to-end wall time of the run, in milliseconds.
    pub wall_ms: u64,
    /// Always 0 — every run parses every file; the field is part of
    /// the v2 report shape.
    pub files_reused: usize,
    /// Files that were read and parsed from disk.
    pub files_parsed: usize,
}

/// Production code a crate carries: lines holding a production token
/// and `pub fn | struct | trait | enum | type` items (`#[cfg(test)]`
/// regions, tests and examples excluded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrateSize {
    pub crate_name: String,
    pub prod_lines: usize,
    pub pub_items: usize,
}

/// The lint result for a whole workspace (or a single file).
#[derive(Debug, Default)]
pub struct Report {
    /// Workspace root the lint ran against.
    pub root: String,
    /// Active findings (not waived), reporting order.
    pub findings: Vec<Finding>,
    /// Findings suppressed by an inline waiver, with the reason.
    pub waived: Vec<Finding>,
    pub files_scanned: usize,
    /// Production size per crate, by crate name — what the baseline's
    /// size ratchet compares.
    pub sizes: Vec<CrateSize>,
    /// Run statistics; `None` for engine-produced reports (the CLI
    /// fills it in, and renderers omit it when absent).
    pub timing: Option<Timing>,
}

impl Report {
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    pub fn warnings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warn)
            .count()
    }

    /// Exit status the CLI should use.
    pub fn exit_code(&self) -> i32 {
        if self.errors() > 0 {
            1
        } else {
            0
        }
    }
}

/// Everything the engine keeps per file: its findings (waived ones
/// carrying their reason) and its production size.
struct FileFacts {
    crate_name: String,
    findings: Vec<Finding>,
    /// Production lines and public items ([`SourceFile::prod_size`]).
    prod_lines: usize,
    pub_items: usize,
}

/// Source subdirectories of a crate and the role their files get.
const SOURCE_DIRS: &[(&str, FileRole)] = &[
    ("src", FileRole::Production),
    ("tests", FileRole::Test),
    ("examples", FileRole::Test),
];

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Phase 1 for one file: parse and distill into facts.
fn build_file_facts(
    rules: &[Box<dyn Rule>],
    crate_name: &str,
    rel_path: &str,
    role: FileRole,
    src: &str,
) -> FileFacts {
    let file = SourceFile::parse(crate_name, rel_path, role, src);
    let mut findings = file.load_findings.clone();
    for rule in rules {
        rule.check_file(&file, &mut findings);
    }
    for f in &mut findings {
        if f.crate_name.is_empty() {
            f.crate_name = crate_name.to_string();
        }
    }
    let (prod_lines, pub_items) = file.prod_size();
    FileFacts {
        crate_name: crate_name.to_string(),
        findings: apply_waivers(findings, &file.waivers),
        prod_lines,
        pub_items,
    }
}

/// Phase 2: run the workspace rules and sort every finding into active
/// or waived.
fn assemble(
    root: String,
    facts: Vec<FileFacts>,
    manifests: &[Manifest],
    rules: &[Box<dyn Rule>],
) -> Report {
    let files_scanned = facts.len();
    let mut all: Vec<Finding> = Vec::new();
    for file in &facts {
        all.extend(file.findings.iter().cloned());
    }
    for rule in rules {
        rule.check_workspace(manifests, &mut all);
    }

    let mut sizes: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for file in &facts {
        let size = sizes.entry(file.crate_name.as_str()).or_default();
        size.0 += file.prod_lines;
        size.1 += file.pub_items;
    }
    let mut report = Report {
        root,
        files_scanned,
        sizes: sizes
            .into_iter()
            .map(|(name, (prod_lines, pub_items))| CrateSize {
                crate_name: name.to_string(),
                prod_lines,
                pub_items,
            })
            .collect(),
        ..Report::default()
    };
    (report.waived, report.findings) = all.into_iter().partition(Finding::is_waived);
    report
}

/// Run one file through every file-scoped rule, honoring waivers. This
/// is the fixture-testing entry point: returned findings include waived
/// ones (with `waive_reason` set) so fixtures can assert all three
/// states.
pub fn lint_file_source(
    crate_name: &str,
    rel_path: &str,
    role: FileRole,
    src: &str,
) -> Vec<Finding> {
    let rules = all_rules();
    let facts = build_file_facts(&rules, crate_name, rel_path, role, src);
    let report = assemble(String::new(), vec![facts], &[], &rules);
    let mut out = report.findings;
    out.extend(report.waived);
    out
}

/// Lint the workspace rooted at `root`: every member crate's sources
/// plus the manifest dependency graph.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let rules = all_rules();
    let root_manifest = read_manifest(root, ".")?;
    let mut manifests: Vec<Manifest> = Vec::new();
    // The root package, if the root manifest is not purely virtual.
    if !root_manifest.name.is_empty() {
        manifests.push(root_manifest.clone());
    }
    for member_dir in expand_members(root, &root_manifest.members) {
        if let Ok(m) = read_manifest(&root.join(&member_dir), &member_dir) {
            manifests.push(m);
        }
    }

    let mut facts: Vec<FileFacts> = Vec::new();
    for manifest in &manifests {
        if manifest.name.is_empty() {
            continue;
        }
        let crate_dir = if manifest.dir == "." {
            root.to_path_buf()
        } else {
            root.join(&manifest.dir)
        };
        for (sub, role) in SOURCE_DIRS {
            let mut files = Vec::new();
            collect_rs_files(&crate_dir.join(sub), &mut files);
            for path in files {
                let Ok(src) = fs::read_to_string(&path) else {
                    continue;
                };
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .display()
                    .to_string();
                facts.push(build_file_facts(&rules, &manifest.name, &rel, *role, &src));
            }
        }
    }
    Ok(assemble(
        root.display().to_string(),
        facts,
        &manifests,
        &rules,
    ))
}

/// Render the human-readable report.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    out.push_str(&format!(
        "css-lint: {} file(s) scanned, {} error(s), {} warning(s), {} waived\n",
        report.files_scanned,
        report.errors(),
        report.warnings(),
        report.waived.len()
    ));
    if let Some(t) = &report.timing {
        out.push_str(&format!(
            "css-lint: {} ms wall, {} file(s) from cache, {} parsed\n",
            t.wall_ms, t.files_reused, t.files_parsed
        ));
    }
    out
}
