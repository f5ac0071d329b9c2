//! Workspace loading and rule execution.
//!
//! The engine runs in two phases:
//!
//! 1. **File phase** — each source file is parsed once and distilled
//!    into its facts: its findings and its production size.
//! 2. **Workspace phase** — manifest-level rules (`check_workspace`).
//!
//! Every finding is reported; nothing in a source file suppresses one.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::diag::Finding;
use crate::manifest::{expand_members, read_manifest, Manifest};
use crate::rules::{all_rules, Rule};
use crate::source::{FileRole, SourceFile};

/// Production code a crate carries: lines holding a production token
/// and `pub fn | struct | trait | enum | type` items (`#[cfg(test)]`
/// regions, tests and examples excluded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrateSize {
    pub crate_name: String,
    pub prod_lines: usize,
    pub pub_items: usize,
}

/// The lint result for a whole workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, reporting order.
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    /// Production size per crate, by crate name — what the baseline's
    /// size ratchet compares.
    pub sizes: Vec<CrateSize>,
}

impl Report {
    /// Every finding is an error.
    pub fn errors(&self) -> usize {
        self.findings.len()
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

/// Everything the engine keeps per file: its findings and its
/// production size.
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
    let mut findings = Vec::new();
    for rule in rules {
        rule.check_file(&file, &mut findings);
    }
    let (prod_lines, pub_items) = file.prod_size();
    FileFacts {
        crate_name: crate_name.to_string(),
        findings,
        prod_lines,
        pub_items,
    }
}

/// Phase 2: run the workspace rules and sum each crate's size.
fn assemble(facts: Vec<FileFacts>, manifests: &[Manifest], rules: &[Box<dyn Rule>]) -> Report {
    let files_scanned = facts.len();
    let mut findings: Vec<Finding> = Vec::new();
    let mut sizes: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for file in facts {
        findings.extend(file.findings);
        let size = sizes.entry(file.crate_name).or_default();
        size.0 += file.prod_lines;
        size.1 += file.pub_items;
    }
    for rule in rules {
        rule.check_workspace(manifests, &mut findings);
    }
    Report {
        findings,
        files_scanned,
        sizes: sizes
            .into_iter()
            .map(|(crate_name, (prod_lines, pub_items))| CrateSize {
                crate_name,
                prod_lines,
                pub_items,
            })
            .collect(),
    }
}

/// Run one file through every file-scoped rule: the fixture-testing
/// entry point.
pub fn lint_file_source(
    crate_name: &str,
    rel_path: &str,
    role: FileRole,
    src: &str,
) -> Vec<Finding> {
    build_file_facts(&all_rules(), crate_name, rel_path, role, src).findings
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
    Ok(assemble(facts, &manifests, &rules))
}

/// Render the human-readable report.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    out.push_str(&format!(
        "css-lint: {} file(s) scanned, {} error(s)\n",
        report.files_scanned,
        report.errors()
    ));
    out
}
