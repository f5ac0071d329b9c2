//! The `css-lint` binary.
//!
//! ```text
//! css-lint [--root PATH] [--format text|json|sarif] [--list-rules]
//!          [--baseline PATH] [--write-baseline PATH] [--no-cache]
//! ```
//!
//! By default the run is incremental: per-file facts are cached in
//! `<root>/target/css-lint-cache.json` keyed by (path, mtime, size) and
//! a fingerprint of the rule set, so warm runs re-parse only changed
//! files. `--no-cache` forces a cold run (and leaves any cache file
//! untouched).
//!
//! `--baseline PATH` enforces the waiver-budget and size ratchets: the
//! run fails (exit 1) if any current waiver is not covered by the
//! committed baseline, or a crate holds more production lines or public
//! items than the baseline records. `--write-baseline PATH` regenerates
//! the baseline from the current waivers and sizes instead of checking;
//! a size that rose past the file being replaced is written with an
//! empty `"reason"` that must be filled in before the check passes.
//!
//! Exit codes: 0 — no error-severity findings and the baseline holds;
//! 1 — at least one error finding or a baseline violation; 2 — usage or
//! I/O failure.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use css_lint::manifest::find_workspace_root;
use css_lint::rules::all_rules;
use css_lint::{
    baseline, lint_workspace_with_cache, render_json, render_sarif, render_text, Timing,
};

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Sarif,
}

fn usage() -> &'static str {
    "usage: css-lint [--root PATH] [--format text|json|sarif] [--list-rules]\n\
     \x20               [--baseline PATH] [--write-baseline PATH] [--no-cache]\n"
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut list_rules = false;
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut use_cache = true;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprint!("--root needs a path\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next().as_deref() {
                Some("json") => format = Format::Json,
                Some("text") => format = Format::Text,
                Some("sarif") => format = Format::Sarif,
                _ => {
                    eprint!("--format must be `text`, `json`, or `sarif`\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => {
                    eprint!("--baseline needs a path\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--write-baseline" => match args.next() {
                Some(p) => write_baseline = Some(PathBuf::from(p)),
                None => {
                    eprint!("--write-baseline needs a path\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--no-cache" => use_cache = false,
            "--list-rules" => list_rules = true,
            "-h" | "--help" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprint!("unknown argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    if list_rules {
        for rule in all_rules() {
            println!(
                "{:<24} {:<5} {}",
                rule.id(),
                rule.severity(),
                rule.description()
            );
        }
        return ExitCode::SUCCESS;
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("css-lint: cannot determine working directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("css-lint: no workspace root found above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let cache_path = use_cache.then(|| root.join("target").join("css-lint-cache.json"));
    let started = Instant::now();
    let (mut report, stats) = match lint_workspace_with_cache(&root, cache_path.as_deref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "css-lint: failed to read workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };
    report.timing = Some(Timing {
        wall_ms: started.elapsed().as_millis() as u64,
        files_reused: stats.reused,
        files_parsed: stats.parsed,
    });

    if let Some(path) = write_baseline {
        // Sizes that rose since the file being replaced need a reason.
        let previous = baseline::load(&path).ok();
        if let Err(e) = std::fs::write(&path, baseline::render(&report, previous.as_ref())) {
            eprintln!("css-lint: cannot write baseline {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "css-lint: wrote {} waiver(s) and {} crate size(s) to {}",
            report.waived.len(),
            report.sizes.len(),
            path.display()
        );
    }

    let mut baseline_failed = false;
    if let Some(path) = baseline_path {
        match baseline::load(&path) {
            Ok(entries) => {
                for violation in baseline::check(&report, &entries) {
                    eprintln!("css-lint: {violation}");
                    baseline_failed = true;
                }
            }
            Err(e) => {
                eprintln!("css-lint: {e}");
                return ExitCode::from(2);
            }
        }
    }

    match format {
        Format::Json => print!("{}", render_json(&report)),
        Format::Sarif => print!("{}", render_sarif(&report)),
        Format::Text => print!("{}", render_text(&report)),
    }
    if baseline_failed {
        return ExitCode::from(1);
    }
    ExitCode::from(report.exit_code() as u8)
}
