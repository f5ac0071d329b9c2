//! The `css-lint` binary.
//!
//! ```text
//! css-lint [--root PATH] [--format text|json] [--list-rules]
//!          [--baseline PATH] [--write-baseline PATH]
//! ```
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
use css_lint::{baseline, lint_workspace, render_json, render_text, Timing};

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
}

fn usage() -> &'static str {
    "usage: css-lint [--root PATH] [--format text|json] [--list-rules]\n\
     \x20               [--baseline PATH] [--write-baseline PATH]\n"
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut list_rules = false;
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" | "--baseline" | "--write-baseline" => {
                let Some(path) = args.next().map(PathBuf::from) else {
                    eprint!("{arg} needs a path\n{}", usage());
                    return ExitCode::from(2);
                };
                match arg.as_str() {
                    "--root" => root = Some(path),
                    "--baseline" => baseline_path = Some(path),
                    _ => write_baseline = Some(path),
                }
            }
            "--format" => match args.next().as_deref() {
                Some("json") => format = Format::Json,
                Some("text") => format = Format::Text,
                _ => {
                    eprint!("--format must be `text` or `json`\n{}", usage());
                    return ExitCode::from(2);
                }
            },
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

    let started = Instant::now();
    let mut report = match lint_workspace(&root) {
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
        files_reused: 0,
        files_parsed: report.files_scanned,
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
        Format::Text => print!("{}", render_text(&report)),
    }
    if baseline_failed {
        return ExitCode::from(1);
    }
    ExitCode::from(report.exit_code() as u8)
}
