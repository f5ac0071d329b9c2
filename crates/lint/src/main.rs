//! The `css-lint` binary.
//!
//! ```text
//! css-lint [--root PATH] [--baseline PATH] [--write-baseline PATH]
//! ```
//!
//! Prints one `error: [rule] file:line: message` line per finding and a
//! summary. `--baseline PATH` enforces the size ratchet: the run fails
//! (exit 1) if a crate holds more production lines or public items than
//! the committed baseline records, or the baseline and the workspace
//! disagree on which crates exist. `--write-baseline PATH` regenerates
//! the baseline from the current sizes instead of checking; a size that
//! rose past the file being replaced is written with an empty
//! `"reason"` that must be filled in before the check passes. A file
//! there that cannot be read or parsed is an error (exit 2, nothing
//! written): only a missing file means "no previous baseline".
//!
//! Exit codes: 0 — no findings and the baseline holds; 1 — at least one
//! finding or a baseline violation; 2 — usage or I/O failure.

use std::path::PathBuf;
use std::process::ExitCode;

use css_lint::manifest::find_workspace_root;
use css_lint::{baseline, lint_workspace, render_text};

fn usage() -> &'static str {
    "usage: css-lint [--root PATH] [--baseline PATH] [--write-baseline PATH]\n"
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
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

    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "css-lint: failed to read workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };

    if let Some(path) = write_baseline {
        // Sizes that rose since the file being replaced need a reason.
        let previous = match baseline::load(&path) {
            Ok(b) => Some(b),
            Err(_) if matches!(path.try_exists(), Ok(false)) => None,
            Err(e) => {
                eprintln!("css-lint: {e}; nothing written");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(&path, baseline::render(&report, previous.as_ref())) {
            eprintln!("css-lint: cannot write baseline {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "css-lint: wrote {} crate size(s) to {}",
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

    print!("{}", render_text(&report));
    if baseline_failed {
        return ExitCode::from(1);
    }
    ExitCode::from(report.exit_code() as u8)
}
