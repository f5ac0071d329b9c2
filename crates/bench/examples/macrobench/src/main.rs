//! E23 macrobench: an open-loop end-to-end benchmark over the public
//! `CssPlatform` API. See README.md beside this package for what every
//! metric means and how the workloads were chosen.
//!
//! ```text
//! css-macrobench --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//!                [--dry-run] [--out <file>]
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`; with
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones. Exit codes: 0 ok, 1 failed operations or a
//! broken invariant, 2 usage, 3 a run the stall guard rejected
//! (`run.sh` repeats it once).

mod exec;
mod harness;
mod model;
mod oracle;
mod phases;
mod probes;
mod reference;
mod report;
mod stats;
mod trace;
mod traced;
mod workload;
mod world;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::{Workload, WORKLOADS};

/// Parsed command line.
pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub dry_run: bool,
    pub out: Option<PathBuf>,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("macrobench: {problem}");
    eprintln!(
        "usage: css-macrobench --workload <{}> --seed <u64> --seconds <1..=60> --trace <0|1> [--dry-run] [--out <file>]",
        WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = workload::NOMINAL_SECONDS;
    let mut trace = false;
    let mut dry_run = false;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<u64>()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds must be a whole number from 1 to 60")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                };
            }
            "--dry-run" => dry_run = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        dry_run,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(problem) => return usage(&problem),
    };
    let report = if args.dry_run {
        phases::dry_run(&args)
    } else if args.trace {
        traced::run(&args)
    } else {
        phases::run(&args)
    };
    match report {
        Ok(report) => report.finish(&args),
        Err(e) => {
            eprintln!("macrobench: {e}");
            ExitCode::from(1)
        }
    }
}
