//! What a run found and how it is printed: the metric table for a
//! reader, then the one JSON result line for the driver.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use css_types::CssResult;

use crate::exec::Done;
use crate::Args;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a run found; [`Report::finish`] prints it.
#[derive(Default)]
pub struct Report {
    /// The metrics of the JSON result line, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (information,
    /// not gated).
    pub notes: Vec<String>,
    /// Operations and invariant checks attempted, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Set when the stall guard rejects the run.
    pub invalid: Option<String>,
}

impl Report {
    /// Record one executed operation.
    pub fn count(&mut self, done: &Done) {
        self.attempted += 1;
        if let Some(why) = &done.failure {
            self.fail(why);
        }
    }

    /// Record one invariant check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(&what());
        }
    }

    /// Add a client thread's counts (its failures are already printed).
    pub fn merge(&mut self, other: &Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn fail(&mut self, why: &str) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("macrobench: FAILED: {why}");
        }
    }

    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Print notes, the metric table and the JSON result line; the
    /// exit code says whether the run counts.
    pub fn finish(self, args: &Args) -> ExitCode {
        for line in &self.notes {
            println!("{line}");
        }
        for m in &self.metrics {
            println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
        }
        if let Some(why) = &self.invalid {
            eprintln!("macrobench: invalid run: {why}");
            return ExitCode::from(3);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        let line = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        );
        if let Some(path) = &args.out {
            if let Err(e) = std::fs::write(path, format!("{line}\n")) {
                eprintln!("macrobench: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
        println!("{line}");
        if self.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }
    }
}

/// A scratch directory under `target/macrobench/`, removed when the
/// run ends — normally or by a panic unwinding.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new() -> CssResult<Scratch> {
        let dir = Path::new("target/macrobench").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
