//! The generated inputs depend on `--seed` and nothing else, and the
//! traced run's count metrics repeat exactly.

use std::process::Command;

fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_css-macrobench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn digest(seed: &str) -> (String, String) {
    let out = run(&["--workload", "access_churn", "--seed", seed, "--dry-run"]);
    let line = out
        .lines()
        .find(|l| l.starts_with("digest "))
        .expect("a digest line");
    let words: Vec<&str> = line.split_whitespace().collect();
    (words[2].to_string(), words[4].to_string())
}

/// The value of `name` in a JSON result line, as text.
fn metric<'a>(result: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\":{{\"value\":");
    let start = result
        .find(&key)
        .unwrap_or_else(|| panic!("no metric {name}"))
        + key.len();
    let end = start + result[start..].find(',').expect("a unit follows the value");
    &result[start..end]
}

#[test]
fn dry_run_digest_depends_on_the_seed_only() {
    let (world_a, stream_a) = digest("7");
    let (world_b, stream_b) = digest("7");
    let (world_c, stream_c) = digest("8");
    assert_eq!((&world_a, &stream_a), (&world_b, &stream_b));
    // The world is fixed; only the generated stream follows the seed.
    assert_eq!(world_a, world_c);
    assert_ne!(stream_a, stream_c);
}

#[test]
fn traced_count_metrics_repeat_exactly() {
    let traced = || {
        let out = run(&[
            "--workload",
            "access_churn",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "1",
        ]);
        out.lines().last().expect("a result line").to_string()
    };
    let (a, b) = (traced(), traced());
    for name in [
        "storage.syncs",
        "storage.audit.appends_per_op",
        "storage.audit.bytes_per_op",
        "storage.index.bytes_per_publish",
        "storage.index.reads_per_inquiry",
        "storage.gateway.bytes_per_publish",
        "storage.gateway.reads_per_detail",
        "storage.write_amp",
        "storage.disk_bytes_per_event",
        "controller.shard_imbalance_pct",
        "policy.cache_hit_ratio",
        "audit.records_per_op",
        "bus.fanout_mean",
    ] {
        assert_eq!(metric(&a, name), metric(&b, name), "{name}");
    }
}
