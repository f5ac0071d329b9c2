//! The `css-lint` binary over a one-crate workspace in a temp dir: its
//! three flags, and `--write-baseline` refusing to replace a baseline
//! it cannot read.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A workspace of one crate, `css-types`, with one production line.
fn workspace(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("css-lint-cli-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("crates/types/src")).unwrap();
    fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/types\"]\n",
    )
    .unwrap();
    fs::write(
        root.join("crates/types/Cargo.toml"),
        "[package]\nname = \"css-types\"\n",
    )
    .unwrap();
    fs::write(
        root.join("crates/types/src/lib.rs"),
        "pub fn one() -> u8 { 1 }\n",
    )
    .unwrap();
    root
}

fn css_lint(root: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_css-lint"))
        .arg("--root")
        .arg(root)
        .args(args)
        .output()
        .expect("run css-lint")
}

#[test]
fn write_baseline_over_a_corrupt_baseline_writes_nothing() {
    let root = workspace("corrupt");
    let path = root.join("lint-baseline.json");
    let truncated = "{\n  \"version\": 2,\n  \"sizes\": [\n    {\"crate\":\"css-types\",\"pro";
    fs::write(&path, truncated).unwrap();

    let out = css_lint(&root, &["--write-baseline", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("not valid JSON"),
        "{out:?}"
    );
    assert_eq!(fs::read_to_string(&path).unwrap(), truncated);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn write_baseline_over_no_file_writes_one_and_rewrites_it_byte_identically() {
    let root = workspace("fresh");
    let path = root.join("lint-baseline.json");
    let arg = path.to_str().unwrap();

    let out = css_lint(&root, &["--write-baseline", arg]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let first = fs::read_to_string(&path).unwrap();
    assert!(
        first.contains("{\"crate\":\"css-types\",\"prod_lines\":1,\"pub_items\":1}"),
        "{first}"
    );

    assert_eq!(
        css_lint(&root, &["--write-baseline", arg]).status.code(),
        Some(0)
    );
    assert_eq!(fs::read_to_string(&path).unwrap(), first);
    assert_eq!(css_lint(&root, &["--baseline", arg]).status.code(), Some(0));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn the_three_flags_are_the_whole_interface() {
    let root = workspace("flags");
    let help = css_lint(&root, &["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&help.stdout),
        "usage: css-lint [--root PATH] [--baseline PATH] [--write-baseline PATH]\n"
    );
    for gone in [&["--format", "json"][..], &["--list-rules"]] {
        let out = css_lint(&root, gone);
        assert_eq!(out.status.code(), Some(2), "{gone:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{gone:?}: {out:?}");
    }
    let _ = fs::remove_dir_all(&root);
}
