//! End-to-end tests of the `ff-lint` binary (exit codes, flags, output
//! formats), driven against both the real workspace and synthetic trees.

use std::path::PathBuf;
use std::process::Command;

fn ff_lint() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ff-lint"))
}

fn temp_tree(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ff-lint-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for (rel, contents) in files {
        let path = dir.join(rel);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("mkdir");
        }
        std::fs::write(&path, contents).expect("write");
    }
    dir
}

#[test]
fn workspace_is_clean_with_committed_baseline() {
    let out = ff_lint().output().expect("spawn");
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("— OK"), "missing OK marker: {text}");
}

#[test]
fn json_flag_emits_parseable_json() {
    let out = ff_lint().arg("--json").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = ff_base::json::Value::parse(&text).expect("stdout is JSON");
    assert_eq!(
        doc.get("summary").and_then(|s| s.get("clean")),
        Some(&ff_base::json::Value::Bool(true))
    );
}

#[test]
fn json_report_is_byte_identical_across_runs() {
    // The report is consumed by CI artifacts and diffed between runs,
    // so it must be a pure function of the tree: no timestamps, no
    // hash-map ordering, no absolute paths.
    let first = ff_lint().arg("--json").output().expect("spawn");
    let second = ff_lint().arg("--json").output().expect("spawn");
    assert!(first.status.success() && second.status.success());
    assert_eq!(
        first.stdout, second.stdout,
        "JSON report is not deterministic"
    );
}

#[test]
fn families_flag_lists_all_seventeen_rule_ids() {
    let out = ff_lint().arg("--families").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let families: Vec<&str> = text.lines().collect();
    assert_eq!(families.len(), 17, "families: {families:?}");
    for id in [
        "unit-flow",
        "const-provenance",
        "event-coverage",
        "arith-safety",
        "energy-bounds",
        "timeout-order",
    ] {
        assert!(families.contains(&id), "missing {id} in {families:?}");
    }
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = ff_lint().arg("--help").output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("--update-baseline"));
}

#[test]
fn unknown_flag_exits_two() {
    let out = ff_lint().arg("--bogus").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn violation_without_baseline_exits_one() {
    let dir = temp_tree(
        "violation",
        &[(
            "crates/ff-sim/src/lib.rs",
            "pub fn t() { let _ = std::time::Instant::now(); }\n",
        )],
    );
    let out = ff_lint()
        .args(["--root", dir.to_str().expect("utf-8"), "--baseline"])
        .arg(dir.join("absent.json"))
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Instant"));
}

#[test]
fn update_baseline_then_rerun_is_clean() {
    let dir = temp_tree(
        "ratchet",
        &[(
            "crates/ff-sim/src/lib.rs",
            "pub fn f(v: &[u8]) -> u8 { v[0] }\n",
        )],
    );
    // Seed some accepted debt…
    std::fs::write(
        dir.join("crates/ff-sim/src/debt.rs"),
        "pub fn g(v: Option<u8>) -> u8 { v.unwrap() }\n",
    )
    .expect("write debt");
    let baseline = dir.join("baseline.json");
    let root = dir.to_str().expect("utf-8");
    let up = ff_lint()
        .args(["--root", root, "--update-baseline", "--baseline"])
        .arg(&baseline)
        .output()
        .expect("spawn");
    assert!(
        up.status.success(),
        "{}",
        String::from_utf8_lossy(&up.stderr)
    );
    // …now the same tree is clean…
    let ok = ff_lint()
        .args(["--root", root, "--baseline"])
        .arg(&baseline)
        .output()
        .expect("spawn");
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stdout)
    );
    // …until the debt grows by one more occurrence.
    std::fs::write(
        dir.join("crates/ff-sim/src/debt.rs"),
        "pub fn g(v: Option<u8>) -> u8 { v.unwrap() }\n\
         pub fn h(v: Option<u8>) -> u8 { v.unwrap() }\n",
    )
    .expect("grow debt");
    let bad = ff_lint()
        .args(["--root", root, "--baseline"])
        .arg(&baseline)
        .output()
        .expect("spawn");
    assert_eq!(
        bad.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&bad.stdout)
    );
}

#[test]
fn malformed_baseline_exits_two() {
    let dir = temp_tree(
        "badbase",
        &[
            ("crates/ff-sim/src/lib.rs", "pub fn ok() {}\n"),
            ("baseline.json", "{ not json"),
        ],
    );
    let out = ff_lint()
        .args(["--root", dir.to_str().expect("utf-8"), "--baseline"])
        .arg(dir.join("baseline.json"))
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
}
