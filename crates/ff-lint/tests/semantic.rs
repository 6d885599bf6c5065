//! Semantic-layer integration tests: the fixtures under `tests/fixtures/`
//! are copied into synthetic workspace-shaped trees and analysed through
//! the library API, with golden assertions on the findings and on the
//! `"fsm"` section of the JSON report.
//!
//! The fixtures are plain `.rs` text that is scanned, never compiled, so
//! each one can focus on a single defect without carrying a full crate.

use ff_lint::{analyze, fsm::FsmTable, run, Baseline, Finding, Rule};
use std::path::PathBuf;

const DISK_GOOD: &str = include_str!("fixtures/disk_good.rs");
const WNIC_GOOD: &str = include_str!("fixtures/wnic_good.rs");
const WNIC_MISSING_ARM: &str = include_str!("fixtures/wnic_missing_arm.rs");
const PANIC_REACH: &str = include_str!("fixtures/panic_reach.rs");
const UNIT_MIX: &str = include_str!("fixtures/unit_mix.rs");

fn temp_tree(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ff-lint-semantic-{name}-{}", std::process::id()));
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

fn findings_for(findings: &[Finding], rule: Rule) -> Vec<&Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

fn tokens_for(findings: &[Finding], rule: Rule) -> Vec<&str> {
    findings_for(findings, rule)
        .iter()
        .map(|f| f.token.as_str())
        .collect()
}

fn pairs(table: &FsmTable) -> Vec<(&str, &str)> {
    table
        .transitions
        .iter()
        .map(|t| (t.from.as_str(), t.to.as_str()))
        .collect()
}

#[test]
fn good_machines_extract_clean_tables() {
    let dir = temp_tree(
        "good",
        &[
            ("crates/ff-device/src/disk.rs", DISK_GOOD),
            ("crates/ff-device/src/wnic.rs", WNIC_GOOD),
        ],
    );
    let analysis = analyze(&dir).expect("analyze");

    assert_eq!(
        tokens_for(&analysis.findings, Rule::Fsm),
        Vec::<&str>::new(),
        "the known-good machines must model-check clean"
    );
    assert_eq!(
        tokens_for(&analysis.findings, Rule::ModelInvariants),
        Vec::<&str>::new(),
        "the fixture parameter tables must match the pinned constants"
    );

    let [disk, wnic] = &analysis.fsm_tables[..] else {
        panic!("expected exactly two tables, got {:?}", analysis.fsm_tables);
    };

    assert_eq!(disk.enum_name, "DiskState");
    assert_eq!(disk.file, "crates/ff-device/src/disk.rs");
    assert_eq!(
        disk.states,
        ["Idle", "SpinningDown", "Standby", "SpinningUp"]
    );
    assert_eq!(disk.initial, ["Idle"]);
    assert_eq!(
        pairs(disk),
        [
            ("Idle", "SpinningDown"),
            ("SpinningDown", "Standby"),
            ("SpinningUp", "Idle"),
            ("Standby", "SpinningUp"),
        ]
    );

    assert_eq!(wnic.enum_name, "WnicState");
    assert_eq!(wnic.file, "crates/ff-device/src/wnic.rs");
    assert_eq!(wnic.states, ["Cam", "ToPsm", "Psm", "ToCam"]);
    assert_eq!(wnic.initial, ["Psm"]);
    assert_eq!(
        pairs(wnic),
        [
            ("Cam", "ToPsm"),
            ("ToPsm", "Psm"),
            ("ToCam", "Cam"),
            ("Psm", "ToCam"),
        ]
    );
}

#[test]
fn good_tree_reports_golden_fsm_json() {
    let dir = temp_tree(
        "good-json",
        &[
            ("crates/ff-device/src/disk.rs", DISK_GOOD),
            ("crates/ff-device/src/wnic.rs", WNIC_GOOD),
        ],
    );
    let report = run(&dir, &Baseline::empty()).expect("run");
    let doc = ff_base::json::Value::parse(&report.to_json()).expect("valid json");
    let tables = doc
        .get("fsm")
        .and_then(|v| v.as_array())
        .expect("fsm array");
    assert_eq!(tables.len(), 2);

    let golden = [
        (
            "crates/ff-device/src/disk.rs",
            "DiskState",
            vec![
                ("Idle", "SpinningDown"),
                ("SpinningDown", "Standby"),
                ("SpinningUp", "Idle"),
                ("Standby", "SpinningUp"),
            ],
        ),
        (
            "crates/ff-device/src/wnic.rs",
            "WnicState",
            vec![
                ("Cam", "ToPsm"),
                ("ToPsm", "Psm"),
                ("ToCam", "Cam"),
                ("Psm", "ToCam"),
            ],
        ),
    ];
    for (table, (file, enum_name, transitions)) in tables.iter().zip(&golden) {
        assert_eq!(table.get("file").and_then(|v| v.as_str()), Some(*file));
        assert_eq!(table.get("enum").and_then(|v| v.as_str()), Some(*enum_name));
        let got: Vec<(&str, &str)> = table
            .get("transitions")
            .and_then(|v| v.as_array())
            .expect("transitions array")
            .iter()
            .map(|t| {
                (
                    t.get("from").and_then(|v| v.as_str()).expect("from"),
                    t.get("to").and_then(|v| v.as_str()).expect("to"),
                )
            })
            .collect();
        assert_eq!(&got, transitions, "{enum_name}");
    }
}

#[test]
fn removed_transition_arm_is_caught() {
    let dir = temp_tree(
        "missing-arm",
        &[("crates/ff-device/src/wnic.rs", WNIC_MISSING_ARM)],
    );
    let analysis = analyze(&dir).expect("analyze");
    let tokens = tokens_for(&analysis.findings, Rule::Fsm);

    // Deleting the `ToCam` arm must surface the full causal chain: the
    // match is no longer exhaustive, `ToCam` has no way out, `Cam` can
    // no longer be reached from the initial state, and the pinned
    // ToCam -> Cam switch-completion edge is gone.
    for expected in [
        "nonexhaustive:WnicState",
        "deadlock:WnicState::ToCam",
        "unreachable:WnicState::Cam",
        "missing-transition:ToCam->Cam",
        // The synthetic tree has no disk.rs at all, which the checker
        // must report rather than silently skip.
        "fsm-missing:DiskState",
    ] {
        assert!(tokens.contains(&expected), "missing {expected}: {tokens:?}");
    }
}

#[test]
fn panic_reaching_pub_fn_is_reported() {
    let dir = temp_tree("panic-reach", &[("crates/ff-sim/src/lib.rs", PANIC_REACH)]);
    let analysis = analyze(&dir).expect("analyze");
    let reach = findings_for(&analysis.findings, Rule::PanicReach);

    assert_eq!(
        reach.iter().map(|f| f.token.as_str()).collect::<Vec<_>>(),
        ["api_entry"],
        "only the pub fn whose helper unwraps is panic-reaching"
    );
    assert!(
        reach[0].message.contains("deep_helper"),
        "the report must name the path to the panic site: {}",
        reach[0].message
    );
}

#[test]
fn mixed_unit_call_and_addition_are_reported() {
    let dir = temp_tree("unit-mix", &[("crates/ff-sim/src/lib.rs", UNIT_MIX)]);
    let analysis = analyze(&dir).expect("analyze");
    let mut tokens = tokens_for(&analysis.findings, Rule::UnitFlow);
    tokens.sort_unstable();

    assert_eq!(
        tokens,
        ["call:record_sample", "us+s"],
        "both the mixed addition and the mixed-unit call site must be flagged"
    );
}
