//! Golden tests for the unit-flow family across a crate boundary: a
//! device crate exports functions whose signatures carry unit suffixes,
//! and a simulator crate consumes them. The fn summaries are built over
//! the whole workspace tree, so a millisecond value produced in one
//! crate and spent as microseconds in another is visible even though no
//! single file shows both suffixes.
//!
//! The sources are scanned, never compiled, so the snippets stay small.

use ff_lint::{analyze, Finding, Rule};
use std::path::PathBuf;

/// Device crate: a free producer with a `_ms` return and a method with
/// a `_us` parameter, both summarised from their signatures.
const DEVICE: &str = "
pub fn last_beacon_ms() -> u64 {
    42
}

impl Meter {
    pub fn push_us(&mut self, ts_us: u64) {
        self.samples.push(ts_us);
    }
}
";

/// Simulator crate: feeds the millisecond reading straight into the
/// microsecond sink. Nothing in this file spells both units, so only
/// the fn summaries can catch it.
const SIM_BAD: &str = "
pub fn record_beacon(meter: &mut Meter) {
    let stamp = last_beacon_ms();
    meter.push_us(stamp);
}
";

/// Clean twin: the boundary rescales, so the flow is consistent.
const SIM_GOOD: &str = "
pub fn record_beacon(meter: &mut Meter) {
    let stamp_us = last_beacon_ms() * 1_000;
    meter.push_us(stamp_us);
}
";

/// A return that launders a unit across the boundary: the `_us`
/// signature promises microseconds but the body hands back the
/// device crate's millisecond reading.
const SIM_BAD_RETURN: &str = "
pub fn next_wakeup_us() -> u64 {
    last_beacon_ms()
}
";

fn temp_tree(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ff-lint-dataflow-{name}-{}", std::process::id()));
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

fn unit_flow_tokens(files: &[(&str, &str)], name: &str) -> Vec<String> {
    let dir = temp_tree(name, files);
    let analysis = analyze(&dir).expect("analyze");
    analysis
        .findings
        .iter()
        .filter(|f| f.rule == Rule::UnitFlow)
        .map(|f| f.token.clone())
        .collect()
}

const DEVICE_PATH: &str = "crates/ff-device/src/meter.rs";
const SIM_PATH: &str = "crates/ff-sim/src/schedule.rs";

#[test]
fn millisecond_return_into_microsecond_method_across_crates() {
    let tokens = unit_flow_tokens(&[(DEVICE_PATH, DEVICE), (SIM_PATH, SIM_BAD)], "cross-bad");
    assert_eq!(tokens, ["call:push_us"]);
}

#[test]
fn rescaled_boundary_is_clean_across_crates() {
    let tokens = unit_flow_tokens(&[(DEVICE_PATH, DEVICE), (SIM_PATH, SIM_GOOD)], "cross-good");
    assert_eq!(tokens, Vec::<String>::new());
}

#[test]
fn cross_crate_return_contradiction_is_flagged() {
    let tokens = unit_flow_tokens(
        &[(DEVICE_PATH, DEVICE), (SIM_PATH, SIM_BAD_RETURN)],
        "cross-ret",
    );
    assert_eq!(tokens, ["ret:next_wakeup_us"]);
}

#[test]
fn cross_crate_defect_is_reported_exactly_once() {
    // One engine judges every dimension mismatch: the laundered flow
    // above is one finding in one family, never a second copy elsewhere.
    let dir = temp_tree("cross-once", &[(DEVICE_PATH, DEVICE), (SIM_PATH, SIM_BAD)]);
    let analysis = analyze(&dir).expect("analyze");
    let reports: Vec<&Finding> = analysis
        .findings
        .iter()
        .filter(|f| f.token == "call:push_us")
        .collect();
    assert_eq!(reports.len(), 1, "{reports:?}");
    assert_eq!(reports[0].rule, Rule::UnitFlow);
}
