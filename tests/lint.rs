//! Tier-1 gate: the ff-lint static-analysis pass over this workspace.
//!
//! These tests pin the contract the repository makes about itself:
//!
//! * the tree is clean against the committed ratchet baseline,
//! * the determinism rule family has **zero** findings (no baselined
//!   debt, no new ones) in the simulation crates,
//! * a seeded violation — e.g. a `thread_rng()` call appearing in
//!   `ff-sim` — is caught and fails the run.

use ff_lint::{Baseline, Rule};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn committed_baseline(root: &Path) -> Baseline {
    Baseline::load(&ff_lint::default_baseline_path(root)).expect("baseline.json loads")
}

#[test]
fn workspace_is_clean_against_committed_baseline() {
    let root = workspace_root();
    let baseline = committed_baseline(&root);
    let report = ff_lint::run(&root, &baseline).expect("lint run succeeds");
    assert!(
        report.is_clean(),
        "new findings beyond crates/ff-lint/baseline.json:\n{}",
        report.to_table()
    );
}

#[test]
fn determinism_family_is_fully_burned_down() {
    let root = workspace_root();
    // No accepted debt in the baseline…
    let baseline = committed_baseline(&root);
    assert_eq!(
        baseline.keys_for_rule(Rule::Determinism).count(),
        0,
        "the determinism family must have an empty baseline"
    );
    // …and no findings in the tree either.
    let (findings, _) = ff_lint::collect_findings(&root).expect("scan succeeds");
    let determinism: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::Determinism)
        .collect();
    assert!(
        determinism.is_empty(),
        "wall-clock/ambient-RNG/unordered-iteration findings in simulation crates: \
         {determinism:?}"
    );
}

#[test]
fn panic_safety_family_is_fully_burned_down() {
    // The fault-injection work burned the last `unwrap()`/`expect()`
    // debt out of non-test library code; this gate keeps the family at
    // zero — empty in the baseline AND empty in the tree — so any new
    // panic site in lib code fails tier-1 instead of ratcheting.
    let root = workspace_root();
    let baseline = committed_baseline(&root);
    assert!(
        baseline.is_empty_for(Rule::PanicSafety),
        "the panic-safety family must have an empty baseline"
    );
    let (findings, _) = ff_lint::collect_findings(&root).expect("scan succeeds");
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::PanicSafety)
        .collect();
    assert!(
        hits.is_empty(),
        "unwrap/expect/panic! in library code: {hits:?}"
    );
}

#[test]
fn model_invariants_hold_for_the_paper_tables() {
    let root = workspace_root();
    let (findings, _) = ff_lint::collect_findings(&root).expect("scan succeeds");
    let violations: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::ModelInvariants)
        .collect();
    assert!(
        violations.is_empty(),
        "DK23DA/Aironet-350 tables violate §3 invariants: {violations:?}"
    );
}

#[test]
fn fsm_family_is_pinned_at_zero() {
    let root = workspace_root();
    // No accepted FSM debt in the baseline…
    let baseline = committed_baseline(&root);
    assert_eq!(
        baseline.keys_for_rule(Rule::Fsm).count(),
        0,
        "the fsm family must have an empty baseline"
    );
    // …and the extracted DK23DA / Aironet 350 machines model-check clean.
    let (findings, _) = ff_lint::collect_findings(&root).expect("scan succeeds");
    let fsm: Vec<_> = findings.iter().filter(|f| f.rule == Rule::Fsm).collect();
    assert!(
        fsm.is_empty(),
        "non-exhaustive/unreachable/deadlocked state machines: {fsm:?}"
    );
}

#[test]
fn semantic_families_are_pinned_at_zero() {
    // The second, third and fourth semantic waves — constant
    // provenance, event coverage, the product-state checker,
    // nondeterminism taint, trace conformance, and the four
    // abstract-interpretation families (unit flow, arithmetic safety,
    // energy bounds, timeout ordering) — have no accepted debt,
    // and this gate keeps it that way: empty in the baseline AND empty
    // in the tree, so any regression fails tier-1 rather than
    // ratcheting.
    let root = workspace_root();
    let baseline = committed_baseline(&root);
    let (findings, _) = ff_lint::collect_findings(&root).expect("scan succeeds");
    for rule in [
        Rule::UnitFlow,
        Rule::ConstProvenance,
        Rule::EventCoverage,
        Rule::ProductFsm,
        Rule::NondetTaint,
        Rule::TraceConformance,
        Rule::ArithSafety,
        Rule::EnergyBounds,
        Rule::TimeoutOrder,
    ] {
        assert!(
            baseline.is_empty_for(rule),
            "the {} family must have an empty baseline",
            rule.as_str()
        );
        let hits: Vec<_> = findings.iter().filter(|f| f.rule == rule).collect();
        assert!(hits.is_empty(), "{} findings: {hits:?}", rule.as_str());
    }
}

#[test]
fn device_fsm_tables_are_extracted_from_the_workspace() {
    let root = workspace_root();
    let analysis = ff_lint::analyze(&root).expect("scan succeeds");
    let disk = analysis
        .fsm_tables
        .iter()
        .find(|t| t.enum_name == "DiskState")
        .expect("DiskState machine extracted from crates/ff-device/src/disk.rs");
    let wnic = analysis
        .fsm_tables
        .iter()
        .find(|t| t.enum_name == "WnicState")
        .expect("WnicState machine extracted from crates/ff-device/src/wnic.rs");
    // The four-edge cycles from the paper's device models (§3).
    for (from, to) in [
        ("Idle", "SpinningDown"),
        ("SpinningDown", "Standby"),
        ("Standby", "SpinningUp"),
        ("SpinningUp", "Idle"),
    ] {
        assert!(disk.has_transition(from, to), "disk {from} -> {to}");
    }
    for (from, to) in [
        ("Cam", "ToPsm"),
        ("ToPsm", "Psm"),
        ("Psm", "ToCam"),
        ("ToCam", "Cam"),
    ] {
        assert!(wnic.has_transition(from, to), "wnic {from} -> {to}");
    }
    // The failover machine added with the product checker: the outage /
    // retry-ladder / recovery cycle in ff-sim.
    let server = analysis
        .fsm_tables
        .iter()
        .find(|t| t.enum_name == "ServerPathState")
        .expect("ServerPathState machine extracted from crates/ff-sim/src/sim.rs");
    for (from, to) in [
        ("Healthy", "Down"),
        ("Down", "Healthy"),
        ("Down", "MarkedDead"),
        ("MarkedDead", "Healthy"),
    ] {
        assert!(server.has_transition(from, to), "server {from} -> {to}");
    }
}

#[test]
fn product_state_machine_proves_recovery_and_full_reachability() {
    let root = workspace_root();
    let analysis = ff_lint::analyze(&root).expect("scan succeeds");
    let product = &analysis.product;
    assert!(
        !product.capped,
        "the product exploration must not hit the cap"
    );
    assert_eq!(
        product.states, product.reachable,
        "every product state must be reachable from the initial tuple"
    );
    assert!(
        !product.recoveries.is_empty(),
        "the degraded-state recovery obligations must be checked"
    );
    for rec in &product.recoveries {
        assert!(
            rec.recovers,
            "{}::{} must reach {} again",
            rec.component, rec.state, rec.healthy
        );
    }
}

#[test]
fn committed_traces_conform_to_the_static_model() {
    let root = workspace_root();
    let analysis = ff_lint::analyze(&root).expect("scan succeeds");
    let coverage = &analysis.trace_coverage;
    assert!(
        !coverage.traces.is_empty(),
        "the committed bench traces must be replayed"
    );
    let runtime_only: Vec<_> = analysis
        .findings
        .iter()
        .filter(|f| f.rule == Rule::TraceConformance)
        .collect();
    assert!(
        runtime_only.is_empty(),
        "every runtime transition must be a static edge: {runtime_only:?}"
    );
    // The chaos traces walk every non-self edge of all three machines,
    // so the coverage-debt ledger is empty.
    assert!(
        coverage.unexercised.is_empty(),
        "static edges never exercised by a committed trace: {:?}",
        coverage.unexercised
    );
}

/// Materialise a minimal fake workspace containing one seeded violation.
fn seeded_violation_tree(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ff-lint-seed-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let src = dir.join("crates/ff-sim/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(
        src.join("lib.rs"),
        "pub fn jitter() -> u64 {\n    let mut rng = rand::thread_rng();\n    rng.gen()\n}\n",
    )
    .expect("write seed file");
    dir
}

#[test]
fn seeded_thread_rng_violation_is_caught() {
    let dir = seeded_violation_tree("api");
    let (findings, _) = ff_lint::collect_findings(&dir).expect("scan succeeds");
    assert!(
        findings
            .iter()
            .any(|f| f.rule == Rule::Determinism && f.token == "thread_rng"),
        "expected a determinism finding, got: {findings:?}"
    );
    // Against the committed (empty-for-determinism) baseline semantics,
    // that violation must fail the run.
    let delta = Baseline::empty().compare(&findings);
    assert!(!delta.is_clean());
}

/// Run the real binary through `cargo run -p ff-lint`, from the
/// workspace so the invocation matches what scripts/check.sh does.
fn run_ff_lint(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO"))
        .current_dir(workspace_root())
        .args(["run", "-q", "-p", "ff-lint", "--"])
        .args(args)
        .output()
        .expect("spawn cargo run -p ff-lint")
}

#[test]
fn cli_exits_zero_on_the_clean_workspace() {
    let out = run_ff_lint(&["--json"]);
    assert!(
        out.status.success(),
        "ff-lint --json failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"clean\": true"), "unexpected JSON: {text}");

    // The JSON report must carry the extracted device transition tables
    // and the per-family summary, including panic-reachability.
    let doc = ff_base::json::Value::parse(&text).expect("stdout is JSON");
    let fsm = doc
        .get("fsm")
        .and_then(|v| v.as_array())
        .expect("fsm array");
    let enums: Vec<_> = fsm
        .iter()
        .filter_map(|t| t.get("enum").and_then(|v| v.as_str()))
        .collect();
    assert!(enums.contains(&"DiskState"), "missing DiskState: {enums:?}");
    assert!(enums.contains(&"WnicState"), "missing WnicState: {enums:?}");
    let by_rule = doc
        .get("summary")
        .and_then(|s| s.get("by_rule"))
        .and_then(|v| v.as_array())
        .expect("by_rule array");
    assert!(
        by_rule
            .iter()
            .any(|r| r.get("rule").and_then(|v| v.as_str()) == Some("panic-reachability")),
        "missing panic-reachability family in: {text}"
    );
    // Wave 4: seventeen families, plus the product and conformance nodes.
    assert_eq!(
        by_rule.len(),
        17,
        "expected seventeen rule families: {text}"
    );
    let product = doc.get("product").expect("product node");
    assert_eq!(
        product.get("states").and_then(|v| v.as_u64()),
        product.get("reachable").and_then(|v| v.as_u64()),
        "product reachability must be total: {text}"
    );
    let conformance = doc.get("conformance").expect("conformance node");
    assert_eq!(
        conformance.get("runtime_only").and_then(|v| v.as_u64()),
        Some(0),
        "committed traces must replay with no runtime-only transitions: {text}"
    );
}

#[test]
fn cli_writes_sarif_and_product_exports() {
    let dir = std::env::temp_dir().join(format!("ff-lint-cli-exports-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let sarif_path = dir.join("lint.sarif");
    let product_path = dir.join("fsm-product.json");
    let out = run_ff_lint(&[
        "--json",
        "--sarif",
        sarif_path.to_str().expect("utf-8 temp path"),
        "--export-product",
        product_path.to_str().expect("utf-8 temp path"),
    ]);
    assert!(
        out.status.success(),
        "ff-lint with exports failed:\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let sarif = std::fs::read_to_string(&sarif_path).expect("sarif written");
    let doc = ff_base::json::Value::parse(&sarif).expect("sarif is JSON");
    assert_eq!(
        doc.get("version").and_then(|v| v.as_str()),
        Some("2.1.0"),
        "not a SARIF 2.1.0 document: {sarif}"
    );
    assert!(
        sarif.contains("\"ff-lint\""),
        "driver name missing: {sarif}"
    );
    let product = std::fs::read_to_string(&product_path).expect("product written");
    let doc = ff_base::json::Value::parse(&product).expect("product export is JSON");
    let components = doc
        .get("components")
        .and_then(|v| v.as_array())
        .expect("components array");
    assert!(
        components.len() >= 3,
        "expected the disk, wnic and server machines: {product}"
    );
}

#[test]
fn mutation_kill_rates_meet_the_ratchet_floor() {
    // The ratchet gate of the mutation engine: every probe mutant must
    // be detected at a per-family rate no lower than the recorded floor
    // in `ff_lint::mutgen::FLOORS`, and the three wave-4 families —
    // being brand new — must kill 100 % of their probes. A detector
    // regression lowers a rate below its floor and fails tier-1.
    let root = workspace_root();
    let matrix =
        ff_lint::mutgen::run(&root, ff_lint::mutgen::DEFAULT_SEED).expect("mutation engine");
    let violations = matrix.floor_violations();
    assert!(
        violations.is_empty(),
        "kill-rate floors violated:\n{}",
        violations.join("\n")
    );
    for rule in [Rule::ArithSafety, Rule::EnergyBounds, Rule::TimeoutOrder] {
        let fam = matrix
            .families
            .iter()
            .find(|f| f.rule == rule)
            .unwrap_or_else(|| panic!("{} missing from the kill matrix", rule.as_str()));
        assert!(fam.probes > 0, "{}: no probes", rule.as_str());
        assert_eq!(
            fam.kills,
            fam.probes,
            "{}: kill rate {:.2} — a new family must kill every probe",
            rule.as_str(),
            fam.rate()
        );
    }
}

#[test]
fn cli_exits_nonzero_on_a_seeded_violation() {
    let dir = seeded_violation_tree("cli");
    let out = run_ff_lint(&[
        "--json",
        "--root",
        dir.to_str().expect("utf-8 temp path"),
        "--baseline",
        dir.join("no-baseline.json")
            .to_str()
            .expect("utf-8 temp path"),
    ]);
    assert!(
        !out.status.success(),
        "ff-lint accepted a thread_rng() call in ff-sim:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("thread_rng"), "missing finding in: {text}");
}
