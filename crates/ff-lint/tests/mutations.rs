//! Mutation self-test of every rule family, driven by the automated
//! engine in [`ff_lint::mutgen`].
//!
//! Earlier revisions kept handcrafted mutant/clean fixture pairs under
//! `tests/fixtures/mutations/`. Those twins rotted whenever a detector
//! changed shape and covered only six families. The engine replaces
//! them: deterministic, seed-derived mutants (operator flips, constant
//! perturbations, guard removals, transition drops) are applied to the
//! real workspace sources *in memory*, all seventeen families re-run per
//! mutant, and a mutant counts as killed only when every family it was
//! aimed at reports a finding beyond the committed baseline.
//!
//! The tests here are the regression net that keeps the analyses from
//! rotting into always-green: if a detector stops seeing its defect
//! class, its probe survives and the kill-rate floor fails the build.

use ff_lint::mutgen::{self, KillMatrix};
use ff_lint::Rule;
use std::path::PathBuf;

fn root() -> PathBuf {
    ff_lint::default_root()
}

fn run() -> KillMatrix {
    mutgen::run(&root(), mutgen::DEFAULT_SEED).expect("mutation engine")
}

#[test]
fn every_probe_is_killed() {
    let matrix = run();
    let survivors: Vec<&str> = matrix
        .mutants
        .iter()
        .filter(|m| !m.killed)
        .map(|m| m.id.as_str())
        .collect();
    assert!(
        survivors.is_empty(),
        "surviving mutants (detector regressed): {survivors:?}"
    );
}

#[test]
fn every_family_has_a_probe_and_meets_its_floor() {
    let matrix = run();
    assert_eq!(matrix.families.len(), Rule::all().len());
    for fam in &matrix.families {
        assert!(
            fam.probes > 0,
            "{}: no probe aims at this family",
            fam.rule.as_str()
        );
        assert!(
            fam.rate() >= fam.floor,
            "{}: kill rate {:.2} below floor {:.2}",
            fam.rule.as_str(),
            fam.rate(),
            fam.floor
        );
    }
    assert!(matrix.floor_violations().is_empty());
}

/// The three interval families of wave 4 must be killed at exactly 100 % — they are
/// new and carry no grandfathered debt.
#[test]
fn wave4_families_kill_all_their_probes() {
    let matrix = run();
    for rule in [Rule::ArithSafety, Rule::EnergyBounds, Rule::TimeoutOrder] {
        let fam = matrix
            .families
            .iter()
            .find(|f| f.rule == rule)
            .unwrap_or_else(|| panic!("{} missing from matrix", rule.as_str()));
        assert_eq!(
            fam.kills,
            fam.probes,
            "{}: {}/{} probes killed",
            rule.as_str(),
            fam.kills,
            fam.probes
        );
        assert!(fam.probes > 0);
    }
}

/// Same seed ⇒ byte-identical mutant set and kill matrix. The engine is
/// part of the deterministic surface: CI regenerates the matrix and
/// diffs it against the committed artifact.
#[test]
fn engine_is_deterministic_for_a_seed() {
    let a = run().to_json();
    let b = run().to_json();
    assert_eq!(a, b, "same seed produced different kill matrices");
}

/// The committed artifact in `crates/ff-lint/killscore.json` must match
/// what the engine produces at the default seed, so the checked-in
/// matrix can never drift from the code.
#[test]
fn committed_matrix_matches_a_fresh_run() {
    let path = root().join("crates/ff-lint/killscore.json");
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let fresh = run().to_json();
    assert_eq!(
        committed.trim_end(),
        fresh.trim_end(),
        "crates/ff-lint/killscore.json is stale — regenerate with \
         `cargo run -p ff-lint -- --killscore crates/ff-lint/killscore.json`"
    );
}

/// A different seed may pick different occurrences for `Auto` probes
/// but must still produce a well-formed, fully-killed matrix.
#[test]
fn alternate_seed_still_kills_everything() {
    let matrix = mutgen::run(&root(), 0xDEAD_BEEF).expect("mutation engine");
    assert_eq!(matrix.seed, 0xDEAD_BEEF);
    assert!(
        matrix.mutants.iter().all(|m| m.killed),
        "alternate-seed survivors: {:?}",
        matrix
            .mutants
            .iter()
            .filter(|m| !m.killed)
            .map(|m| m.id.as_str())
            .collect::<Vec<_>>()
    );
}
