//! Shape-regression tests: every qualitative claim of §3.3 that the
//! reproduction commits to (see DESIGN.md §4) is pinned here, so a code
//! change that silently breaks a figure fails CI instead of EXPERIMENTS.md.
//!
//! These run the full paper scenarios; they are the slowest tests in the
//! workspace (a few seconds each in debug).

use ff_bench::Scenario;
use flexfetch::base::{Dur, Joules};
use flexfetch::prelude::*;

fn run(scenario: &Scenario, kind: PolicyKind, cfg: SimConfig) -> Joules {
    let cfg = scenario.configure(cfg);
    Simulation::new(cfg, &scenario.trace)
        .policy(kind)
        .run()
        .expect("scenario is valid")
        .total_energy()
}

fn four(scenario: &Scenario, cfg: SimConfig) -> (f64, f64, f64, f64) {
    let ff = run(
        scenario,
        PolicyKind::flexfetch(scenario.profile.clone()),
        cfg.clone(),
    );
    let bf = run(scenario, PolicyKind::BlueFs, cfg.clone());
    let disk = run(scenario, PolicyKind::DiskOnly, cfg.clone());
    let wnic = run(scenario, PolicyKind::WnicOnly, cfg);
    (ff.get(), bf.get(), disk.get(), wnic.get())
}

// ---------------------------------------------------------------- Fig 1

#[test]
fn fig1_low_latency_orderings() {
    let s = Scenario::grep_make(42).unwrap();
    let (ff, bluefs, disk, wnic) = four(&s, SimConfig::default());
    // §3.3.1: FlexFetch wins; WNIC-only beats Disk-only at low latency;
    // BlueFS burns both devices and lands worst.
    assert!(ff < wnic, "FlexFetch {ff} must beat WNIC-only {wnic}");
    assert!(wnic < disk, "WNIC-only {wnic} must beat Disk-only {disk}");
    assert!(
        bluefs > wnic,
        "BlueFS {bluefs} must exceed WNIC-only {wnic}"
    );
    assert!(
        bluefs > disk * 0.95,
        "BlueFS {bluefs} must be at Disk-only scale {disk}"
    );
}

#[test]
fn fig1_wnic_only_rises_with_latency() {
    let s = Scenario::grep_make(42).unwrap();
    let lo = run(&s, PolicyKind::WnicOnly, SimConfig::default());
    let hi = run(
        &s,
        PolicyKind::WnicOnly,
        SimConfig::default().with_wnic_latency(Dur::from_millis(30)),
    );
    assert!(
        hi.get() > lo.get() * 1.03,
        "30 ms of latency must cost ≥3%: {lo} -> {hi}"
    );
}

#[test]
fn fig1_bandwidth_crossover() {
    // §3.3.1/Fig 1(b): at 1 Mbps WNIC-only exceeds Disk-only; FlexFetch
    // benefits monotonically from more bandwidth.
    let s = Scenario::grep_make(42).unwrap();
    let cfg = |mbps: f64| SimConfig::default().with_wnic_bandwidth_mbps(mbps);
    let wnic_1 = run(&s, PolicyKind::WnicOnly, cfg(1.0));
    let disk_1 = run(&s, PolicyKind::DiskOnly, cfg(1.0));
    assert!(
        wnic_1 > disk_1,
        "1 Mbps WNIC-only {wnic_1} must exceed Disk-only {disk_1}"
    );
    let ff_1 = run(&s, PolicyKind::flexfetch(s.profile.clone()), cfg(1.0));
    let ff_11 = run(&s, PolicyKind::flexfetch(s.profile.clone()), cfg(11.0));
    assert!(
        ff_11 < ff_1,
        "FlexFetch must benefit from bandwidth: {ff_1} -> {ff_11}"
    );
    assert!(
        ff_1 < wnic_1,
        "FlexFetch must escape the slow link: {ff_1} vs {wnic_1}"
    );
}

// ---------------------------------------------------------------- Fig 2

#[test]
fn fig2_flexfetch_tracks_wnic_only() {
    let s = Scenario::mplayer(42).unwrap();
    let (ff, bluefs, disk, wnic) = four(&s, SimConfig::default());
    // §3.3.2: FlexFetch ≈ WNIC-only (within 10 %); BlueFS even higher
    // than Disk-only; Disk-only wasteful for paced streaming.
    assert!(
        (ff - wnic).abs() / wnic < 0.10,
        "FlexFetch {ff} !≈ WNIC-only {wnic}"
    );
    assert!(
        bluefs > disk,
        "BlueFS {bluefs} must exceed Disk-only {disk} (ghost-hint waste)"
    );
    assert!(
        ff < disk * 0.85,
        "streaming on the disk must be clearly worse"
    );
}

#[test]
fn fig2_low_bandwidth_switches_to_disk() {
    let s = Scenario::mplayer(42).unwrap();
    let cfg = SimConfig::default().with_wnic_bandwidth_mbps(1.0);
    let ff = run(&s, PolicyKind::flexfetch(s.profile.clone()), cfg.clone());
    let disk = run(&s, PolicyKind::DiskOnly, cfg.clone());
    let wnic = run(&s, PolicyKind::WnicOnly, cfg);
    // §3.3.2: below 2 Mbps FlexFetch switches to the disk — comparable
    // to Disk-only, and far (paper: up to 45 %) below WNIC-only.
    assert!((ff.get() - disk.get()).abs() / disk.get() < 0.05);
    assert!(
        ff.get() < wnic.get() * 0.75,
        "FlexFetch {ff} must be ≥25% below WNIC-only {wnic} at 1 Mbps"
    );
}

// ---------------------------------------------------------------- Fig 3

#[test]
fn fig3_orderings() {
    let s = Scenario::thunderbird(42).unwrap();
    let (ff, bluefs, disk, wnic) = four(&s, SimConfig::default());
    // §3.3.3: Disk-only expensive; FlexFetch below BlueFS (paper: 17 %);
    // WNIC-only below Disk-only at low latency.
    assert!(ff < bluefs, "FlexFetch {ff} must beat BlueFS {bluefs}");
    assert!(ff < wnic && ff < disk, "FlexFetch must win outright");
    assert!(
        wnic < disk,
        "WNIC-only {wnic} must beat Disk-only {disk} at 0 ms"
    );
    assert!(
        disk > bluefs,
        "interactive reads make Disk-only the worst fixed scheme"
    );
}

#[test]
fn fig3_wnic_only_rises_toward_disk_only_with_latency() {
    let s = Scenario::thunderbird(42).unwrap();
    let lo = run(&s, PolicyKind::WnicOnly, SimConfig::default());
    let hi = run(
        &s,
        PolicyKind::WnicOnly,
        SimConfig::default().with_wnic_latency(Dur::from_millis(30)),
    );
    let disk = run(&s, PolicyKind::DiskOnly, SimConfig::default());
    assert!(hi > lo, "latency must cost energy");
    // The gap to Disk-only must shrink by at least a third over the sweep.
    let gap_lo = disk.get() - lo.get();
    let gap_hi = disk.get() - hi.get();
    assert!(
        gap_hi < gap_lo * 0.67,
        "WNIC-only must close on Disk-only: gap {gap_lo:.0} -> {gap_hi:.0}"
    );
}

// ---------------------------------------------------------------- Fig 4

#[test]
fn fig4_free_riding_beats_static() {
    let s = Scenario::grep_make_xmms(42).unwrap();
    let cfg = SimConfig::default();
    let ff = run(&s, PolicyKind::flexfetch(s.profile.clone()), cfg.clone());
    let stat = run(
        &s,
        PolicyKind::flexfetch_static(s.profile.clone()),
        cfg.clone(),
    );
    let disk = run(&s, PolicyKind::DiskOnly, cfg);
    // §3.3.4: with xmms pinning the disk awake, adaptive FlexFetch rides
    // it (≈ Disk-only) while the static variant wastes the WNIC.
    assert!(
        ff.get() < stat.get() * 0.85,
        "free riding must save ≥15%: {ff} vs static {stat}"
    );
    assert!(
        (ff.get() - disk.get()).abs() / disk.get() < 0.05,
        "free-riding FlexFetch {ff} must track Disk-only {disk}"
    );
}

#[test]
fn fig4_curves_merge_at_low_bandwidth() {
    let s = Scenario::grep_make_xmms(42).unwrap();
    let cfg = SimConfig::default().with_wnic_bandwidth_mbps(1.0);
    let ff = run(&s, PolicyKind::flexfetch(s.profile.clone()), cfg.clone());
    let stat = run(&s, PolicyKind::flexfetch_static(s.profile.clone()), cfg);
    // §3.3.4/Fig 4(b): when the link is slow both variants choose the
    // disk and the curves merge.
    assert!(
        (ff.get() - stat.get()).abs() / ff.get() < 0.05,
        "curves must merge at 1 Mbps: {ff} vs {stat}"
    );
}

// ---------------------------------------------------------------- Fig 5

#[test]
fn fig5_invalid_profile_corrected_after_one_stage() {
    let s = Scenario::acroread_invalid(42).unwrap();
    let cfg = SimConfig::default().with_wnic_latency(Dur::from_millis(10));
    let ff = run(&s, PolicyKind::flexfetch(s.profile.clone()), cfg.clone());
    let stat = run(
        &s,
        PolicyKind::flexfetch_static(s.profile.clone()),
        cfg.clone(),
    );
    let bluefs = run(&s, PolicyKind::BlueFs, cfg);
    // §3.3.5 at 10 ms: FlexFetch ~36 % below FlexFetch-static but ~15 %
    // above BlueFS (one stage is wasted probing the stale profile).
    assert!(
        ff.get() < stat.get() * 0.80,
        "audit must save ≥20% over static: {ff} vs {stat}"
    );
    assert!(
        ff > bluefs,
        "one wasted stage must cost something: {ff} vs {bluefs}"
    );
    assert!(
        ff.get() < bluefs.get() * 1.30,
        "but no more than ~one stage's worth: {ff} vs {bluefs}"
    );
}

#[test]
fn extension_mobility_adaptation_beats_static() {
    // Mid-run degradation 11 -> 1 Mbps: adaptive FlexFetch must flip to
    // the disk at a stage boundary and beat both its static variant and
    // WNIC-only.
    let s = Scenario::mplayer(42).unwrap();
    let cfg = || {
        s.configure(SimConfig::default())
            .with_faults(FaultPlan::none().with_bandwidth_step(Dur::from_secs(120), 1.0))
    };
    let ff = Simulation::new(cfg(), &s.trace)
        .policy(PolicyKind::flexfetch(s.profile.clone()))
        .run()
        .unwrap();
    let stat = run(&s, PolicyKind::flexfetch_static(s.profile.clone()), cfg());
    let wnic = run(&s, PolicyKind::WnicOnly, cfg());
    assert!(
        ff.decisions.iter().any(|(_, _, why)| *why == "audit:flip"),
        "no adaptation recorded: {:?}",
        ff.decisions
    );
    assert!(
        !ff.decisions
            .iter()
            .any(|(_, _, why)| why.starts_with("fault:")),
        "a bandwidth step is discovered by the audit, never announced: {:?}",
        ff.decisions
    );
    assert!(ff.total_energy().get() < stat.get());
    assert!(ff.total_energy().get() < wnic.get() * 0.9);
}

#[test]
fn fig5_decision_flips_exactly_at_first_stage_boundary() {
    let s = Scenario::acroread_invalid(42).unwrap();
    let report = Simulation::new(s.configure(SimConfig::default()), &s.trace)
        .policy(PolicyKind::flexfetch(s.profile.clone()))
        .run()
        .unwrap();
    let flips: Vec<_> = report
        .decisions
        .iter()
        .filter(|(_, _, why)| *why == "audit:flip")
        .collect();
    assert!(
        !flips.is_empty(),
        "the stale profile must trigger an audit flip"
    );
    assert_eq!(
        flips[0].0.as_micros(),
        40_000_000,
        "correction lands exactly at the first 40 s stage boundary"
    );
}
