//! The chaos matrix: scripted fault scenarios × policies × workloads.
//!
//! Backs the `benchfaults` binary (`bench/BENCH_faults.json`) and the
//! repo-level `tests/chaos.rs` harness. A *fault scenario* is a named,
//! deterministic [`FaultPlan`] scaled to the workload's recorded span,
//! so the same scenario stresses a 40 s grep and a 10 min mplayer run
//! at proportionate instants. [`check_invariants`] is the shared
//! robustness oracle: whatever the schedule does, every request must be
//! served, energy must stay finite and non-negative, device state
//! machines must stay legal, and the counters must be consistent with
//! the event log.

use crate::observe::{build_policy, build_workload, ObservedRun};
use crate::pool;
use ff_base::json::Value;
use ff_base::{Dur, Error, Result};
use ff_device::Transition;
use ff_sim::{EventLog, FaultPlan, ProfileFaultMode, SimConfig, Simulation};
use ff_trace::Trace;

/// The named fault scenarios of the chaos matrix.
pub const FAULT_SCENARIOS: [&str; 6] = [
    "baseline",
    "link-outage",
    "bandwidth-fade",
    "server-flap",
    "disk-storm",
    "everything",
];

/// Build a named scenario's fault plan, scaled to a run of roughly
/// `span` simulated time. Deterministic: the same `(name, span)` always
/// yields the same plan.
///
/// ```
/// use ff_base::Dur;
/// let p = ff_bench::faults::fault_plan("link-outage", Dur::from_secs(120)).unwrap();
/// assert_eq!(p.faults.len(), 1);
/// assert!(ff_bench::faults::fault_plan("meteor-strike", Dur::from_secs(120)).is_err());
/// ```
pub fn fault_plan(name: &str, span: Dur) -> Result<FaultPlan> {
    // Keep every window meaningful even for very short runs.
    let span = span.max(Dur::from_secs(8));
    let plan = match name {
        "baseline" => FaultPlan::none(),
        "link-outage" => {
            FaultPlan::none().with_link_outage(span / 4, (span / 8).max(Dur::from_secs(2)))
        }
        "bandwidth-fade" => {
            FaultPlan::none().with_bandwidth_fade(span / 5, (span / 4).max(Dur::from_secs(2)), 1.0)
        }
        "server-flap" => FaultPlan::none()
            .with_server_outage(span / 6, (span / 10).max(Dur::from_secs(2)))
            .with_server_outage(span / 2, (span / 10).max(Dur::from_secs(2))),
        "disk-storm" => FaultPlan::none().with_disk_storm(
            span / 4,
            8,
            (span / 32).max(Dur::from_secs(1)),
            262_144,
        ),
        "everything" => FaultPlan::none()
            .with_bandwidth_fade(span / 8, (span / 8).max(Dur::from_secs(2)), 1.0)
            .with_link_outage(span / 3, (span / 8).max(Dur::from_secs(2)))
            .with_server_outage((span * 5) / 8, (span / 10).max(Dur::from_secs(2)))
            .with_disk_storm(span / 2, 6, (span / 24).max(Dur::from_secs(1)), 262_144)
            .with_profile_fault(span / 6, ProfileFaultMode::Corrupt),
        other => {
            return Err(Error::Config(format!(
                "unknown fault scenario '{other}' (expected one of {})",
                FAULT_SCENARIOS.join(", ")
            )))
        }
    };
    plan.validate()?;
    Ok(plan)
}

/// Replay `workload` under `policy` with the named fault scenario
/// injected and an [`EventLog`] attached.
pub fn fault_run(workload: &str, policy: &str, scenario: &str, seed: u64) -> Result<ObservedRun> {
    let trace = build_workload(workload, seed)?;
    let plan = fault_plan(scenario, trace.stats().span)?;
    let kind = build_policy(policy, workload, seed)?;
    let mut log = EventLog::new();
    let report = Simulation::new(SimConfig::default().with_faults(plan), &trace)
        .policy(kind)
        .run_recorded(&mut log)?;
    Ok(ObservedRun { report, log })
}

/// One evaluated chaos-matrix cell: identity, the observed run, and the
/// oracle's verdicts.
pub struct FaultCell {
    /// Workload axis value.
    pub workload: String,
    /// Policy axis value.
    pub policy: String,
    /// Fault-scenario axis value.
    pub scenario: String,
    /// The run's report and event log.
    pub run: ObservedRun,
    /// Robustness-oracle findings (empty = the cell survived).
    pub violations: Vec<String>,
}

/// Run the full workload × policy × scenario chaos matrix on `jobs`
/// pool workers (`0` = one per hardware thread). Cells come back in
/// canonical order (workload-major, then policy, then scenario) and are
/// byte-identical for any `jobs` — each cell is one independent,
/// seed-deterministic simulation and the pool merges in task order.
pub fn fault_matrix(
    workloads: &[&str],
    policies: &[&str],
    scenarios: &[&str],
    seed: u64,
    jobs: usize,
) -> Result<Vec<FaultCell>> {
    let mut specs: Vec<(&str, &str, &str)> = Vec::new();
    for &w in workloads {
        for &p in policies {
            for &s in scenarios {
                specs.push((w, p, s));
            }
        }
    }
    pool::run_ordered(jobs, &specs, |_, &(w, p, s)| -> Result<FaultCell> {
        let trace = build_workload(w, seed)?;
        let run = fault_run(w, p, s, seed)?;
        let violations = check_invariants(&trace, &run);
        Ok(FaultCell {
            workload: w.to_owned(),
            policy: p.to_owned(),
            scenario: s.to_owned(),
            run,
            violations,
        })
    })?
    .into_iter()
    .collect()
}

/// The chaos harness's robustness oracle. Returns one human-readable
/// string per violated invariant (empty = the run survived):
///
/// 1. every application request was served (none lost to a fault);
/// 2. the event log agrees with the report's request/retry counters;
/// 3. all energies are finite and non-negative, and the total adds up;
/// 4. the disk's spin FSM stayed legal (spin-ups and spin-downs
///    alternate, so their counts differ by at most one);
/// 5. a failover implies at least one timed-out attempt, and the
///    retry/failover counters are zero when no server outage ran;
/// 6. execution made progress (positive span, positive energy).
pub fn check_invariants(trace: &Trace, run: &ObservedRun) -> Vec<String> {
    let r = &run.report;
    let mut violations = Vec::new();
    let mut check = |ok: bool, msg: String| {
        if !ok {
            violations.push(msg);
        }
    };

    check(
        r.app_requests == trace.len() as u64,
        format!(
            "lost requests: {} served of {} traced",
            r.app_requests,
            trace.len()
        ),
    );
    check(
        run.log.count("app_call") == r.app_requests,
        format!(
            "event log disagrees: {} app_call events vs {} app_requests",
            run.log.count("app_call"),
            r.app_requests
        ),
    );
    check(
        run.log.count("request_retry") == r.retries,
        format!(
            "event log disagrees: {} request_retry events vs {} retries",
            run.log.count("request_retry"),
            r.retries
        ),
    );

    for (name, j) in [
        ("disk", r.disk_energy),
        ("wnic", r.wnic_energy),
        ("flash", r.flash_energy),
        ("total", r.total_energy()),
    ] {
        check(
            j.get().is_finite() && j.get() >= 0.0,
            format!("{name} energy is not a finite non-negative number: {j}"),
        );
    }
    let parts = (r.disk_energy + r.wnic_energy + r.flash_energy).get();
    check(
        (r.total_energy().get() - parts).abs() <= 1e-6 * parts.max(1.0),
        format!("total energy {} != sum of parts {parts}", r.total_energy()),
    );

    let ups = r.disk_meter.transition_count(Transition::SpinUp);
    let downs = r.disk_meter.transition_count(Transition::SpinDown);
    check(
        ups.abs_diff(downs) <= 1,
        format!("disk FSM illegal: {ups} spin-ups vs {downs} spin-downs"),
    );

    check(
        r.failovers == 0 || r.retries > 0,
        format!(
            "{} failovers without a single timed-out attempt",
            r.failovers
        ),
    );

    check(
        !r.exec_time.is_zero(),
        "run finished in zero simulated time".into(),
    );
    check(r.total_energy().get() > 0.0, "run drew zero energy".into());

    violations
}

/// One chaos-matrix cell as a JSON object (deterministic field order).
pub fn cell_json(
    workload: &str,
    policy: &str,
    scenario: &str,
    run: &ObservedRun,
    violations: &[String],
) -> Value {
    let r = &run.report;
    Value::Object(vec![
        ("workload".into(), Value::Str(workload.into())),
        ("policy".into(), Value::Str(policy.into())),
        ("scenario".into(), Value::Str(scenario.into())),
        ("total_j".into(), Value::Float(r.total_energy().get())),
        ("exec_time_us".into(), Value::UInt(r.exec_time.as_micros())),
        ("app_requests".into(), Value::UInt(r.app_requests)),
        ("faults_injected".into(), Value::UInt(r.faults_injected)),
        ("retries".into(), Value::UInt(r.retries)),
        ("failovers".into(), Value::UInt(r.failovers)),
        ("decisions".into(), Value::UInt(r.decisions.len() as u64)),
        ("events".into(), Value::UInt(run.log.len() as u64)),
        (
            "violations".into(),
            Value::Array(violations.iter().map(|v| Value::Str(v.clone())).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_resolves_and_scales() {
        for s in FAULT_SCENARIOS {
            let plan = fault_plan(s, Dur::from_secs(100)).unwrap();
            assert!(plan.validate().is_ok(), "{s}");
            // Even a degenerate span yields a valid plan.
            let tiny = fault_plan(s, Dur::ZERO).unwrap();
            assert!(tiny.validate().is_ok(), "{s} at zero span");
        }
        assert!(fault_plan("meteor-strike", Dur::from_secs(100)).is_err());
        assert_eq!(
            fault_plan("baseline", Dur::from_secs(100)).unwrap(),
            FaultPlan::none()
        );
    }

    #[test]
    fn clean_run_passes_the_oracle() {
        let trace = build_workload("grep", 42).unwrap();
        let run = fault_run("grep", "disk", "baseline", 42).unwrap();
        let violations = check_invariants(&trace, &run);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(run.report.faults_injected, 0);
    }

    #[test]
    fn faulted_run_passes_the_oracle() {
        let trace = build_workload("grep", 42).unwrap();
        let run = fault_run("grep", "flexfetch", "everything", 42).unwrap();
        let violations = check_invariants(&trace, &run);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(run.report.faults_injected > 0);
    }

    #[test]
    fn oracle_notices_a_lost_request() {
        let trace = build_workload("grep", 42).unwrap();
        let mut run = fault_run("grep", "disk", "baseline", 42).unwrap();
        run.report.app_requests -= 1;
        let violations = check_invariants(&trace, &run);
        assert!(violations.iter().any(|v| v.contains("lost requests")));
    }
}
