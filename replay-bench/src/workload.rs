//! The four workloads, their cells, and the set-up that builds the
//! traces, profiles, policy recipes and reference outputs of a run.

use crate::oracle::{self, CellOutput, ExportDigest};
use crate::timing::Tally;
use ff_base::{Error, Result};
use ff_bench::observe::{build_workload, summary_json, ObservedRun};
use ff_policy::PolicyKind;
use ff_profile::{Profile, Profiler};
use ff_sim::{EventLog, NullRecorder, SimConfig, Simulation};
use ff_trace::Trace;
use std::time::{Duration, Instant};

/// The six Table-3 traces, in pass order.
pub const ALL_TRACES: [&str; 6] = ff_bench::observe::WORKLOADS;

/// The traces the `chaos` workload faults (the `benchfaults` matrix rows).
pub const CHAOS_TRACES: [&str; 3] = ["grep", "xmms", "thunderbird"];

/// The fault scenario the `chaos` workload injects.
pub const CHAOS_SCENARIO: &str = "everything";

const FLEXFETCH_POLICIES: [&str; 2] = ["flexfetch", "flexfetch-static"];
const BASELINE_POLICIES: [&str; 3] = ["disk", "wnic", "bluefs"];

/// One benchmark workload: a fixed list of replay cells run once per pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// FlexFetch and FlexFetch-static over the six traces.
    FlexFetch,
    /// Disk-only, WNIC-only and BlueFS over the six traces.
    Baselines,
    /// The `Baselines` cells with an `EventLog`, JSONL and summary export.
    Export,
    /// All five policies over three traces under the `everything` faults.
    Chaos,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::FlexFetch,
        Workload::Baselines,
        Workload::Export,
        Workload::Chaos,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FlexFetch => "flexfetch",
            Workload::Baselines => "baselines",
            Workload::Export => "export",
            Workload::Chaos => "chaos",
        }
    }

    /// Resolve a command-line name.
    pub fn parse(name: &str) -> Result<Workload> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                Error::Config(format!(
                    "unknown workload '{name}' (expected flexfetch, baselines, export or chaos)"
                ))
            })
    }

    /// The trace names of the workload, in pass order.
    pub fn traces(self) -> &'static [&'static str] {
        match self {
            Workload::Chaos => &CHAOS_TRACES,
            _ => &ALL_TRACES,
        }
    }

    fn policies(self) -> &'static [&'static str] {
        match self {
            Workload::FlexFetch => &FLEXFETCH_POLICIES,
            Workload::Baselines | Workload::Export => &BASELINE_POLICIES,
            Workload::Chaos => &ff_bench::observe::POLICIES,
        }
    }

    /// Whether each cell records an `EventLog` and exports it.
    pub fn exports(self) -> bool {
        self == Workload::Export
    }
}

/// One replay cell: a trace, a policy recipe and a simulator config.
pub struct Cell {
    /// Index into [`Setup::traces`].
    pub trace: usize,
    /// Trace name (an `ff_bench::observe::WORKLOADS` entry).
    pub trace_name: &'static str,
    /// Policy name (an `ff_bench::observe::POLICIES` entry).
    pub policy: &'static str,
    /// The policy recipe, built afresh for every replay.
    pub kind: PolicyKind,
    /// Simulator configuration (carries the fault plan on `chaos`).
    pub config: SimConfig,
}

/// Everything a pass needs, plus the reference outputs every timed
/// replay is checked against.
pub struct Setup {
    /// The workload this set-up serves.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Generated traces, in [`Workload`] trace order.
    pub traces: Vec<Trace>,
    /// Prior-run profiles (seed + 1), when the workload has FlexFetch cells.
    pub profiles: Vec<Profile>,
    /// The cells of one pass, in pass order.
    pub cells: Vec<Cell>,
    /// Output of each cell in the warm-up pass.
    pub references: Vec<CellOutput>,
    /// Host time spent generating traces (`ff-trace`).
    pub build_time: Duration,
    /// Host time spent profiling prior runs (`ff-profile`).
    pub profile_time: Duration,
    /// Problems the warm-up found: chaos invariant violations and
    /// mismatches against the committed `bench/` artifacts.
    pub problems: Vec<String>,
}

impl Setup {
    /// Generate the workload's traces and profiles from `seed`, build
    /// the policy recipes, and run the warm-up pass that produces the
    /// reference outputs.
    pub fn new(workload: Workload, seed: u64) -> Result<Setup> {
        let mut build_time = Duration::ZERO;
        let mut profile_time = Duration::ZERO;
        let wants_profile = workload
            .policies()
            .iter()
            .any(|p| p.starts_with("flexfetch"));
        let mut traces = Vec::new();
        let mut profiles = Vec::new();
        let mut cells = Vec::new();
        for (ti, &name) in workload.traces().iter().enumerate() {
            let t0 = Instant::now();
            let trace = build_workload(name, seed)?;
            build_time += t0.elapsed();
            let profile = if wants_profile {
                // The recorded profile comes from another execution of
                // the same program, as in `ff_bench::observe::build_policy`.
                let t0 = Instant::now();
                let prior = build_workload(name, seed.wrapping_add(1))?;
                build_time += t0.elapsed();
                let t0 = Instant::now();
                let profile = Profiler::standard().profile(&prior);
                profile_time += t0.elapsed();
                profiles.push(profile.clone());
                Some(profile)
            } else {
                None
            };
            let config = if workload == Workload::Chaos {
                let plan = ff_bench::faults::fault_plan(CHAOS_SCENARIO, trace.stats().span)?;
                SimConfig::default().with_faults(plan)
            } else {
                SimConfig::default()
            };
            for &policy in workload.policies() {
                cells.push(Cell {
                    trace: ti,
                    trace_name: name,
                    policy,
                    kind: recipe(policy, profile.as_ref())?,
                    config: config.clone(),
                });
            }
            traces.push(trace);
        }
        let mut setup = Setup {
            workload,
            seed,
            traces,
            profiles,
            cells,
            references: Vec::new(),
            build_time,
            profile_time,
            problems: Vec::new(),
        };
        setup.warm_up()?;
        Ok(setup)
    }

    /// The warm-up pass. On `chaos` it records an `EventLog` per cell
    /// and runs the fault oracle over it; the timed passes then replay
    /// without a recorder and must still match.
    fn warm_up(&mut self) -> Result<()> {
        let mut references = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            if self.workload == Workload::Chaos {
                let trace = &self.traces[cell.trace];
                let mut log = EventLog::new();
                let report = Simulation::new(cell.config.clone(), trace)
                    .policy_boxed(cell.kind.build())
                    .run_recorded(&mut log)?;
                let out = CellOutput::new(&report, None);
                let run = ObservedRun { report, log };
                for v in ff_bench::faults::check_invariants(trace, &run) {
                    self.problems
                        .push(format!("{}/{}: {v}", cell.trace_name, cell.policy));
                }
                references.push(out);
            } else {
                references.push(self.replay(cell, None)?.0);
            }
        }
        self.problems
            .extend(oracle::check_committed(self, &references));
        self.references = references;
        Ok(())
    }

    /// Total application calls one pass replays.
    pub fn app_requests_per_pass(&self) -> u64 {
        self.references
            .iter()
            .map(|r| r.fingerprint.app_requests)
            .sum()
    }

    /// Replay one cell and return its output with the host time of the
    /// replay (and, on `export`, of the JSONL and summary export). With
    /// a `tally`, the policy and recorder run inside the timing
    /// decorators and every layer's share is added to it.
    pub fn replay(&self, cell: &Cell, tally: Option<&Tally>) -> Result<(CellOutput, Duration)> {
        let trace = &self.traces[cell.trace];
        let t0 = Instant::now();
        let policy = match tally {
            Some(t) => t.wrap(cell.kind.build()),
            None => cell.kind.build(),
        };
        let sim = Simulation::new(cell.config.clone(), trace).policy_boxed(policy);
        if !self.workload.exports() {
            let report = match tally {
                Some(t) => t.run(sim, &mut NullRecorder)?,
                None => sim.run()?,
            };
            let elapsed = t0.elapsed();
            return Ok((CellOutput::new(&report, None), elapsed));
        }
        let mut log = EventLog::new();
        let report = match tally {
            Some(t) => t.run(sim, &mut log)?,
            None => sim.run_recorded(&mut log)?,
        };
        let t1 = Instant::now();
        let jsonl = log.to_jsonl();
        let t2 = Instant::now();
        let events = log.len() as u64;
        let run = ObservedRun { report, log };
        let summary = summary_json(&run, cell.trace_name, cell.policy, self.seed).to_pretty();
        let t3 = Instant::now();
        if let Some(t) = tally {
            t.add_export(t2 - t1, jsonl.len() as u64, t3 - t2);
        }
        let export = ExportDigest::new(events, &jsonl, &summary);
        let out = CellOutput::new(&run.report, Some(export));
        Ok((out, t3 - t0))
    }
}

/// The policy recipe for `policy`, mirroring `ff_bench::observe::build_policy`.
fn recipe(policy: &str, profile: Option<&Profile>) -> Result<PolicyKind> {
    let profile = || {
        profile
            .cloned()
            .ok_or_else(|| Error::Internal(format!("{policy} needs a recorded profile")))
    };
    match policy {
        "disk" => Ok(PolicyKind::DiskOnly),
        "wnic" => Ok(PolicyKind::WnicOnly),
        "bluefs" => Ok(PolicyKind::BlueFs),
        "flexfetch" => Ok(PolicyKind::flexfetch(profile()?)),
        "flexfetch-static" => Ok(PolicyKind::flexfetch_static(profile()?)),
        other => Err(Error::Config(format!("unknown policy '{other}'"))),
    }
}
