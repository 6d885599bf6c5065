//! The output oracle. Simulated statistics are not metrics here: every
//! timed replay must reproduce its warm-up reference exactly, and at
//! the committed seed the warm-up must reproduce the committed
//! `bench/BENCH_sim.json` and `bench/BENCH_faults.json` cells.

use crate::workload::{Setup, Workload, CHAOS_SCENARIO};
use ff_base::json::Value;
use ff_base::{Dur, SimTime};
use ff_policy::Source;
use ff_sim::SimReport;

/// The seed the committed `bench/` artifacts were generated at.
pub const COMMITTED_SEED: u64 = 42;

/// `bench/BENCH_sim.json`, read at build time and never rewritten.
pub const COMMITTED_SIM: &str = include_str!("../../bench/BENCH_sim.json");

/// `bench/BENCH_faults.json`, read at build time and never rewritten.
pub const COMMITTED_FAULTS: &str = include_str!("../../bench/BENCH_faults.json");

/// The simulated statistics of one replay that a perf change must leave
/// bit-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// `SimReport::total_energy` as raw bits.
    pub energy_bits: u64,
    /// Simulated execution time.
    pub exec_time: Dur,
    /// Application calls replayed.
    pub app_requests: u64,
    /// Device requests sent to the disk.
    pub disk_requests: u64,
    /// Device requests sent to the WNIC.
    pub wnic_requests: u64,
    /// Buffer-cache demand hits (pages).
    pub cache_hits: u64,
    /// Buffer-cache demand misses (pages).
    pub cache_misses: u64,
    /// The policy's full decision log.
    pub decisions: Vec<(SimTime, Source, &'static str)>,
    /// Evaluation stages completed.
    pub stages: usize,
    /// Fault actions applied.
    pub faults_injected: u64,
    /// Timed-out network requests that were retried.
    pub retries: u64,
    /// Requests rerouted after an exhausted retry ladder.
    pub failovers: u64,
}

impl Fingerprint {
    /// The fingerprint of a finished run.
    pub fn of(r: &SimReport) -> Fingerprint {
        Fingerprint {
            energy_bits: r.total_energy().get().to_bits(),
            exec_time: r.exec_time,
            app_requests: r.app_requests,
            disk_requests: r.disk_requests,
            wnic_requests: r.wnic_requests,
            cache_hits: r.cache_hits,
            cache_misses: r.cache_misses,
            decisions: r.decisions.clone(),
            stages: r.stages,
            faults_injected: r.faults_injected,
            retries: r.retries,
            failovers: r.failovers,
        }
    }
}

/// What the `export` workload wrote for one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportDigest {
    /// Events in the `EventLog`.
    pub events: u64,
    /// Length of the JSONL text.
    pub jsonl_bytes: u64,
    /// FNV-1a digest of the JSONL text.
    pub jsonl_digest: u64,
    /// FNV-1a digest of the pretty-printed summary document.
    pub summary_digest: u64,
}

impl ExportDigest {
    /// Digest one cell's export.
    pub fn new(events: u64, jsonl: &str, summary: &str) -> ExportDigest {
        ExportDigest {
            events,
            jsonl_bytes: jsonl.len() as u64,
            jsonl_digest: fnv1a(jsonl.as_bytes()),
            summary_digest: fnv1a(summary.as_bytes()),
        }
    }
}

/// Everything one replay of a cell is checked on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOutput {
    /// The simulated statistics.
    pub fingerprint: Fingerprint,
    /// The export digest (`export` workload only).
    pub export: Option<ExportDigest>,
}

impl CellOutput {
    /// The output of a finished run.
    pub fn new(report: &SimReport, export: Option<ExportDigest>) -> CellOutput {
        CellOutput {
            fingerprint: Fingerprint::of(report),
            export,
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Compare the warm-up outputs with the committed artifact for the
/// workload: `BENCH_faults.json` (its `everything` cells) on `chaos`,
/// `BENCH_sim.json` otherwise. Event counts are compared on `export`
/// only: the `events` column of `BENCH_faults.json` predates events
/// added to the simulator since, and `benchfaults` no longer reproduces
/// it. Returns one line per mismatch; empty at any seed other than
/// [`COMMITTED_SEED`].
pub fn check_committed(setup: &Setup, outputs: &[CellOutput]) -> Vec<String> {
    if setup.seed != COMMITTED_SEED {
        return Vec::new();
    }
    if setup.workload == Workload::Chaos {
        check_doc("BENCH_faults.json", COMMITTED_FAULTS, setup, outputs)
    } else {
        check_doc("BENCH_sim.json", COMMITTED_SIM, setup, outputs)
    }
}

/// [`check_committed`] against the artifact `text` named `name`.
pub fn check_doc(name: &str, text: &str, setup: &Setup, outputs: &[CellOutput]) -> Vec<String> {
    let chaos = setup.workload == Workload::Chaos;
    let doc = match Value::parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("{name} does not parse: {e}")],
    };
    let committed = doc.get("cells").and_then(Value::as_array).unwrap_or(&[]);
    let mut problems = Vec::new();
    for (cell, out) in setup.cells.iter().zip(outputs) {
        let is_cell = |c: &&Value| {
            c.get("workload").and_then(Value::as_str) == Some(cell.trace_name)
                && c.get("policy").and_then(Value::as_str) == Some(cell.policy)
                && (!chaos || c.get("scenario").and_then(Value::as_str) == Some(CHAOS_SCENARIO))
        };
        let Some(entry) = committed.iter().find(is_cell) else {
            problems.push(format!(
                "{name} has no cell {}/{}",
                cell.trace_name, cell.policy
            ));
            continue;
        };
        let f = &out.fingerprint;
        let mut want = vec![
            ("app_requests", Value::UInt(f.app_requests)),
            ("decisions", Value::UInt(f.decisions.len() as u64)),
            ("total_j", Value::Float(f64::from_bits(f.energy_bits))),
        ];
        if chaos {
            want.extend([
                ("exec_time_us", Value::UInt(f.exec_time.as_micros())),
                ("faults_injected", Value::UInt(f.faults_injected)),
                ("retries", Value::UInt(f.retries)),
                ("failovers", Value::UInt(f.failovers)),
            ]);
        } else {
            want.push(("sim_time_s", Value::Float(f.exec_time.as_secs_f64())));
        }
        if let Some(export) = &out.export {
            want.push(("events", Value::UInt(export.events)));
        }
        for (field, value) in want {
            if entry.get(field) != Some(&value) {
                problems.push(format!(
                    "{name} {}/{} {field}: committed {:?}, replayed {value:?}",
                    cell.trace_name,
                    cell.policy,
                    entry.get(field)
                ));
            }
        }
    }
    problems
}
