//! # replay-bench — replay-throughput benchmark of the FlexFetch simulator
//!
//! One closed-loop client on one thread replays a workload's cells
//! through `ff_sim::Simulation`, one round after another, for a fixed
//! host-time window. A *pass* replays every cell of the workload once,
//! in a fixed order, with the traces of one seed; a *round* makes one
//! pass for each of the run's [`SEED_GROUPS`] seeds. Every replay is
//! checked against the warm-up reference of its cell; the simulated statistics are an oracle, never
//! a metric. A separate traced run attributes host time to the layers
//! by timing calls into their public interfaces from outside.
//!
//! See `README.md` beside this crate for the metric → layer → workload
//! map.

// A benchmark measures host time: the workspace's ban on `Instant`
// guards the simulation crates' determinism and does not apply here.
#![allow(clippy::disallowed_types)]

pub mod oracle;
pub mod probes;
pub mod timing;
pub mod workload;

use ff_base::rng::derive_seed;
use ff_base::Result;
use std::time::{Duration, Instant};
use timing::{Hook, Span, Tally};
use workload::{Setup, Workload};

/// Set-ups made per run; `setup_s` is their median, which keeps it
/// steady on a noisy host.
const SETUP_REPS: usize = 5;

/// Seeds replayed per run: `--seed` itself and seeds derived from it.
/// The seed alone moves pass time by up to about 10%, so one run
/// averages over several inputs rather than depending on one.
pub const SEED_GROUPS: usize = 4;

/// The run's seeds: `seed` first, so that seed 42 still meets the
/// committed `bench/` artifacts, then seeds derived from it.
pub fn group_seeds(seed: u64) -> Vec<u64> {
    std::iter::once(seed)
        .chain((1..SEED_GROUPS).map(|k| derive_seed(seed, &format!("replay-bench/group/{k}"))))
        .collect()
}

/// Timed replays of each of the 30 clean cells behind `cell.*`.
const CELL_REPS: usize = 3;

/// How one benchmark run is made.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to replay.
    pub workload: Workload,
    /// Workload seed; the other groups' seeds derive from it (42 matches
    /// the committed `bench/` artifacts).
    pub seed: u64,
    /// Host seconds of passes to measure (at least one pass is made).
    pub seconds: f64,
    /// Make the traced run and report per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
}

impl Options {
    /// The benchmark's standard settings for `workload`.
    pub fn new(workload: Workload) -> Options {
        Options {
            workload,
            seed: oracle::COMMITTED_SEED,
            seconds: 10.0,
            trace: false,
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Passes made (untraced and traced).
    pub attempted: u64,
    /// Passes in which some cell's output differed from its reference
    /// or a replay failed.
    pub failed: u64,
    /// Problems outside the passes: warm-up checks, set-up determinism,
    /// cell-probe mismatches.
    pub problems: Vec<String>,
    /// Context lines printed before the metrics.
    pub notes: Vec<String>,
    /// The metrics, end-to-end or per-layer.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// True when every pass and every check matched.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Passes with a mismatch ÷ passes attempted.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable report: notes, problems, one line per metric.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.notes {
            out.push_str(&format!("{line}\n"));
        }
        for p in &self.problems {
            out.push_str(&format!("problem: {p}\n"));
        }
        out.push_str(&format!(
            "failed_frac {} ({} of {} passes)\n",
            self.failed_frac(),
            self.failed,
            self.attempted
        ));
        for m in &self.metrics {
            out.push_str(&format!("{:<40} {:>16} {}\n", m.name, m.value, m.unit));
        }
        out
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Passes {
    ms: Vec<f64>,
    failed: u64,
    app_requests: u64,
}

impl Passes {
    fn new() -> Passes {
        Passes {
            ms: Vec::new(),
            failed: 0,
            app_requests: 0,
        }
    }

    /// Replay every cell once; `tally` makes it a traced pass.
    fn run(&mut self, setup: &Setup, tally: Option<&Tally>) {
        let mut busy = Duration::ZERO;
        let mut ok = true;
        for (cell, reference) in setup.cells.iter().zip(&setup.references) {
            match setup.replay(cell, tally) {
                Ok((out, d)) => {
                    busy += d;
                    ok &= out == *reference;
                }
                Err(_) => ok = false,
            }
        }
        self.ms.push(busy.as_secs_f64() * 1e3);
        self.failed += u64::from(!ok);
        self.app_requests += setup.app_requests_per_pass();
    }

    fn total_ms(&self) -> f64 {
        self.ms.iter().sum()
    }
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident set size of this process in MiB, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The times of every set-up made in one run. A set-up builds one
/// [`Setup`] per seed group.
#[derive(Default)]
struct SetupTimes {
    seconds: Vec<f64>,
    build_ms: Vec<f64>,
    profile_ms: Vec<f64>,
}

impl SetupTimes {
    /// Make a set-up and record its times.
    fn make(&mut self, opts: &Options) -> Result<Vec<Setup>> {
        let t0 = Instant::now();
        let setups = group_seeds(opts.seed)
            .into_iter()
            .map(|seed| Setup::new(opts.workload, seed))
            .collect::<Result<Vec<_>>>()?;
        self.seconds.push(t0.elapsed().as_secs_f64());
        let ms = |f: fn(&Setup) -> Duration| -> f64 {
            setups.iter().map(f).sum::<Duration>().as_secs_f64() * 1e3
        };
        self.build_ms.push(ms(|s| s.build_time));
        self.profile_ms.push(ms(|s| s.profile_time));
        Ok(setups)
    }

    /// Make the set-ups that are due `elapsed` seconds into the window.
    /// [`SETUP_REPS`] of them are spread evenly over the window, so
    /// `setup_s` samples the same host drift as the passes. Each must
    /// reproduce the references of the set-up the passes use, and is
    /// then dropped.
    fn top_up(
        &mut self,
        opts: &Options,
        setups: &[Setup],
        elapsed: f64,
        problems: &mut Vec<String>,
    ) -> Result<()> {
        while self.seconds.len() < SETUP_REPS
            && elapsed >= opts.seconds * self.seconds.len() as f64 / SETUP_REPS as f64
        {
            let again = self.make(opts)?;
            if again
                .iter()
                .zip(setups)
                .any(|(a, s)| a.references != s.references)
            {
                problems.push("two set-ups produced different reference outputs".to_string());
            }
        }
        Ok(())
    }
}

/// Call `step` with the host seconds gone by until `seconds` have gone
/// by, at least once, and return the seconds taken.
fn repeat_for(seconds: f64, mut step: impl FnMut(f64) -> Result<()>) -> Result<f64> {
    let start = Instant::now();
    loop {
        step(start.elapsed().as_secs_f64())?;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= seconds {
            return Ok(elapsed);
        }
    }
}

/// Make one benchmark run.
pub fn run(opts: &Options) -> Result<Outcome> {
    let mut problems = Vec::new();
    let mut times = SetupTimes::default();
    let setups = times.make(opts)?;
    let mut notes = Vec::new();
    for s in &setups {
        problems.extend(s.problems.iter().cloned());
        notes.push(format!(
            "workload {} seed {}: {} cells, {} app calls per pass, single thread",
            opts.workload.name(),
            s.seed,
            s.cells.len(),
            s.app_requests_per_pass()
        ));
    }
    let (passes, metrics) = if opts.trace {
        per_layer(opts, &setups, &mut times, &mut problems, &mut notes)?
    } else {
        end_to_end(opts, &setups, &mut times, &mut problems, &mut notes)?
    };
    Ok(Outcome {
        attempted: passes.iter().map(|p| p.ms.len() as u64).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        problems,
        notes,
        metrics,
    })
}

fn end_to_end(
    opts: &Options,
    setups: &[Setup],
    times: &mut SetupTimes,
    problems: &mut Vec<String>,
    notes: &mut Vec<String>,
) -> Result<(Vec<Passes>, Vec<Metric>)> {
    let mut plain = Passes::new();
    let elapsed = repeat_for(opts.seconds, |t| {
        times.top_up(opts, setups, t, problems)?;
        for setup in setups {
            plain.run(setup, None);
        }
        Ok(())
    })?;
    times.top_up(opts, setups, f64::INFINITY, problems)?;
    // The median is a note, not a metric: on a shared host the pass
    // times fall into a quiet and a contended mode, and the median jumps
    // between them with the share of quiet time in the run.
    notes.push(format!(
        "{} passes in {elapsed:.3} s, median pass {:.3} ms",
        plain.ms.len(),
        median(&plain.ms)
    ));
    let metrics = vec![
        metric("pass_ms_p90", quantile(&plain.ms, 0.9), "ms"),
        metric(
            "app_req_per_s",
            plain.app_requests as f64 / (plain.total_ms() / 1e3),
            "req/s",
        ),
        metric("setup_s", median(&times.seconds), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    Ok((vec![plain], metrics))
}

/// The traced run. Untraced and traced passes alternate, so host drift
/// falls on both sides of `trace.overhead_ratio` alike.
fn per_layer(
    opts: &Options,
    setups: &[Setup],
    times: &mut SetupTimes,
    problems: &mut Vec<String>,
    notes: &mut Vec<String>,
) -> Result<(Vec<Passes>, Vec<Metric>)> {
    let tally = Tally::default();
    let (mut plain, mut traced) = (Passes::new(), Passes::new());
    let elapsed = repeat_for(opts.seconds, |t| {
        times.top_up(opts, setups, t, problems)?;
        for setup in setups {
            plain.run(setup, None);
            traced.run(setup, Some(&tally));
        }
        Ok(())
    })?;
    times.top_up(opts, setups, f64::INFINITY, problems)?;
    notes.push(format!(
        "{} untraced and {} traced passes in {elapsed:.3} s",
        plain.ms.len(),
        traced.ms.len()
    ));
    // The probes and cell times run on the first group, `--seed` itself.
    let probes = probes::run(&setups[0])?;
    let cells = cell_times(&setups[0], problems)?;

    let n = traced.ms.len() as f64;
    // Per pass: the mean over the seed groups, each replayed equally often.
    let count = |f: fn(&oracle::Fingerprint) -> u64| -> f64 {
        setups
            .iter()
            .flat_map(|s| &s.references)
            .map(|r| f(&r.fingerprint))
            .sum::<u64>() as f64
            / setups.len() as f64
    };
    let demand = count(|f| f.cache_hits + f.cache_misses);
    let self_ns = tally.run_span().ns as f64 - (tally.policy_ns() + tally.record().ns) as f64;
    let fault = tally
        .hook(Hook::Fault)
        .plus(tally.hook(Hook::InjectProfile));
    let ns = |span: Span| span.ns_per_call();
    let calls = |span: Span| span.calls as f64 / n;
    let ms = |ns: u64| ns as f64 / 1e6 / n;
    let cell_ms = |trace: &str, policy: &str| {
        cells
            .iter()
            .find(|(t, p, _)| *t == trace && *p == policy)
            .map_or(0.0, |c| c.2)
    };

    let mut metrics = vec![
        metric("ff-trace.build_ms", median(&times.build_ms), "ms"),
        metric("ff-profile.profile_ms", median(&times.profile_ms), "ms"),
        metric("ff-policy.observe_ns", ns(tally.hook(Hook::Observe)), "ns"),
        metric(
            "ff-policy.observe_calls",
            calls(tally.hook(Hook::Observe)),
            "count",
        ),
        metric(
            "ff-policy.stage_end_ns",
            ns(tally.hook(Hook::StageEnd)),
            "ns",
        ),
        metric(
            "ff-policy.stage_end_calls",
            calls(tally.hook(Hook::StageEnd)),
            "count",
        ),
        metric("ff-policy.select_ns", ns(tally.hook(Hook::Select)), "ns"),
        metric(
            "ff-policy.select_calls",
            calls(tally.hook(Hook::Select)),
            "count",
        ),
        metric(
            "ff-policy.busy_share",
            tally.policy_ns() as f64 / (traced.total_ms() * 1e6),
            "ratio",
        ),
        metric(
            "ff-policy.decisions",
            count(|f| f.decisions.len() as u64),
            "count",
        ),
        metric("ff-policy.fault_ns", ns(fault), "ns"),
        metric("ff-policy.fault_calls", calls(fault), "count"),
        metric(
            "ff-sim.faults_injected",
            count(|f| f.faults_injected),
            "count",
        ),
        metric("ff-sim.retries", count(|f| f.retries), "count"),
        metric("ff-sim.failovers", count(|f| f.failovers), "count"),
        metric("ff-profile.estimate_us", probes.estimate_us, "us"),
        metric("ff-device.model_clone_ns", probes.model_clone_ns, "ns"),
        metric("ff-device.disk_service_ns", probes.disk_service_ns, "ns"),
        metric("ff-device.wnic_service_ns", probes.wnic_service_ns, "ns"),
        metric("ff-cache.read_ns", probes.cache_read_ns, "ns"),
        metric("ff-cache.write_ns", probes.cache_write_ns, "ns"),
        metric(
            "ff-cache.hit_ratio",
            count(|f| f.cache_hits) / demand.max(1.0),
            "ratio",
        ),
        metric("ff-sim.self_ms", self_ns / 1e6 / n, "ms"),
        metric(
            "ff-sim.ns_per_app_req",
            self_ns / traced.app_requests as f64,
            "ns",
        ),
        metric("ff-sim.record_ns", ns(tally.record()), "ns"),
        metric("ff-sim.events", calls(tally.record()), "count"),
        metric("ff-sim.jsonl_ms", ms(tally.jsonl().ns), "ms"),
        metric(
            "ff-sim.jsonl_bytes",
            tally.jsonl_bytes() as f64 / n,
            "bytes",
        ),
        metric("ff-sim.summary_ms", ms(tally.summary().ns), "ms"),
    ];
    for (trace, policy, ms) in &cells {
        metrics.push(metric(format!("cell.{trace}.{policy}.ms"), *ms, "ms"));
    }
    metrics.push(metric(
        "ff-policy.make.flexfetch_over_static",
        cell_ms("make", "flexfetch") / cell_ms("make", "flexfetch-static"),
        "ratio",
    ));
    metrics.push(metric(
        "trace.overhead_ratio",
        median(&traced.ms) / median(&plain.ms),
        "ratio",
    ));
    Ok((vec![plain, traced], metrics))
}

/// Median host time of each of the 30 clean cells (the `flexfetch` and
/// `baselines` workloads) at `setup`'s seed, replayed [`CELL_REPS`] times
/// each. Reuses `setup` where it is one of the two.
fn cell_times(
    setup: &Setup,
    problems: &mut Vec<String>,
) -> Result<Vec<(&'static str, &'static str, f64)>> {
    let mut out = Vec::new();
    for w in [Workload::FlexFetch, Workload::Baselines] {
        let owned;
        let s = if setup.workload == w {
            setup
        } else {
            owned = Setup::new(w, setup.seed)?;
            &owned
        };
        for (cell, reference) in s.cells.iter().zip(&s.references) {
            let mut ms = Vec::new();
            for _ in 0..CELL_REPS {
                let (o, d) = s.replay(cell, None)?;
                if o != *reference {
                    problems.push(format!(
                        "cell probe {}/{} differs from its reference",
                        cell.trace_name, cell.policy
                    ));
                }
                ms.push(d.as_secs_f64() * 1e3);
            }
            out.push((cell.trace_name, cell.policy, median(&ms)));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_perturbed_reference_fails_its_pass() {
        for workload in [Workload::Chaos, Workload::Export] {
            let mut setup = Setup::new(workload, 42).expect("set-up");
            let mut passes = Passes::new();
            passes.run(&setup, None);
            assert_eq!(passes.failed, 0, "{}", workload.name());
            let reference = &mut setup.references[1];
            match &mut reference.export {
                Some(export) => export.jsonl_digest ^= 1,
                None => reference.fingerprint.energy_bits ^= 1,
            }
            passes.run(&setup, None);
            let outcome = Outcome {
                attempted: passes.ms.len() as u64,
                failed: passes.failed,
                problems: Vec::new(),
                notes: Vec::new(),
                metrics: Vec::new(),
            };
            assert!(!outcome.correct());
            assert_eq!(outcome.failed_frac(), 0.5, "{}", workload.name());
        }
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
