//! Simulation results.

use ff_base::{Bytes, Dur, Joules, SimTime};
use ff_device::StateMeter;
use ff_policy::Source;
use ff_profile::Profile;

/// Per-evaluation-stage accounting (one row per 40 s stage).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSummary {
    /// Stage ordinal (0-based).
    pub index: usize,
    /// Stage start.
    pub start: SimTime,
    /// Stage end.
    pub end: SimTime,
    /// Disk energy drawn during the stage.
    pub disk_energy: Joules,
    /// WNIC energy drawn during the stage.
    pub wnic_energy: Joules,
    /// Device-visible bytes fetched during the stage.
    pub fetched: Bytes,
}

impl StageSummary {
    /// Combined stage energy.
    pub fn total_energy(&self) -> Joules {
        self.disk_energy + self.wnic_energy
    }

    /// Mean system I/O power over the stage.
    pub fn mean_power_w(&self) -> f64 {
        let secs = self.end.saturating_since(self.start).as_secs_f64();
        if secs > 0.0 {
            self.total_energy().get() / secs
        } else {
            0.0
        }
    }
}

/// What one simulation run produced — the numbers behind every figure.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Policy name (figure legend).
    pub policy: String,
    /// Workload name.
    pub workload: String,
    /// Completion time of the last application request.
    pub exec_time: Dur,
    /// Total disk energy (service + idle + transitions).
    pub disk_energy: Joules,
    /// Total WNIC energy.
    pub wnic_energy: Joules,
    /// Per-state disk accounting.
    pub disk_meter: StateMeter,
    /// Per-state WNIC accounting.
    pub wnic_meter: StateMeter,
    /// Application read/write system calls replayed.
    pub app_requests: u64,
    /// Device requests sent to the disk (demand + readahead + write-back).
    pub disk_requests: u64,
    /// Device requests sent to the WNIC.
    pub wnic_requests: u64,
    /// Bytes fetched from the disk.
    pub disk_bytes: Bytes,
    /// Bytes fetched over the WNIC.
    pub wnic_bytes: Bytes,
    /// Flash-tier energy (zero when no flash is configured).
    pub flash_energy: Joules,
    /// Flash meter, when a flash tier is configured.
    pub flash_meter: Option<StateMeter>,
    /// Requests served by the flash tier.
    pub flash_requests: u64,
    /// Bytes served by / buffered into the flash tier.
    pub flash_bytes: Bytes,
    /// Buffer-cache demand hits / misses (pages).
    pub cache_hits: u64,
    /// Buffer-cache demand misses (pages).
    pub cache_misses: u64,
    /// Full buffer-cache activity counters (readahead, flush rounds) —
    /// the ground truth the observability events are checked against.
    pub cache_stats: ff_cache::CacheStats,
    /// Evaluation stages completed.
    pub stages: usize,
    /// Fault actions applied (outage/fade onsets, disk-storm touches,
    /// profile injections — clears are not counted).
    pub faults_injected: u64,
    /// Network-request timeouts that led to a retry (injected server
    /// outages only).
    pub retries: u64,
    /// Requests rerouted (or stalled) after an exhausted retry ladder.
    pub failovers: u64,
    /// The profile the policy recorded for the next run, if any.
    pub recorded_profile: Option<Profile>,
    /// The policy's decision history `(when, source, trigger)`, if it
    /// keeps one (FlexFetch does).
    pub decisions: Vec<(SimTime, Source, &'static str)>,
    /// Per-stage energy accounting.
    pub stage_summaries: Vec<StageSummary>,
}

impl SimReport {
    /// Combined I/O energy — the y-axis of every figure in §3.3 (includes
    /// the flash tier when configured).
    pub fn total_energy(&self) -> Joules {
        self.disk_energy + self.wnic_energy + self.flash_energy
    }

    /// Demand-page hit ratio in `[0, 1]` (0 when nothing was read).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<16} {:<12} E={:>9} (disk {:>9} wnic {:>9})  T={:>9}  hit={:4.1}%  reqs d/w={}/{}",
            self.policy,
            self.workload,
            self.total_energy().to_string(),
            self.disk_energy.to_string(),
            self.wnic_energy.to_string(),
            self.exec_time.to_string(),
            self.hit_ratio() * 100.0,
            self.disk_requests,
            self.wnic_requests,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            policy: "FlexFetch".into(),
            workload: "grep".into(),
            exec_time: Dur::from_secs(100),
            disk_energy: Joules(120.0),
            wnic_energy: Joules(30.0),
            app_requests: 10,
            disk_requests: 6,
            wnic_requests: 4,
            cache_hits: 30,
            cache_misses: 10,
            stages: 3,
            ..SimReport::default()
        }
    }

    #[test]
    fn totals_and_ratio() {
        let r = report();
        assert_eq!(r.total_energy(), Joules(150.0));
        assert!((r.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_hit_ratio_is_zero() {
        let mut r = report();
        r.cache_hits = 0;
        r.cache_misses = 0;
        assert_eq!(r.hit_ratio(), 0.0);
    }

    #[test]
    fn stage_summary_math() {
        let s = StageSummary {
            index: 0,
            start: SimTime::from_secs(0),
            end: SimTime::from_secs(40),
            disk_energy: Joules(30.0),
            wnic_energy: Joules(50.0),
            fetched: Bytes(1000),
        };
        assert_eq!(s.total_energy(), Joules(80.0));
        assert!((s.mean_power_w() - 2.0).abs() < 1e-12);
        let degenerate = StageSummary { end: s.start, ..s };
        assert_eq!(degenerate.mean_power_w(), 0.0);
    }

    #[test]
    fn summary_mentions_policy_and_energy() {
        let s = report().summary();
        assert!(s.contains("FlexFetch"));
        assert!(s.contains("150.00J"));
    }
}
