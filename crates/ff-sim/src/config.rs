//! Simulation configuration.

use crate::faults::{FaultPlan, RetryPolicy};
use ff_base::Dur;
use ff_cache::CacheConfig;
use ff_device::{DiskParams, FlashParams, WnicParams};
use ff_trace::FileId;
use std::collections::BTreeSet;

/// Everything that parameterises one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Disk constants (Table 1).
    pub disk: DiskParams,
    /// WNIC constants (Table 2). The §3.3 sweeps vary `latency` and
    /// `bandwidth` here.
    pub wnic: WnicParams,
    /// Buffer-cache tuning (§3.1).
    pub cache: CacheConfig,
    /// Seed for the file→block layout jitter (§3.2).
    pub layout_seed: u64,
    /// Evaluation-stage cadence (§2.2; the paper uses 40 s).
    pub stage_len: Dur,
    /// Files that exist *only* on the local disk (the §3.3.4 xmms MP3s):
    /// requests for them always hit the disk and count as external,
    /// non-profiled activity.
    pub disk_only_files: BTreeSet<FileId>,
    /// Start the run with the disk spun down. §3.3.1 confirms the paper's
    /// setup: "at the beginning FlexFetch spins up the hard disk to
    /// service the data set of grep" — a quiescent laptop parks its disk.
    pub disk_starts_standby: bool,
    /// Files *not* hoarded on the local disk (extension of the paper's
    /// §5 limitation: the paper assumes the full working set is
    /// replicated). Requests for them can only be serviced over the
    /// WNIC, whatever the policy prefers.
    pub network_only_files: BTreeSet<FileId>,
    /// Mirror write-back traffic to the remote server (extension of §5
    /// limitation 3: the paper defers synchronisation to the hoarding
    /// system). When set, every flushed dirty page is also uploaded over
    /// the WNIC, so local writes eventually reach the server.
    pub sync_writes: bool,
    /// Optional flash tier (extension — §4's SmartSaver): a low-power
    /// page cache between RAM and the devices, `(params, capacity in
    /// 4 KiB pages)`. Reads hitting flash touch neither the disk nor the
    /// WNIC; writes aimed at a sleeping disk buffer in flash and destage
    /// when the disk wakes.
    pub flash: Option<(FlashParams, usize)>,
    /// Scripted fault plan (link outages, bandwidth fades and steps,
    /// server outages, disk storms, profile injection). Empty by default —
    /// a run without faults behaves exactly as before the fault
    /// subsystem existed.
    pub faults: FaultPlan,
    /// Retry ladder applied to network requests while an injected
    /// server outage is active (timeout → exponential backoff →
    /// failover to disk).
    pub retry: RetryPolicy,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            disk: DiskParams::hitachi_dk23da(),
            wnic: WnicParams::cisco_aironet350(),
            cache: CacheConfig::default(),
            layout_seed: 0x5EED,
            stage_len: Dur::from_secs(40),
            disk_only_files: BTreeSet::new(),
            disk_starts_standby: true,
            network_only_files: BTreeSet::new(),
            sync_writes: false,
            flash: None,
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
        }
    }
}

impl SimConfig {
    /// Sweep helper: same config with a different WNIC latency.
    pub fn with_wnic_latency(mut self, latency: Dur) -> Self {
        self.wnic.latency = latency;
        self
    }

    /// Sweep helper: same config with a different WNIC bandwidth (Mbps).
    pub fn with_wnic_bandwidth_mbps(mut self, mbps: f64) -> Self {
        self.wnic.bandwidth = ff_base::BytesPerSec::from_mbit_per_sec(mbps);
        self
    }

    /// Pin a set of files to the local disk (§3.3.4).
    pub fn with_disk_only_files(mut self, files: impl IntoIterator<Item = FileId>) -> Self {
        self.disk_only_files.extend(files);
        self
    }

    /// Mark files as not hoarded locally: they are only reachable over
    /// the WNIC.
    pub fn with_network_only_files(mut self, files: impl IntoIterator<Item = FileId>) -> Self {
        self.network_only_files.extend(files);
        self
    }

    /// Enable write synchronisation to the remote server.
    pub fn with_sync_writes(mut self) -> Self {
        self.sync_writes = true;
        self
    }

    /// Attach a scripted fault plan (replaces any existing one).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Override the server-outage retry ladder.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attach a flash tier of `capacity_mb` megabytes.
    pub fn with_flash_mb(mut self, capacity_mb: usize) -> Self {
        self.flash = Some((
            FlashParams::compact_flash_2007(),
            capacity_mb * 1_000_000 / 4096,
        ));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = SimConfig::default();
        assert_eq!(c.stage_len, Dur::from_secs(40));
        assert_eq!(c.disk.timeout, Dur::from_secs(20));
        assert_eq!(c.wnic.psm_timeout, Dur::from_millis(800));
        assert!(c.disk_only_files.is_empty());
        assert!(c.network_only_files.is_empty());
        assert!(!c.sync_writes);
        assert!(c.faults.is_empty(), "no faults unless scripted");
        assert_eq!(c.retry, RetryPolicy::default());
    }

    #[test]
    fn fault_builders_apply() {
        let plan = FaultPlan::none().with_link_outage(Dur::from_secs(5), Dur::from_secs(2));
        let retry = RetryPolicy {
            timeout: Dur::from_secs(1),
            backoff: Dur::from_millis(100),
            max_retries: 2,
        };
        let c = SimConfig::default()
            .with_faults(plan.clone())
            .with_retry(retry);
        assert_eq!(c.faults, plan);
        assert_eq!(c.retry, retry);
    }

    #[test]
    fn sweep_helpers_apply() {
        let c = SimConfig::default()
            .with_wnic_latency(Dur::from_millis(15))
            .with_wnic_bandwidth_mbps(2.0)
            .with_disk_only_files([FileId(7)]);
        assert_eq!(c.wnic.latency, Dur::from_millis(15));
        assert!((c.wnic.bandwidth.get() - 250_000.0).abs() < 1.0);
        assert!(c.disk_only_files.contains(&FileId(7)));
        let c = SimConfig::default()
            .with_network_only_files([FileId(9)])
            .with_sync_writes();
        assert!(c.network_only_files.contains(&FileId(9)));
        assert!(c.sync_writes);
    }
}
