//! Standalone layer probes for the traced run. Each one drives a layer
//! directly through its public interface with the workload's own
//! generated traces and profiles, the way the criterion benches in
//! `crates/ff-bench/benches/{cache,devices,profiling}.rs` do, and times
//! every call.

use crate::workload::Setup;
use ff_base::Result;
use ff_bench::observe::build_workload;
use ff_cache::BufferCache;
use ff_device::{DeviceRequest, DiskModel, PowerModel, WnicModel};
use ff_profile::{Estimator, Profile, Profiler};
use ff_sim::SimConfig;
use ff_trace::{DiskLayout, IoOp, Trace};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Clones timed per trace for `ff-device.model_clone_ns`.
const CLONES_PER_TRACE: u32 = 1_000;

/// Mean host time per call at each probed boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// `BufferCache::read`, ns per call.
    pub cache_read_ns: f64,
    /// `BufferCache::write`, ns per call.
    pub cache_write_ns: f64,
    /// `DiskModel::service`, ns per call.
    pub disk_service_ns: f64,
    /// `WnicModel::service`, ns per call.
    pub wnic_service_ns: f64,
    /// Cloning a `DiskModel` and a `WnicModel` after a full replay, ns.
    pub model_clone_ns: f64,
    /// `Estimator::disk_cost` plus `wnic_cost` for one profile stage, µs.
    pub estimate_us: f64,
}

#[derive(Default)]
struct Mean {
    total: Duration,
    n: u64,
}

impl Mean {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.total += t0.elapsed();
        self.n += 1;
        r
    }

    fn ns(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.total.as_nanos() as f64 / self.n as f64
        }
    }
}

/// Run every probe over the set-up's traces. Workloads without
/// FlexFetch cells have no profiles in their set-up; the estimator
/// probe then profiles the same prior runs itself, outside any timing.
pub fn run(setup: &Setup) -> Result<Probes> {
    let cfg = SimConfig::default();
    let mut profiles = setup.profiles.clone();
    if profiles.is_empty() {
        for name in setup.workload.traces() {
            let prior = build_workload(name, setup.seed.wrapping_add(1))?;
            profiles.push(Profiler::standard().profile(&prior));
        }
    }
    let (mut read, mut write) = (Mean::default(), Mean::default());
    let (mut disk, mut wnic, mut clone) = (Mean::default(), Mean::default(), Mean::default());
    let mut estimate = Mean::default();
    for (trace, profile) in setup.traces.iter().zip(&profiles) {
        cache_probe(trace, &cfg, &mut read, &mut write);
        device_probe(trace, &cfg, &mut disk, &mut wnic, &mut clone);
        estimator_probe(trace, profile, &cfg, &mut estimate);
    }
    Ok(Probes {
        cache_read_ns: read.ns(),
        cache_write_ns: write.ns(),
        disk_service_ns: disk.ns(),
        wnic_service_ns: wnic.ns(),
        model_clone_ns: clone.ns(),
        estimate_us: estimate.ns() / 1e3,
    })
}

/// Every call of the trace against a fresh buffer cache.
fn cache_probe(trace: &Trace, cfg: &SimConfig, read: &mut Mean, write: &mut Mean) {
    let mut cache = BufferCache::new(cfg.cache.clone());
    for rec in &trace.records {
        let Some(meta) = trace.files.get(rec.file) else {
            continue;
        };
        match rec.op {
            IoOp::Read => {
                let out =
                    read.time(|| cache.read(rec.ts, rec.file, rec.offset, rec.len, meta.size));
                black_box(out);
            }
            IoOp::Write => {
                let out = write.time(|| cache.write(rec.ts, rec.file, rec.offset, rec.len));
                black_box(out);
            }
        }
    }
}

/// Every call of the trace as a device request on each model, issued at
/// its recorded time or when the device is free, whichever is later.
/// The models then carry a full replay's meter history and are cloned.
fn device_probe(
    trace: &Trace,
    cfg: &SimConfig,
    disk: &mut Mean,
    wnic: &mut Mean,
    clone: &mut Mean,
) {
    let layout = DiskLayout::build(&trace.files, cfg.layout_seed);
    let mut d = DiskModel::new(cfg.disk.clone());
    let mut w = WnicModel::new(cfg.wnic.clone());
    let (mut d_free, mut w_free) = (ff_base::SimTime::ZERO, ff_base::SimTime::ZERO);
    for rec in &trace.records {
        let block = layout.block_of(rec.file, rec.offset);
        let (on_disk, on_wnic) = match rec.op {
            IoOp::Read => (
                DeviceRequest::read(rec.len, block),
                DeviceRequest::read(rec.len, None),
            ),
            IoOp::Write => (
                DeviceRequest::write(rec.len, block),
                DeviceRequest::write(rec.len, None),
            ),
        };
        let at = d_free.max(rec.ts);
        d_free = disk.time(|| d.service(at, &on_disk)).complete;
        let at = w_free.max(rec.ts);
        w_free = wnic.time(|| w.service(at, &on_wnic)).complete;
    }
    for _ in 0..CLONES_PER_TRACE {
        black_box(clone.time(|| (d.clone(), w.clone())));
    }
}

/// The §2.2 on-line estimate of every stage of the recorded profile,
/// against fresh device models, as FlexFetch evaluates a stage.
fn estimator_probe(trace: &Trace, profile: &Profile, cfg: &SimConfig, estimate: &mut Mean) {
    let layout = DiskLayout::build(&trace.files, cfg.layout_seed);
    let est = Estimator::new(&layout);
    for stage in profile.stages(cfg.stage_len) {
        let (d, w) = (
            DiskModel::new(cfg.disk.clone()),
            WnicModel::new(cfg.wnic.clone()),
        );
        black_box(estimate.time(|| {
            (
                est.disk_cost(&stage.bursts, d),
                est.wnic_cost(&stage.bursts, w),
            )
        }));
    }
}
