//! The on-line device simulator (§2.2).
//!
//! *"In order to estimate execution times and energy costs for servicing
//! I/O requests on various data sources, we need to calculate the length
//! of period of time when a device stays at each power mode. To this end,
//! we maintain an on-line simulator for each device to emulate their
//! power saving policies."*
//!
//! The estimator walks a burst sequence over a **cloned** device model:
//! requests inside a burst go back to back (the paper's
//! peak-bandwidth-within-burst assumption — merging already folded the
//! intra-burst think times away), and inter-burst think times advance
//! the device clock so its timeout policy (spin-down / CAM→PSM) fires
//! exactly as it would live.

use crate::burst::ProfiledBurst;
use ff_base::{Bytes, Dur, Joules, SimTime};
use ff_device::{DeviceRequest, Dir, DiskModel, PowerModel, WnicModel};
use ff_trace::{DiskLayout, FileId, IoOp};

/// The `(T, E)` pair the decision rules consume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated execution time of the stage (service + think).
    pub time: Dur,
    /// Estimated energy over that period (service + idle + transitions).
    pub energy: Joules,
}

/// Walks burst sequences over device models.
#[derive(Debug, Clone)]
pub struct Estimator<'a> {
    layout: &'a DiskLayout,
}

impl<'a> Estimator<'a> {
    /// Estimator resolving disk blocks through `layout`.
    pub fn new(layout: &'a DiskLayout) -> Self {
        Estimator { layout }
    }

    /// `(T_disk, E_disk)` for servicing `bursts` on `disk`, starting from
    /// the model's current power state. The passed model is consumed (pass
    /// a clone of the live disk to start from reality).
    ///
    /// The energy includes the **parking cost**: after the last burst the
    /// model runs until the device reaches its low-power resting state
    /// (idle timeout + spin-down). Without this, a decision to wake the
    /// disk for one small burst would look ~35 J cheaper than it really
    /// is — the idle tail is a direct consequence of the decision.
    pub fn disk_cost(&self, bursts: &[ProfiledBurst], mut disk: DiskModel) -> Estimate {
        disk.reset_meter();
        let park = disk.params().timeout + disk.params().spindown_time + Dur::from_millis(1);
        self.parked_cost(bursts, disk, park)
    }

    /// `(T_network, E_network)` for servicing `bursts` on `wnic`.
    /// Includes the parking cost (CAM idle-out plus the CAM→PSM switch).
    pub fn wnic_cost(&self, bursts: &[ProfiledBurst], mut wnic: WnicModel) -> Estimate {
        wnic.reset_meter();
        let park = wnic.params().psm_timeout + wnic.params().to_psm_time + Dur::from_millis(1);
        self.parked_cost(bursts, wnic, park)
    }

    /// Walk `bursts` on `model`, then run it on for `park`. The time
    /// excludes the parking run; the energy is whatever the model's meter
    /// holds at the end.
    fn parked_cost<M: PowerModel>(
        &self,
        bursts: &[ProfiledBurst],
        mut model: M,
        park: Dur,
    ) -> Estimate {
        if bursts.is_empty() {
            return Estimate {
                time: Dur::ZERO,
                energy: Joules::ZERO,
            };
        }
        let start = model.clock();
        let end = self.walk(bursts, &mut model);
        model.advance_to(end + park);
        Estimate {
            time: end.saturating_since(start),
            energy: model.energy(),
        }
    }

    /// Serve `bursts` on `model` from its clock: the requests of a burst
    /// back to back, each think gap advancing the clock. Returns the
    /// instant the last gap ends; the model is left there, not parked.
    pub fn walk<M: PowerModel>(&self, bursts: &[ProfiledBurst], model: &mut M) -> SimTime {
        let mut t = model.clock();
        for pb in bursts {
            for req in &pb.burst.requests {
                let dev_req = DeviceRequest {
                    dir: to_dir(req.op),
                    bytes: req.len,
                    block: self.layout.block_of(req.file, req.offset),
                };
                t = model.service(t, &dev_req).complete;
            }
            t += pb.gap_after;
            model.advance_to(t);
        }
        t
    }
}

fn to_dir(op: IoOp) -> Dir {
    match op {
        IoOp::Read => Dir::Read,
        IoOp::Write => Dir::Write,
    }
}

/// §2.3.2 cache filtering: shrink or drop profiled requests whose data is
/// already resident in the buffer cache. `resident(file, offset, len)`
/// returns the resident fraction of the range in `[0, 1]`.
pub fn filter_resident<F>(bursts: &[ProfiledBurst], resident: F) -> Vec<ProfiledBurst>
where
    F: Fn(FileId, u64, Bytes) -> f64,
{
    bursts
        .iter()
        .map(|pb| {
            let mut out = pb.clone();
            out.burst.requests.retain_mut(|req| {
                let frac = resident(req.file, req.offset, req.len).clamp(0.0, 1.0);
                if frac >= 1.0 {
                    return false; // fully cached — never reaches a device
                }
                // Partial residency: shrink the device-visible request.
                let remaining = ((req.len.get() as f64) * (1.0 - frac)).ceil() as u64;
                req.len = Bytes(remaining.max(1));
                true
            });
            out
        })
        .filter(|pb| !pb.burst.requests.is_empty() || !pb.gap_after.is_zero())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::burst::{IoBurst, MergedRequest};
    use ff_device::{DiskParams, WnicParams};
    use ff_trace::{FileMeta, FileSet};

    fn layout_for(file: u64, size: u64) -> (FileSet, DiskLayout) {
        let mut fs = FileSet::new();
        fs.insert(FileMeta {
            id: FileId(file),
            name: "f".into(),
            size: Bytes(size),
        });
        let l = DiskLayout::build(&fs, 1);
        (fs, l)
    }

    fn burst(bytes_each: &[u64], gap: Dur) -> ProfiledBurst {
        let mut off = 0;
        let reqs = bytes_each
            .iter()
            .map(|&b| {
                let r = MergedRequest {
                    file: FileId(1),
                    op: IoOp::Read,
                    offset: off,
                    len: Bytes(b),
                };
                off += b;
                r
            })
            .collect();
        ProfiledBurst {
            burst: IoBurst {
                start: SimTime::ZERO,
                end: SimTime::ZERO,
                requests: reqs,
            },
            gap_after: gap,
        }
    }

    #[test]
    fn disk_estimate_counts_positioning_transfer_and_idle() {
        let (_, l) = layout_for(1, 10_000_000);
        let est = Estimator::new(&l);
        // One burst: 1 MB sequential (one merged request), then 5 s think.
        let bursts = vec![burst(&[1_000_000], Dur::from_secs(5))];
        let disk = DiskModel::new(DiskParams::hitachi_dk23da());
        let e = est.disk_cost(&bursts, disk);
        // Time: 20 ms + 1/35 s + 5 s ≈ 5.0486 s (parking not counted in T).
        assert!((e.time.as_secs_f64() - 5.0486).abs() < 0.001, "{}", e.time);
        // Energy: 2 W × 48.6 ms + 1.6 W × 5 s ≈ 8.097 J, plus parking —
        // the 5 s gap already burned 5 s of the 20 s timeout, so 15 s
        // idle × 1.6 W + 2.94 J spin-down + ~0.75 J standby ≈ 35.79 J.
        assert!((e.energy.get() - 35.79).abs() < 0.05, "{}", e.energy);
    }

    #[test]
    fn long_gap_lets_the_estimated_disk_spin_down() {
        let (_, l) = layout_for(1, 10_000_000);
        let est = Estimator::new(&l);
        let bursts = vec![
            burst(&[100_000], Dur::from_secs(30)), // > 20 s timeout
            burst(&[100_000], Dur::ZERO),
        ];
        let e = est.disk_cost(&bursts, DiskModel::new(DiskParams::hitachi_dk23da()));
        // Second burst must pay a spin-up: ~23 ms + 30 s + 1.6 s + 23 ms.
        assert!(e.time > Dur::from_millis(31_600), "{}", e.time);
        assert!(e.time < Dur::from_secs(32), "{}", e.time);
        // Energy includes spin-down + spin-up ≈ 7.94 J of transitions.
        assert!(e.energy.get() > 7.94);
    }

    #[test]
    fn wnic_estimate_prefers_small_intermittent_loads() {
        let (_, l) = layout_for(1, 100_000_000);
        let est = Estimator::new(&l);
        // Paced streaming: 64 KiB every 2.5 s — the mplayer shape (the
        // disk burns 1.6 W between refills; the card drops to PSM).
        let bursts: Vec<_> = (0..80)
            .map(|_| burst(&[65_536], Dur::from_millis(2_500)))
            .collect();
        let disk = est.disk_cost(&bursts, DiskModel::new(DiskParams::hitachi_dk23da()));
        let wnic = est.wnic_cost(&bursts, WnicModel::new(WnicParams::cisco_aironet350()));
        assert!(
            wnic.energy < disk.energy,
            "intermittent small reads must favour the WNIC: {} vs {}",
            wnic.energy,
            disk.energy
        );
    }

    #[test]
    fn disk_wins_big_sequential_bursts() {
        let (_, l) = layout_for(1, 100_000_000);
        let est = Estimator::new(&l);
        // grep/search shape: one dense 50 MB burst.
        let reqs: Vec<u64> = vec![131_072; 400];
        let bursts = vec![burst(&reqs, Dur::ZERO)];
        let disk = est.disk_cost(&bursts, DiskModel::new(DiskParams::hitachi_dk23da()));
        let wnic = est.wnic_cost(&bursts, WnicModel::new(WnicParams::cisco_aironet350()));
        assert!(
            disk.energy < wnic.energy,
            "bulk sequential reads must favour the disk: {} vs {}",
            disk.energy,
            wnic.energy
        );
        assert!(disk.time < wnic.time);
    }

    #[test]
    fn estimate_starts_from_given_device_state() {
        let (_, l) = layout_for(1, 10_000_000);
        let est = Estimator::new(&l);
        let bursts = vec![burst(&[4096], Dur::ZERO)];
        let spun = est.disk_cost(&bursts, DiskModel::new(DiskParams::hitachi_dk23da()));
        let standby = est.disk_cost(
            &bursts,
            DiskModel::new_standby(DiskParams::hitachi_dk23da()),
        );
        assert!(
            standby.energy.get() > spun.energy.get() + 4.9,
            "spin-up must show up"
        );
        assert!(standby.time > spun.time + Dur::from_millis(1_500));
    }

    #[test]
    fn filter_drops_fully_resident_requests() {
        let bursts = vec![burst(&[4096, 4096], Dur::from_secs(1))];
        let filtered = filter_resident(&bursts, |_, offset, _| if offset == 0 { 1.0 } else { 0.0 });
        assert_eq!(filtered[0].burst.requests.len(), 1);
        assert_eq!(filtered[0].burst.requests[0].offset, 4096);
    }

    #[test]
    fn filter_shrinks_partially_resident_requests() {
        let bursts = vec![burst(&[10_000], Dur::ZERO)];
        let filtered = filter_resident(&bursts, |_, _, _| 0.5);
        assert_eq!(filtered[0].burst.requests[0].len, Bytes(5_000));
    }

    #[test]
    fn filter_removes_empty_zero_gap_bursts() {
        let bursts = vec![burst(&[4096], Dur::ZERO)];
        let filtered = filter_resident(&bursts, |_, _, _| 1.0);
        assert!(filtered.is_empty());
    }

    #[test]
    fn filter_keeps_gap_of_emptied_burst() {
        // The think time still passes even if the data was cached.
        let bursts = vec![burst(&[4096], Dur::from_secs(3))];
        let filtered = filter_resident(&bursts, |_, _, _| 1.0);
        assert_eq!(filtered.len(), 1);
        assert!(filtered[0].burst.requests.is_empty());
        assert_eq!(filtered[0].gap_after, Dur::from_secs(3));
    }

    #[test]
    fn empty_bursts_cost_only_idle() {
        let (_, l) = layout_for(1, 10_000);
        let est = Estimator::new(&l);
        let e = est.disk_cost(&[], DiskModel::new(DiskParams::hitachi_dk23da()));
        assert_eq!(e.time, Dur::ZERO);
        assert_eq!(e.energy, Joules::ZERO);
    }
}
