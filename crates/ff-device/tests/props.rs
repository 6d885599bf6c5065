//! Property tests for the device power models: conservation and
//! consistency laws that must hold for any request schedule.

use ff_base::{Bytes, Dur, Joules, SimTime};
use ff_device::{
    DeviceRequest, Dir, DiskModel, DiskParams, PowerModel, Transition, WnicModel, WnicParams,
};
use proptest::prelude::*;

/// A random schedule: (gap to next arrival in ms, bytes, read?, block).
fn arb_schedule() -> impl Strategy<Value = Vec<(u64, u64, bool, u64)>> {
    proptest::collection::vec(
        (0u64..40_000, 1u64..4_000_000, any::<bool>(), 0u64..100_000),
        1..40,
    )
}

fn run_disk(schedule: &[(u64, u64, bool, u64)]) -> (DiskModel, Vec<ff_device::ServiceOutcome>) {
    let mut disk = DiskModel::new(DiskParams::hitachi_dk23da());
    let mut t = SimTime::ZERO;
    let mut outs = Vec::new();
    for &(gap_ms, bytes, read, block) in schedule {
        t += Dur::from_millis(gap_ms);
        let req = DeviceRequest {
            dir: if read { Dir::Read } else { Dir::Write },
            bytes: Bytes(bytes),
            block: Some(block),
        };
        let out = disk.service(t, &req);
        t = out.complete;
        outs.push(out);
    }
    (disk, outs)
}

proptest! {
    /// Meter total equals the sum of residency and transition energies —
    /// no energy appears or vanishes outside the books.
    #[test]
    fn disk_energy_is_fully_attributed(schedule in arb_schedule()) {
        let (disk, _) = run_disk(&schedule);
        let m = disk.meter();
        let parts: f64 = m.residencies().map(|(_, _, e)| e.get()).sum::<f64>()
            + m.transitions().map(|(_, _, e)| e.get()).sum::<f64>();
        prop_assert!((m.total().get() - parts).abs() < 1e-6);
        prop_assert!(m.total().get() >= 0.0);
    }

    /// Completions are non-decreasing and each request's energy is
    /// non-negative and finite.
    #[test]
    fn disk_completions_are_ordered(schedule in arb_schedule()) {
        let (_, outs) = run_disk(&schedule);
        for w in outs.windows(2) {
            prop_assert!(w[1].complete >= w[0].complete);
        }
        for o in &outs {
            prop_assert!(o.energy.is_valid());
        }
    }

    /// `estimate` == `service` for the next request (the probe is exact),
    /// and it does not mutate the model.
    #[test]
    fn disk_estimate_matches_service(schedule in arb_schedule(), bytes in 1u64..1_000_000) {
        let (disk, _) = run_disk(&schedule);
        let energy_before = disk.energy();
        let now = disk.clock() + Dur::from_secs(3);
        let req = DeviceRequest::read(Bytes(bytes), Some(7));
        let est = disk.estimate(now, &req);
        prop_assert_eq!(disk.energy(), energy_before, "estimate mutated the model");
        let mut live = disk.clone();
        let real = live.service(now, &req);
        prop_assert_eq!(est, real);
    }

    /// Wall-clock residency adds up: total metered time equals the clock.
    #[test]
    fn disk_time_is_fully_attributed(schedule in arb_schedule()) {
        let (mut disk, _) = run_disk(&schedule);
        // Advance somewhere quiet so transients finish.
        let end = disk.clock() + Dur::from_secs(60);
        disk.advance_to(end);
        let metered: u64 = disk.meter().residencies().map(|(_, d, _)| d.as_micros()).sum();
        prop_assert_eq!(metered, end.as_micros());
    }

    /// Advancing in arbitrary step splits never changes the totals.
    #[test]
    fn disk_advance_is_split_invariant(
        stops in proptest::collection::vec(1u64..120_000, 1..20),
    ) {
        let mut sorted = stops.clone();
        sorted.sort_unstable();
        let mut one = DiskModel::new(DiskParams::hitachi_dk23da());
        let end = SimTime::from_millis(*sorted.last().unwrap());
        one.advance_to(end);
        let mut many = DiskModel::new(DiskParams::hitachi_dk23da());
        for &ms in &sorted {
            many.advance_to(SimTime::from_millis(ms));
        }
        prop_assert!((one.energy().get() - many.energy().get()).abs() < 1e-9);
        prop_assert_eq!(one.state(), many.state());
    }

    /// Same laws for the WNIC.
    #[test]
    fn wnic_energy_and_time_attributed(schedule in arb_schedule()) {
        let mut wnic = WnicModel::new(WnicParams::cisco_aironet350());
        let mut t = SimTime::ZERO;
        for &(gap_ms, bytes, read, _) in &schedule {
            t += Dur::from_millis(gap_ms);
            let req = DeviceRequest {
                dir: if read { Dir::Read } else { Dir::Write },
                bytes: Bytes(bytes),
                block: None,
            };
            let out = wnic.service(t, &req);
            t = out.complete;
            prop_assert!(out.energy.is_valid());
        }
        let end = wnic.clock() + Dur::from_secs(10);
        wnic.advance_to(end);
        let m = wnic.meter();
        let parts: f64 = m.residencies().map(|(_, _, e)| e.get()).sum::<f64>()
            + m.transitions().map(|(_, _, e)| e.get()).sum::<f64>();
        prop_assert!((m.total().get() - parts).abs() < 1e-6);
        let metered: u64 = m.residencies().map(|(_, d, _)| d.as_micros()).sum();
        prop_assert_eq!(metered, end.as_micros());
    }

    /// Mode transitions are balanced: the WNIC switches to PSM exactly as
    /// often as it left it (± the final in-flight one).
    #[test]
    fn wnic_transitions_balance(schedule in arb_schedule()) {
        let mut wnic = WnicModel::new(WnicParams::cisco_aironet350());
        let mut t = SimTime::ZERO;
        for &(gap_ms, bytes, _, _) in &schedule {
            t += Dur::from_millis(gap_ms);
            let out = wnic.service(t, &DeviceRequest::read(Bytes(bytes), None));
            t = out.complete;
        }
        wnic.advance_to(t + Dur::from_secs(10));
        let up = wnic.meter().transition_count(Transition::PsmToCam);
        let down = wnic.meter().transition_count(Transition::CamToPsm);
        prop_assert!(up.abs_diff(down) <= 1, "unbalanced transitions: {up} up vs {down} down");
    }

    /// More idle time never reduces energy (power is non-negative).
    #[test]
    fn idle_energy_is_monotone(a in 0u64..1 << 20, b in 0u64..1 << 20) {
        let (lo, hi) = (a.min(b), a.max(b));
        let mut d1 = DiskModel::new(DiskParams::hitachi_dk23da());
        d1.advance_to(SimTime::from_millis(lo));
        let mut d2 = DiskModel::new(DiskParams::hitachi_dk23da());
        d2.advance_to(SimTime::from_millis(hi));
        prop_assert!(d2.energy().get() >= d1.energy().get() - 1e-12);
        prop_assert!(Joules(d2.energy().get()).is_valid());
    }
}
