//! The hard-disk power model (Hitachi DK23DA, Table 1).
//!
//! State machine:
//!
//! ```text
//!            timeout (20 s idle)            spin-down (2.3 s, 2.94 J)
//!   Idle ───────────────────────► SpinningDown ───────────────────► Standby
//!    ▲                                                                 │
//!    │          spin-up (1.6 s, 5.0 J) on the next request             │
//!    └─────────────────────────────────◄──────────────────────────────┘
//! ```
//!
//! Servicing dwells in the **Active** state (2.0 W): head positioning
//! (13 ms average seek + 7 ms average rotation, skipped when the request
//! is block-contiguous with the previous one) plus transfer at 35 MB/s
//! peak bandwidth. A request arriving mid-spin-down waits for the
//! spin-down to finish and then pays the full spin-up — the paper's
//! motivation for not blindly waking the disk.
//!
//! The state machine above is model-checked by `ff-lint` against the
//! `match self.state` transitions in this file, and every transition is
//! visible at run time as a `device_transition` observability event
//! (DESIGN.md §9 and §10).

use crate::consts;
use crate::meter::{PowerState, StateMeter, Transition};
use crate::model::{DeviceRequest, PowerModel, ServiceOutcome};
use ff_base::{BytesPerSec, Dur, Joules, SimTime, Watts};

/// Disk power/performance constants. Defaults are Table 1 plus the
/// DK23DA mechanics quoted in §3.1.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskParams {
    /// Power while reading/writing (Table 1: 2.0 W).
    pub active_power: Watts,
    /// Power while spinning idle (Table 1: 1.6 W).
    pub idle_power: Watts,
    /// Power in standby (Table 1: 0.15 W).
    pub standby_power: Watts,
    /// Energy of one spin-up (Table 1: 5.0 J).
    pub spinup_energy: Joules,
    /// Energy of one spin-down (Table 1: 2.94 J).
    pub spindown_energy: Joules,
    /// Duration of a spin-up (Table 1: 1.6 s).
    pub spinup_time: Dur,
    /// Duration of a spin-down (Table 1: 2.3 s).
    pub spindown_time: Dur,
    /// Idle time before the disk spins down (§3.1: 20 s, the Linux
    /// laptop-mode default).
    pub timeout: Dur,
    /// Average seek time (§3.1: 13 ms).
    pub seek: Dur,
    /// Average rotational delay (§3.1: 7 ms).
    pub rotation: Dur,
    /// Peak transfer bandwidth (§3.1: 35 MB/s).
    pub bandwidth: BytesPerSec,
    /// Short-seek settle time for near targets (track-to-track scale).
    /// §3.2 lays files out sequentially with small random gaps, so a
    /// directory scan hops only a few blocks between files — charging the
    /// full average seek there would be wildly pessimistic.
    pub short_seek: Dur,
    /// Maximum block distance (either direction) still counted as a
    /// short seek.
    pub short_seek_blocks: u64,
}

impl DiskParams {
    /// The paper's disk: Hitachi DK23DA (30 GB, 4200 RPM). Every value
    /// comes from [`crate::consts`], the single source of truth for the
    /// Table 1 calibration numbers.
    pub fn hitachi_dk23da() -> Self {
        DiskParams {
            active_power: Watts(consts::DISK_ACTIVE_POWER_W),
            idle_power: Watts(consts::DISK_IDLE_POWER_W),
            standby_power: Watts(consts::DISK_STANDBY_POWER_W),
            spinup_energy: Joules(consts::DISK_SPINUP_ENERGY_J),
            spindown_energy: Joules(consts::DISK_SPINDOWN_ENERGY_J),
            spinup_time: Dur::from_millis(consts::DISK_SPINUP_TIME_MS),
            spindown_time: Dur::from_millis(consts::DISK_SPINDOWN_TIME_MS),
            timeout: Dur::from_secs(consts::DISK_TIMEOUT_S),
            seek: Dur::from_millis(consts::DISK_SEEK_MS),
            rotation: Dur::from_millis(consts::DISK_ROTATION_MS),
            bandwidth: BytesPerSec::from_mb_per_sec(consts::DISK_BANDWIDTH_MB_S),
            short_seek: Dur::from_millis(consts::DISK_SHORT_SEEK_MS),
            short_seek_blocks: consts::DISK_SHORT_SEEK_BLOCKS,
        }
    }

    /// Average access time — time to the first byte of a random request
    /// (seek + rotation). The paper uses this as the I/O-burst threshold
    /// (§2.1).
    pub fn access_time(&self) -> Dur {
        self.seek + self.rotation
    }

    /// The *break-even time* (§1.1): the minimum quiet period for which
    /// spinning down saves energy. Solves
    /// `E_down + E_up + P_standby·(T − T_down − T_up) = P_idle·T`.
    pub fn break_even(&self) -> Dur {
        let trans_t = self.spindown_time + self.spinup_time;
        let trans_e = self.spindown_energy.get() + self.spinup_energy.get();
        let num = trans_e - self.standby_power.get() * trans_t.as_secs_f64();
        let den = self.idle_power.get() - self.standby_power.get();
        debug_assert!(den > 0.0, "idle power must exceed standby power");
        Dur::from_secs_f64((num / den).max(trans_t.as_secs_f64()))
    }
}

impl Default for DiskParams {
    fn default() -> Self {
        DiskParams::hitachi_dk23da()
    }
}

/// Observable disk state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskState {
    /// Spinning, ready to serve.
    Idle,
    /// Transitioning to standby; completes at the given instant.
    SpinningDown(SimTime),
    /// Spun down.
    Standby,
    /// Transitioning to idle; completes at the given instant.
    SpinningUp(SimTime),
}

/// The live disk model.
#[derive(Debug, Clone)]
pub struct DiskModel {
    params: DiskParams,
    state: DiskState,
    /// Last instant accounted by the meter.
    clock: SimTime,
    /// Start of the current idle stretch (valid when `state == Idle`).
    idle_since: SimTime,
    /// Block address one past the previous request's last block, for
    /// sequential-access detection.
    next_seq_block: Option<u64>,
    meter: StateMeter,
}

impl DiskModel {
    /// New disk, spun up and idle at t = 0 (the paper's runs start with a
    /// live system).
    pub fn new(params: DiskParams) -> Self {
        DiskModel {
            params,
            state: DiskState::Idle,
            clock: SimTime::ZERO,
            idle_since: SimTime::ZERO,
            next_seq_block: None,
            meter: StateMeter::new(),
        }
    }

    /// New disk already in standby (for estimator what-if runs).
    pub fn new_standby(params: DiskParams) -> Self {
        DiskModel {
            state: DiskState::Standby,
            ..DiskModel::new(params)
        }
    }

    /// The configured constants.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Current state (after the last `advance_to`/`service`).
    pub fn state(&self) -> DiskState {
        self.state
    }

    /// Reset energy accounting but keep power state and clock.
    pub fn reset_meter(&mut self) {
        self.meter.reset();
    }

    /// Record timestamped state changes for the observability recorder
    /// (see [`StateMeter::enable_state_log`]). Off by default; the
    /// simulator enables it only when a recorder is attached.
    pub fn enable_state_log(&mut self) {
        self.meter.enable_state_log(self.clock);
    }

    /// Drain state changes recorded since the last drain (see
    /// [`StateMeter::take_state_changes`]).
    pub fn take_state_changes(&mut self) -> Vec<crate::meter::StateChange> {
        self.meter.take_state_changes()
    }

    /// Meter `d` in `state` at `power` and move the clock past it.
    fn dwell(&mut self, state: PowerState, power: Watts, d: Dur) -> Joules {
        self.meter.dwell(state, power, d);
        self.clock += d;
        power * d
    }

    /// Head-positioning cost class for `req` given the previous position.
    fn positioning(&self, req: &DeviceRequest) -> Dur {
        match (req.block, self.next_seq_block) {
            (Some(b), Some(next)) if b == next => Dur::ZERO,
            (Some(b), Some(next)) => {
                let dist = b.abs_diff(next);
                if dist <= self.params.short_seek_blocks {
                    self.params.short_seek
                } else {
                    self.params.access_time()
                }
            }
            _ => self.params.access_time(),
        }
    }
}

impl PowerModel for DiskModel {
    fn advance_to(&mut self, now: SimTime) {
        while self.clock < now {
            match self.state {
                DiskState::Idle => {
                    let deadline = self.idle_since + self.params.timeout;
                    if now < deadline {
                        self.dwell(PowerState::Idle, self.params.idle_power, now - self.clock);
                    } else {
                        // Dwell idle up to the timeout, then start the
                        // spin-down. Transition energy is booked up front;
                        // the transient dwells at 0 W to record residency.
                        if self.clock < deadline {
                            self.dwell(
                                PowerState::Idle,
                                self.params.idle_power,
                                deadline - self.clock,
                            );
                        }
                        self.meter
                            .transition(Transition::SpinDown, self.params.spindown_energy);
                        self.state = DiskState::SpinningDown(deadline + self.params.spindown_time);
                    }
                }
                DiskState::SpinningDown(until) => {
                    let end = until.min(now);
                    self.dwell(PowerState::SpinningDown, Watts::ZERO, end - self.clock);
                    if end == until {
                        self.state = DiskState::Standby;
                    }
                }
                DiskState::Standby => {
                    self.dwell(
                        PowerState::Standby,
                        self.params.standby_power,
                        now - self.clock,
                    );
                }
                DiskState::SpinningUp(until) => {
                    let end = until.min(now);
                    self.dwell(PowerState::SpinningUp, Watts::ZERO, end - self.clock);
                    if end == until {
                        self.state = DiskState::Idle;
                        self.idle_since = until;
                    }
                }
            }
        }
    }

    fn service(&mut self, now: SimTime, req: &DeviceRequest) -> ServiceOutcome {
        // A request arriving while the device clock is ahead (still busy
        // from the caller's perspective) starts when the device is free.
        let arrival = now.max(self.clock);
        self.advance_to(arrival);

        let mut request_energy = Joules::ZERO;

        // Ride out an in-flight spin-down: the disk cannot abort it.
        if let DiskState::SpinningDown(until) = self.state {
            self.advance_to(until);
        }
        // Wait for someone else's spin-up to finish.
        if let DiskState::SpinningUp(until) = self.state {
            self.advance_to(until);
        }
        // Wake from standby.
        if self.state == DiskState::Standby {
            self.meter
                .transition(Transition::SpinUp, self.params.spinup_energy);
            request_energy += self.params.spinup_energy;
            let until = self.clock + self.params.spinup_time;
            self.state = DiskState::SpinningUp(until);
            self.advance_to(until);
        }
        debug_assert_eq!(self.state, DiskState::Idle);

        let svc = self.positioning(req) + self.params.bandwidth.transfer_time(req.bytes);
        request_energy += self.dwell(PowerState::Active, self.params.active_power, svc);
        self.state = DiskState::Idle;
        self.idle_since = self.clock;
        self.next_seq_block = req.block.map(|b| b + req.bytes.pages().max(1));

        ServiceOutcome {
            complete: self.clock,
            service_time: self.clock.saturating_since(now),
            energy: request_energy,
        }
    }

    fn estimate(&self, now: SimTime, req: &DeviceRequest) -> ServiceOutcome {
        let mut probe = self.clone();
        probe.service(now, req)
    }

    fn meter(&self) -> &StateMeter {
        &self.meter
    }

    fn clock(&self) -> SimTime {
        self.clock
    }

    fn is_ready(&self) -> bool {
        matches!(self.state, DiskState::Idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Dir;
    use ff_base::Bytes;

    fn disk() -> DiskModel {
        DiskModel::new(DiskParams::hitachi_dk23da())
    }

    const EPS: f64 = 1e-6;

    #[test]
    fn table1_constants() {
        let p = DiskParams::hitachi_dk23da();
        assert_eq!(p.active_power, Watts(2.0));
        assert_eq!(p.idle_power, Watts(1.6));
        assert_eq!(p.standby_power, Watts(0.15));
        assert_eq!(p.spinup_energy, Joules(5.0));
        assert_eq!(p.spindown_energy, Joules(2.94));
        assert_eq!(p.spinup_time, Dur::from_millis(1_600));
        assert_eq!(p.spindown_time, Dur::from_millis(2_300));
        assert_eq!(p.timeout, Dur::from_secs(20));
        assert_eq!(p.access_time(), Dur::from_millis(20));
    }

    #[test]
    fn break_even_is_a_few_seconds() {
        // (7.94 − 0.15·3.9) / (1.6 − 0.15) ≈ 5.07 s for the DK23DA.
        let be = DiskParams::hitachi_dk23da().break_even();
        assert!((be.as_secs_f64() - 5.073).abs() < 0.01, "{be}");
        // And it can never be shorter than the transition itself.
        assert!(be >= Dur::from_millis(3_900));
    }

    #[test]
    fn idle_energy_integrates() {
        let mut d = disk();
        d.advance_to(SimTime::from_secs(10));
        assert!((d.energy().get() - 16.0).abs() < EPS); // 1.6 W × 10 s
        assert_eq!(d.state(), DiskState::Idle);
    }

    #[test]
    fn spins_down_after_timeout() {
        let mut d = disk();
        d.advance_to(SimTime::from_secs(60));
        // 20 s idle (32 J) + spin-down (2.94 J) + 37.7 s standby (5.655 J).
        assert_eq!(d.state(), DiskState::Standby);
        let expect = 32.0 + 2.94 + (60.0 - 20.0 - 2.3) * 0.15;
        assert!((d.energy().get() - expect).abs() < EPS, "{}", d.energy());
        assert_eq!(d.meter().transition_count(Transition::SpinDown), 1);
        assert_eq!(
            d.meter().time_in(PowerState::SpinningDown),
            Dur::from_millis(2_300)
        );
    }

    #[test]
    fn advance_in_small_steps_equals_one_big_step() {
        let mut a = disk();
        let mut b = disk();
        a.advance_to(SimTime::from_secs(60));
        for s in 1..=600 {
            b.advance_to(SimTime::from_millis(s * 100));
        }
        assert!((a.energy().get() - b.energy().get()).abs() < EPS);
        assert_eq!(a.state(), b.state());
    }

    #[test]
    fn random_read_costs_positioning_plus_transfer() {
        let mut d = disk();
        let out = d.service(
            SimTime::ZERO,
            &DeviceRequest::read(Bytes(35_000_000), Some(100)),
        );
        // 20 ms positioning + 1 s transfer at 35 MB/s.
        assert!((out.service_time.as_secs_f64() - 1.020).abs() < 1e-4);
        assert!((out.energy.get() - 2.0 * 1.020).abs() < 1e-3);
        assert_eq!(d.state(), DiskState::Idle);
    }

    #[test]
    fn sequential_read_skips_positioning() {
        let mut d = disk();
        let first = d.service(SimTime::ZERO, &DeviceRequest::read(Bytes::kib(4), Some(10)));
        // Next block is 11 — contiguous.
        let second = d.service(
            first.complete,
            &DeviceRequest::read(Bytes::kib(4), Some(11)),
        );
        assert!(first.service_time >= Dur::from_millis(20));
        assert!(
            second.service_time < Dur::from_millis(1),
            "{}",
            second.service_time
        );
        // A near jump pays the short settle, a far jump the full seek.
        let third = d.service(
            second.complete,
            &DeviceRequest::read(Bytes::kib(4), Some(500)),
        );
        assert!(third.service_time >= Dur::from_millis(2));
        assert!(
            third.service_time < Dur::from_millis(5),
            "{}",
            third.service_time
        );
        let fourth = d.service(
            third.complete,
            &DeviceRequest::read(Bytes::kib(4), Some(500_000)),
        );
        assert!(fourth.service_time >= Dur::from_millis(20));
    }

    #[test]
    fn request_from_standby_pays_spinup() {
        let mut d = disk();
        d.advance_to(SimTime::from_secs(60)); // now in standby
        let out = d.service(
            SimTime::from_secs(60),
            &DeviceRequest::read(Bytes::kib(4), None),
        );
        // 1.6 s spin-up + 20 ms + tiny transfer.
        assert!(out.service_time >= Dur::from_millis(1_620));
        assert!(out.service_time < Dur::from_millis(1_630));
        assert!(out.energy.get() > 5.0, "must include the 5 J spin-up");
        assert_eq!(d.meter().transition_count(Transition::SpinUp), 1);
        assert_eq!(d.state(), DiskState::Idle);
    }

    #[test]
    fn request_during_spindown_waits_then_spins_up() {
        let mut d = disk();
        // Timeout at 20 s; spin-down runs 20 s → 22.3 s. Arrive at 21 s.
        d.advance_to(SimTime::from_secs(21));
        assert!(matches!(d.state(), DiskState::SpinningDown(_)));
        let out = d.service(
            SimTime::from_secs(21),
            &DeviceRequest::read(Bytes::kib(4), None),
        );
        // Wait 1.3 s for spin-down, then 1.6 s spin-up, then service.
        assert!(out.service_time >= Dur::from_millis(2_900));
        assert_eq!(d.meter().transition_count(Transition::SpinDown), 1);
        assert_eq!(d.meter().transition_count(Transition::SpinUp), 1);
    }

    #[test]
    fn back_to_back_requests_keep_disk_alive() {
        let mut d = disk();
        let mut t = SimTime::ZERO;
        for i in 0..10 {
            let out = d.service(t, &DeviceRequest::read(Bytes::kib(64), Some(i * 1000)));
            t = out.complete + Dur::from_secs(5); // within the 20 s timeout
        }
        assert_eq!(d.meter().transition_count(Transition::SpinDown), 0);
    }

    #[test]
    fn queued_request_starts_when_device_free() {
        let mut d = disk();
        let a = d.service(
            SimTime::ZERO,
            &DeviceRequest::read(Bytes(35_000_000), Some(0)),
        );
        // Second request "arrives" at t=0 too but the disk is busy ~1 s.
        let b = d.service(
            SimTime::ZERO,
            &DeviceRequest::read(Bytes::kib(4), Some(90_000)),
        );
        assert!(b.complete > a.complete);
        assert!(b.service_time >= a.complete.saturating_since(SimTime::ZERO));
    }

    #[test]
    fn estimate_does_not_mutate() {
        let d = {
            let mut d = disk();
            d.advance_to(SimTime::from_secs(60));
            d
        };
        let before_energy = d.energy();
        let est = d.estimate(
            SimTime::from_secs(60),
            &DeviceRequest::read(Bytes::kib(4), None),
        );
        assert!(est.energy.get() > 5.0);
        assert_eq!(d.energy(), before_energy);
        assert_eq!(d.state(), DiskState::Standby);
    }

    #[test]
    fn writes_cost_like_reads_at_device_level() {
        let mut d = disk();
        let r = d.estimate(
            SimTime::ZERO,
            &DeviceRequest {
                dir: Dir::Read,
                bytes: Bytes::kib(64),
                block: Some(5),
            },
        );
        let w = d.estimate(
            SimTime::ZERO,
            &DeviceRequest {
                dir: Dir::Write,
                bytes: Bytes::kib(64),
                block: Some(5),
            },
        );
        assert_eq!(r.service_time, w.service_time);
        assert_eq!(r.energy, w.energy);
        let _ = &mut d;
    }

    #[test]
    fn meter_reset_keeps_state() {
        let mut d = disk();
        d.advance_to(SimTime::from_secs(30));
        let state = d.state();
        d.reset_meter();
        assert_eq!(d.energy(), Joules::ZERO);
        assert_eq!(d.state(), state);
        assert_eq!(d.clock(), SimTime::from_secs(30));
    }

    #[test]
    fn is_ready_tracks_spinning() {
        let mut d = disk();
        assert!(d.is_ready());
        d.advance_to(SimTime::from_secs(60));
        assert!(!d.is_ready());
    }

    #[test]
    fn standby_start_constructor() {
        let mut d = DiskModel::new_standby(DiskParams::hitachi_dk23da());
        assert!(!d.is_ready());
        let out = d.service(SimTime::ZERO, &DeviceRequest::read(Bytes::kib(4), None));
        assert!(out.energy.get() > 5.0);
    }
}
