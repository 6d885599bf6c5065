//! The wireless-NIC power model (Cisco Aironet 350, Table 2).
//!
//! State machine:
//!
//! ```text
//!            timeout (800 ms idle)         switch (0.41 s, 0.53 J)
//!   CAM ───────────────────────────► ToPsm ────────────────────► PSM
//!    ▲                                                            │
//!    │   wake on traffic > 1 packet (0.40 s, 0.51 J)              │
//!    └────────────────────────◄── ToCam ◄─────────────────────────┘
//! ```
//!
//! §3.1: the card *"switches to the PSM mode from the CAM mode when WNIC
//! has been idle for more than 800 msec, and it switches back to the CAM
//! mode if more than one packet is ready on the access point."* We model
//! that adaptive policy literally: a request that fits in a single MTU
//! packet can be drained during a PSM beacon wake-up (paying half a
//! beacon interval of extra latency on average); anything larger forces
//! the PSM→CAM switch.
//!
//! Transfers draw the direction-specific receive/send power; the
//! round-trip latency to the remote server (a sweep axis in §3.3) dwells
//! at the mode's idle power.
//!
//! The state machine above is model-checked by `ff-lint` against the
//! `match self.state` transitions in this file, and every transition is
//! visible at run time as a `device_transition` observability event
//! (DESIGN.md §9 and §10).

use crate::consts;
use crate::meter::{PowerState, StateMeter, Transition};
use crate::model::{DeviceRequest, Dir, PowerModel, ServiceOutcome};
use ff_base::{BytesPerSec, Dur, Joules, SimTime, Watts};

/// WNIC power/performance constants. Defaults are Table 2 plus the §3.1
/// prose (800 ms PSM timeout, 11 Mbps) and a 1 ms base latency (the
/// fixed-latency point of the bandwidth sweep).
#[derive(Debug, Clone, PartialEq)]
pub struct WnicParams {
    /// PSM idle power (Table 2: 0.39 W).
    pub psm_idle: Watts,
    /// PSM receive power (Table 2: 1.42 W).
    pub psm_recv: Watts,
    /// PSM send power (Table 2: 2.48 W).
    pub psm_send: Watts,
    /// CAM idle power (Table 2: 1.41 W).
    pub cam_idle: Watts,
    /// CAM receive power (Table 2: 2.61 W).
    pub cam_recv: Watts,
    /// CAM send power (Table 2: 3.69 W).
    pub cam_send: Watts,
    /// CAM→PSM switch (Table 2: 0.41 s, 0.53 J).
    pub to_psm_time: Dur,
    /// Energy of the CAM→PSM switch.
    pub to_psm_energy: Joules,
    /// PSM→CAM switch (Table 2: 0.40 s, 0.51 J).
    pub to_cam_time: Dur,
    /// Energy of the PSM→CAM switch.
    pub to_cam_energy: Joules,
    /// CAM idle time before switching to PSM (§3.1: 800 ms).
    pub psm_timeout: Dur,
    /// Link bandwidth (802.11b: 1, 2, 5.5 or 11 Mbps).
    pub bandwidth: BytesPerSec,
    /// Round-trip latency to the remote storage server per request.
    pub latency: Dur,
    /// Largest request drainable during a PSM beacon wake-up without
    /// switching to CAM ("more than one packet ready" forces CAM).
    pub psm_packet_bytes: u64,
    /// 802.11 beacon interval; a PSM-serviced request waits half of it
    /// on average.
    pub beacon_interval: Dur,
}

impl WnicParams {
    /// The paper's card at 11 Mbps with 1 ms server latency. Every value
    /// comes from [`crate::consts`], the single source of truth for the
    /// Table 2 calibration numbers.
    pub fn cisco_aironet350() -> Self {
        WnicParams {
            psm_idle: Watts(consts::WNIC_PSM_IDLE_W),
            psm_recv: Watts(consts::WNIC_PSM_RECV_W),
            psm_send: Watts(consts::WNIC_PSM_SEND_W),
            cam_idle: Watts(consts::WNIC_CAM_IDLE_W),
            cam_recv: Watts(consts::WNIC_CAM_RECV_W),
            cam_send: Watts(consts::WNIC_CAM_SEND_W),
            to_psm_time: Dur::from_millis(consts::WNIC_TO_PSM_TIME_MS),
            to_psm_energy: Joules(consts::WNIC_TO_PSM_ENERGY_J),
            to_cam_time: Dur::from_millis(consts::WNIC_TO_CAM_TIME_MS),
            to_cam_energy: Joules(consts::WNIC_TO_CAM_ENERGY_J),
            psm_timeout: Dur::from_millis(consts::WNIC_PSM_TIMEOUT_MS),
            bandwidth: BytesPerSec::from_mbit_per_sec(consts::WNIC_BANDWIDTH_MBPS),
            latency: Dur::from_millis(consts::WNIC_LATENCY_MS),
            psm_packet_bytes: consts::WNIC_PSM_PACKET_BYTES,
            beacon_interval: Dur::from_millis(consts::WNIC_BEACON_INTERVAL_MS),
        }
    }

    /// Same card with a different link bandwidth (the Fig. x(b) sweeps).
    pub fn with_bandwidth_mbps(mut self, mbps: f64) -> Self {
        self.bandwidth = BytesPerSec::from_mbit_per_sec(mbps);
        self
    }

    /// Same card with a different server latency (the Fig. x(a) sweeps).
    pub fn with_latency(mut self, latency: Dur) -> Self {
        self.latency = latency;
        self
    }
}

impl Default for WnicParams {
    fn default() -> Self {
        WnicParams::cisco_aironet350()
    }
}

/// Observable WNIC state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WnicState {
    /// Continuously-aware mode: radio on, ready.
    Cam,
    /// Switching CAM→PSM; completes at the given instant.
    ToPsm(SimTime),
    /// Power-saving mode: radio mostly off, wakes at beacons.
    Psm,
    /// Switching PSM→CAM; completes at the given instant.
    ToCam(SimTime),
}

/// The live WNIC model.
#[derive(Debug, Clone)]
pub struct WnicModel {
    params: WnicParams,
    state: WnicState,
    clock: SimTime,
    /// Start of the current CAM idle stretch (valid in `Cam`).
    idle_since: SimTime,
    meter: StateMeter,
}

impl WnicModel {
    /// New card in PSM at t = 0 (a quiescent card has long since dropped
    /// to power-saving mode).
    pub fn new(params: WnicParams) -> Self {
        WnicModel {
            params,
            state: WnicState::Psm,
            clock: SimTime::ZERO,
            idle_since: SimTime::ZERO,
            meter: StateMeter::new(),
        }
    }

    /// New card in CAM (for estimator what-if runs).
    pub fn new_cam(params: WnicParams) -> Self {
        WnicModel {
            state: WnicState::Cam,
            ..WnicModel::new(params)
        }
    }

    /// The configured constants.
    pub fn params(&self) -> &WnicParams {
        &self.params
    }

    /// Current state.
    pub fn state(&self) -> WnicState {
        self.state
    }

    /// Reset energy accounting but keep mode and clock.
    pub fn reset_meter(&mut self) {
        self.meter.reset();
    }

    /// Record timestamped state changes for the observability recorder
    /// (see [`StateMeter::enable_state_log`]).
    pub fn enable_state_log(&mut self) {
        self.meter.enable_state_log(self.clock);
    }

    /// Drain state changes recorded since the last drain (see
    /// [`StateMeter::take_state_changes`]).
    pub fn take_state_changes(&mut self) -> Vec<crate::meter::StateChange> {
        self.meter.take_state_changes()
    }

    /// Change the link bandwidth mid-run (reception quality shifted —
    /// §2.3's "wireless network bandwidth changes due to factors such as
    /// change of device location"). Affects subsequent transfers only.
    pub fn set_bandwidth(&mut self, bandwidth: BytesPerSec) {
        self.params.bandwidth = bandwidth;
    }

    /// Meter `d` in `state` at `power` and move the clock past it.
    fn dwell(&mut self, state: PowerState, power: Watts, d: Dur) -> Joules {
        self.meter.dwell(state, power, d);
        self.clock += d;
        power * d
    }

    fn transfer_power(&self, dir: Dir, cam: bool) -> Watts {
        match (dir, cam) {
            (Dir::Read, true) => self.params.cam_recv,
            (Dir::Write, true) => self.params.cam_send,
            (Dir::Read, false) => self.params.psm_recv,
            (Dir::Write, false) => self.params.psm_send,
        }
    }
}

impl PowerModel for WnicModel {
    fn advance_to(&mut self, now: SimTime) {
        while self.clock < now {
            match self.state {
                WnicState::Cam => {
                    let deadline = self.idle_since + self.params.psm_timeout;
                    if now < deadline {
                        self.dwell(PowerState::CamIdle, self.params.cam_idle, now - self.clock);
                    } else {
                        if self.clock < deadline {
                            self.dwell(
                                PowerState::CamIdle,
                                self.params.cam_idle,
                                deadline - self.clock,
                            );
                        }
                        self.meter
                            .transition(Transition::CamToPsm, self.params.to_psm_energy);
                        self.state = WnicState::ToPsm(deadline + self.params.to_psm_time);
                    }
                }
                WnicState::ToPsm(until) => {
                    let end = until.min(now);
                    self.dwell(PowerState::Switching, Watts::ZERO, end - self.clock);
                    if end == until {
                        self.state = WnicState::Psm;
                    }
                }
                WnicState::Psm => {
                    self.dwell(PowerState::PsmIdle, self.params.psm_idle, now - self.clock);
                }
                WnicState::ToCam(until) => {
                    let end = until.min(now);
                    self.dwell(PowerState::Switching, Watts::ZERO, end - self.clock);
                    if end == until {
                        self.state = WnicState::Cam;
                        self.idle_since = until;
                    }
                }
            }
        }
    }

    fn service(&mut self, now: SimTime, req: &DeviceRequest) -> ServiceOutcome {
        let arrival = now.max(self.clock);
        self.advance_to(arrival);

        let mut request_energy = Joules::ZERO;

        // Ride out an in-flight switch either way.
        if let WnicState::ToPsm(until) = self.state {
            self.advance_to(until);
        }
        if let WnicState::ToCam(until) = self.state {
            self.advance_to(until);
        }

        let psm_servable =
            self.state == WnicState::Psm && req.bytes.get() <= self.params.psm_packet_bytes;

        if psm_servable {
            // Drain the single packet at the next beacon: half a beacon
            // interval of PSM-idle wait on average, then latency and
            // transfer at PSM transfer power.
            let wait = self.params.beacon_interval / 2;
            request_energy += self.dwell(PowerState::PsmIdle, self.params.psm_idle, wait);
            let latency = self.params.latency;
            request_energy += self.dwell(PowerState::PsmIdle, self.params.psm_idle, latency);

            let transfer = self.params.bandwidth.transfer_time(req.bytes);
            let p = self.transfer_power(req.dir, false);
            request_energy += self.dwell(PowerState::PsmTransfer, p, transfer);
            // Remains in PSM.
        } else {
            if self.state == WnicState::Psm {
                self.meter
                    .transition(Transition::PsmToCam, self.params.to_cam_energy);
                request_energy += self.params.to_cam_energy;
                let until = self.clock + self.params.to_cam_time;
                self.state = WnicState::ToCam(until);
                self.advance_to(until);
            }
            debug_assert_eq!(self.state, WnicState::Cam);

            // Round-trip to the server at CAM idle power.
            let latency = self.params.latency;
            request_energy += self.dwell(PowerState::CamIdle, self.params.cam_idle, latency);

            let transfer = self.params.bandwidth.transfer_time(req.bytes);
            let p = self.transfer_power(req.dir, true);
            request_energy += self.dwell(PowerState::CamTransfer, p, transfer);
            self.idle_since = self.clock;
        }

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
        matches!(self.state, WnicState::Cam)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_base::Bytes;

    fn wnic() -> WnicModel {
        WnicModel::new(WnicParams::cisco_aironet350())
    }

    const EPS: f64 = 1e-6;

    #[test]
    fn table2_constants() {
        let p = WnicParams::cisco_aironet350();
        assert_eq!(p.psm_idle, Watts(0.39));
        assert_eq!(p.psm_recv, Watts(1.42));
        assert_eq!(p.psm_send, Watts(2.48));
        assert_eq!(p.cam_idle, Watts(1.41));
        assert_eq!(p.cam_recv, Watts(2.61));
        assert_eq!(p.cam_send, Watts(3.69));
        assert_eq!(p.to_psm_time, Dur::from_millis(410));
        assert_eq!(p.to_psm_energy, Joules(0.53));
        assert_eq!(p.to_cam_time, Dur::from_millis(400));
        assert_eq!(p.to_cam_energy, Joules(0.51));
        assert_eq!(p.psm_timeout, Dur::from_millis(800));
    }

    #[test]
    fn psm_idle_energy_integrates() {
        let mut w = wnic();
        w.advance_to(SimTime::from_secs(100));
        assert!((w.energy().get() - 39.0).abs() < EPS); // 0.39 W × 100 s
        assert_eq!(w.state(), WnicState::Psm);
    }

    #[test]
    fn cam_times_out_to_psm() {
        let mut w = WnicModel::new_cam(WnicParams::cisco_aironet350());
        w.advance_to(SimTime::from_secs(10));
        assert_eq!(w.state(), WnicState::Psm);
        // 0.8 s CAM idle + switch 0.53 J + (10 − 0.8 − 0.41) s PSM.
        let expect = 1.41 * 0.8 + 0.53 + 0.39 * (10.0 - 0.8 - 0.41);
        assert!((w.energy().get() - expect).abs() < EPS, "{}", w.energy());
        assert_eq!(w.meter().transition_count(Transition::CamToPsm), 1);
    }

    #[test]
    fn large_request_from_psm_pays_wakeup() {
        let mut w = wnic();
        let out = w.service(SimTime::ZERO, &DeviceRequest::read(Bytes::kib(64), None));
        // 0.4 s switch + 1 ms latency + 64 KiB at 11 Mbps (~47.7 ms).
        assert!(out.service_time >= Dur::from_millis(440));
        assert!(
            out.service_time < Dur::from_millis(460),
            "{}",
            out.service_time
        );
        assert!(out.energy.get() > 0.51);
        assert_eq!(w.state(), WnicState::Cam);
        assert_eq!(w.meter().transition_count(Transition::PsmToCam), 1);
    }

    #[test]
    fn single_packet_served_in_psm() {
        let mut w = wnic();
        let out = w.service(SimTime::ZERO, &DeviceRequest::read(Bytes(1200), None));
        assert_eq!(w.state(), WnicState::Psm, "stays in PSM for one packet");
        assert_eq!(w.meter().transition_count(Transition::PsmToCam), 0);
        // Waits up to half a beacon (50 ms) + latency + ~0.9 ms transfer.
        assert!(out.service_time >= Dur::from_millis(50));
        assert!(out.service_time < Dur::from_millis(60));
    }

    #[test]
    fn back_to_back_requests_stay_in_cam() {
        let mut w = wnic();
        let a = w.service(SimTime::ZERO, &DeviceRequest::read(Bytes::kib(64), None));
        let b = w.service(
            a.complete + Dur::from_millis(100),
            &DeviceRequest::read(Bytes::kib(64), None),
        );
        assert_eq!(
            w.meter().transition_count(Transition::PsmToCam),
            1,
            "only the first pays"
        );
        assert!(b.service_time < Dur::from_millis(60));
    }

    #[test]
    fn sparse_requests_thrash_modes() {
        let mut w = wnic();
        let mut t = SimTime::ZERO;
        for _ in 0..5 {
            let out = w.service(t, &DeviceRequest::read(Bytes::kib(64), None));
            t = out.complete + Dur::from_secs(3); // far beyond the 800 ms timeout
        }
        w.advance_to(t); // let the final CAM stretch time out too
        assert_eq!(w.meter().transition_count(Transition::PsmToCam), 5);
        assert_eq!(w.meter().transition_count(Transition::CamToPsm), 5);
    }

    #[test]
    fn write_draws_send_power() {
        let w = wnic();
        let r = w.estimate(SimTime::ZERO, &DeviceRequest::read(Bytes::mib(1), None));
        let wr = w.estimate(SimTime::ZERO, &DeviceRequest::write(Bytes::mib(1), None));
        assert!(
            wr.energy > r.energy,
            "send (3.69 W) must beat recv (2.61 W)"
        );
        assert_eq!(wr.service_time, r.service_time);
    }

    #[test]
    fn bandwidth_sweep_changes_transfer_time() {
        for (mbps, secs) in [(1.0, 8.0), (2.0, 4.0), (5.5, 1.4545), (11.0, 0.7273)] {
            let p = WnicParams::cisco_aironet350().with_bandwidth_mbps(mbps);
            let mut w = WnicModel::new_cam(p);
            let out = w.service(SimTime::ZERO, &DeviceRequest::read(Bytes::mib(1), None));
            let expect = 1024.0 * 1024.0 * 8.0 / (mbps * 1e6) + 0.001;
            assert!(
                (out.service_time.as_secs_f64() - expect).abs() < 0.01,
                "{mbps} Mbps: {} vs {secs}",
                out.service_time
            );
        }
    }

    #[test]
    fn latency_sweep_dwells_at_idle_power() {
        let p = WnicParams::cisco_aironet350().with_latency(Dur::from_millis(30));
        let mut w = WnicModel::new_cam(p);
        let out = w.service(SimTime::ZERO, &DeviceRequest::read(Bytes(2000), None));
        assert!(out.service_time >= Dur::from_millis(30));
        // Latency energy = 1.41 W × 30 ms = 42.3 mJ, present in the total.
        assert!(out.energy.get() > 0.0423);
    }

    #[test]
    fn request_during_switch_waits() {
        let mut w = WnicModel::new_cam(WnicParams::cisco_aironet350());
        // Idle past the timeout so a CAM→PSM switch is in flight at 1 s.
        w.advance_to(SimTime::from_millis(1_000));
        assert!(matches!(w.state(), WnicState::ToPsm(_)));
        let out = w.service(
            SimTime::from_millis(1_000),
            &DeviceRequest::read(Bytes::kib(64), None),
        );
        // Finish ToPsm (ends at 1.21 s), then PSM→CAM 0.4 s, then serve.
        assert!(out.service_time >= Dur::from_millis(610));
    }

    #[test]
    fn estimate_does_not_mutate() {
        let w = wnic();
        let e1 = w.estimate(SimTime::ZERO, &DeviceRequest::read(Bytes::kib(64), None));
        let e2 = w.estimate(SimTime::ZERO, &DeviceRequest::read(Bytes::kib(64), None));
        assert_eq!(e1, e2);
        assert_eq!(w.energy(), Joules::ZERO);
    }

    #[test]
    fn is_ready_means_cam() {
        let mut w = wnic();
        assert!(!w.is_ready());
        w.service(SimTime::ZERO, &DeviceRequest::read(Bytes::kib(64), None));
        assert!(w.is_ready());
    }
}
