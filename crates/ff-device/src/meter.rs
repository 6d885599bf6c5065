//! Per-state time and energy accounting.

use ff_base::{Dur, Joules, SimTime, Watts};
use std::fmt;

/// A power state a device dwells in — the residency labels of every
/// model (disk, WNIC, flash) in one flat enum, so the meter, the record
/// events and the reports share a single state type.
///
/// Variants are declared in the order of their names: [`PowerState::ALL`]
/// (and hence [`StateMeter::residencies`]) runs in name order.
///
/// ```
/// use ff_device::PowerState;
/// assert_eq!(PowerState::CamIdle.name(), "cam_idle");
/// assert_eq!(format!("[{:<8}]", PowerState::Idle), "[idle    ]");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PowerState {
    /// Disk positioning or transferring.
    Active,
    /// WNIC in CAM, waiting (idle timeout or server round trip).
    CamIdle,
    /// WNIC in CAM, moving data.
    CamTransfer,
    /// Flash tier quiescent.
    FlashIdle,
    /// Flash tier sensing.
    FlashRead,
    /// Flash tier programming.
    FlashWrite,
    /// Disk spinning, no request.
    Idle,
    /// WNIC in PSM, between beacons or waiting on the server.
    PsmIdle,
    /// WNIC in PSM, moving one packet.
    PsmTransfer,
    /// Disk spin-down transient.
    SpinningDown,
    /// Disk spin-up transient.
    SpinningUp,
    /// Disk spun down.
    Standby,
    /// WNIC CAM↔PSM switch transient.
    Switching,
}

impl PowerState {
    /// Every state, in name order.
    pub const ALL: [PowerState; 13] = [
        PowerState::Active,
        PowerState::CamIdle,
        PowerState::CamTransfer,
        PowerState::FlashIdle,
        PowerState::FlashRead,
        PowerState::FlashWrite,
        PowerState::Idle,
        PowerState::PsmIdle,
        PowerState::PsmTransfer,
        PowerState::SpinningDown,
        PowerState::SpinningUp,
        PowerState::Standby,
        PowerState::Switching,
    ];

    /// Stable lowercase label used in reports and the JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            PowerState::Active => "active",
            PowerState::CamIdle => "cam_idle",
            PowerState::CamTransfer => "cam_transfer",
            PowerState::FlashIdle => "flash_idle",
            PowerState::FlashRead => "flash_read",
            PowerState::FlashWrite => "flash_write",
            PowerState::Idle => "idle",
            PowerState::PsmIdle => "psm_idle",
            PowerState::PsmTransfer => "psm_transfer",
            PowerState::SpinningDown => "spinning_down",
            PowerState::SpinningUp => "spinning_up",
            PowerState::Standby => "standby",
            PowerState::Switching => "switching",
        }
    }
}

impl fmt::Display for PowerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.name())
    }
}

/// A one-shot, lump-energy transition of some device model. Declared in
/// name order, like [`PowerState`].
///
/// ```
/// use ff_device::Transition;
/// assert_eq!(Transition::SpinUp.name(), "spin_up");
/// assert_eq!(Transition::SpinUp.to_string(), "spin_up");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Transition {
    /// WNIC CAM→PSM switch after the idle timeout.
    CamToPsm,
    /// WNIC PSM→CAM wake for multi-packet traffic.
    PsmToCam,
    /// Disk spin-down after the idle timeout.
    SpinDown,
    /// Disk spin-up to serve a request from standby.
    SpinUp,
}

impl Transition {
    /// Every transition, in name order.
    pub const ALL: [Transition; 4] = [
        Transition::CamToPsm,
        Transition::PsmToCam,
        Transition::SpinDown,
        Transition::SpinUp,
    ];

    /// Stable lowercase label used in reports and the JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            Transition::CamToPsm => "cam_to_psm",
            Transition::PsmToCam => "psm_to_cam",
            Transition::SpinDown => "spin_down",
            Transition::SpinUp => "spin_up",
        }
    }
}

impl fmt::Display for Transition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.name())
    }
}

/// One timestamped entry of the meter's chronological log — the input
/// to the simulator's observability recorder (`ff-sim`'s `Recorder`)
/// and, through it, to the power-trace export.
///
/// A dwell entry opens a segment that lasts until the device's next
/// dwell entry: consecutive dwells in one state coalesce, and a
/// transition fires inside the segment without ending it (the WNIC
/// switches straight back when a request lands mid-switch). Within a
/// segment the power is constant, with one exception: back-to-back
/// WNIC transfers in opposite directions at zero server latency.
///
/// ```
/// use ff_base::{Dur, Joules, SimTime, Watts};
/// use ff_device::{PowerState, StateChange, StateMeter, Transition};
///
/// let mut m = StateMeter::new();
/// m.enable_state_log(SimTime::ZERO);
/// m.dwell(PowerState::Idle, Watts(1.6), Dur::from_secs(20));
/// m.transition(Transition::SpinDown, Joules(2.94));
/// let changes = m.take_state_changes();
/// let at = SimTime::from_secs(20);
/// let energy = Joules(2.94);
/// assert_eq!(changes[1], StateChange::Fired { at, name: Transition::SpinDown, energy });
/// // A second take returns only what happened since.
/// assert!(m.take_state_changes().is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StateChange {
    /// The device started dwelling in `state`, drawing `power`.
    Dwell {
        /// Simulated instant the segment starts.
        at: SimTime,
        /// State entered.
        state: PowerState,
        /// Draw when the segment starts.
        power: Watts,
    },
    /// A one-shot transition fired, costing `energy`.
    Fired {
        /// Simulated instant of the transition.
        at: SimTime,
        /// Which transition.
        name: Transition,
        /// Lump-sum energy.
        energy: Joules,
    },
}

/// Internal bookkeeping for the chronological log.
#[derive(Debug, Clone, Default)]
struct MeterLog {
    /// The device clock: where recording started plus every dwell since.
    clock: SimTime,
    /// State of the last dwell entry.
    last: Option<PowerState>,
    /// Entries not yet drained by `take_state_changes`.
    pending: Vec<StateChange>,
}

/// Accumulates residency time and energy per [`PowerState`], plus
/// counted one-shot [`Transition`] energies (spin-ups, mode switches),
/// in fixed arrays with one slot per enum variant.
#[derive(Debug, Clone, Default)]
pub struct StateMeter {
    residency: [(Dur, Joules); PowerState::ALL.len()],
    transitions: [(u64, Joules); Transition::ALL.len()],
    total: Joules,
    /// Chronological log (None = disabled, the default — the
    /// zero-cost-when-off path the recorder relies on).
    log: Option<MeterLog>,
}

impl StateMeter {
    /// Fresh meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start recording timestamped [`StateChange`] entries. `clock` must
    /// be the device's current simulated clock: subsequent dwell time is
    /// accumulated on top of it to stamp each change. Idempotent.
    pub fn enable_state_log(&mut self, clock: SimTime) {
        self.log.get_or_insert_with(|| MeterLog {
            clock,
            ..MeterLog::default()
        });
    }

    /// Drain the state changes recorded since the last drain (empty when
    /// the log is disabled). The simulator pulls this after every
    /// discrete event and forwards the entries to its recorder.
    pub fn take_state_changes(&mut self) -> Vec<StateChange> {
        match &mut self.log {
            Some(log) => std::mem::take(&mut log.pending),
            None => Vec::new(),
        }
    }

    /// Account `d` spent in `state` drawing `power`.
    pub fn dwell(&mut self, state: PowerState, power: Watts, d: Dur) {
        if d.is_zero() {
            return;
        }
        if let Some(log) = &mut self.log {
            if log.last != Some(state) {
                log.pending.push(StateChange::Dwell {
                    at: log.clock,
                    state,
                    power,
                });
                log.last = Some(state);
            }
            log.clock += d;
        }
        let e = power * d;
        // Slot i belongs to `ALL[i]`: matching by position needs neither
        // a discriminant cast nor a panicking index.
        for (s, (time, energy)) in PowerState::ALL.into_iter().zip(&mut self.residency) {
            if s == state {
                *time += d;
                *energy += e;
            }
        }
        self.total += e;
    }

    /// Account a one-shot transition (e.g. a spin-up) costing `energy`.
    pub fn transition(&mut self, transition: Transition, energy: Joules) {
        if let Some(log) = &mut self.log {
            log.pending.push(StateChange::Fired {
                at: log.clock,
                name: transition,
                energy,
            });
        }
        for (t, (count, spent)) in Transition::ALL.into_iter().zip(&mut self.transitions) {
            if t == transition {
                *count += 1;
                *spent += energy;
            }
        }
        self.total += energy;
    }

    /// Total energy accounted.
    pub fn total(&self) -> Joules {
        self.total
    }

    /// Time spent in `state` so far.
    pub fn time_in(&self, state: PowerState) -> Dur {
        self.residencies()
            .find(|r| r.0 == state)
            .map_or(Dur::ZERO, |r| r.1)
    }

    /// Energy spent dwelling in `state` so far.
    pub fn energy_in(&self, state: PowerState) -> Joules {
        self.residencies()
            .find(|r| r.0 == state)
            .map_or(Joules::ZERO, |r| r.2)
    }

    /// Number of `transition`s so far.
    pub fn transition_count(&self, transition: Transition) -> u64 {
        self.transitions()
            .find(|t| t.0 == transition)
            .map_or(0, |t| t.1)
    }

    /// Energy spent on `transition`s so far.
    pub fn transition_energy(&self, transition: Transition) -> Joules {
        self.transitions()
            .find(|t| t.0 == transition)
            .map_or(Joules::ZERO, |t| t.2)
    }

    /// Iterate the states dwelt in so far, in name order.
    pub fn residencies(&self) -> impl Iterator<Item = (PowerState, Dur, Joules)> + '_ {
        PowerState::ALL
            .into_iter()
            .zip(self.residency)
            .filter(|(_, (d, _))| !d.is_zero())
            .map(|(s, (d, e))| (s, d, e))
    }

    /// Iterate the transitions fired so far, in name order.
    pub fn transitions(&self) -> impl Iterator<Item = (Transition, u64, Joules)> + '_ {
        Transition::ALL
            .into_iter()
            .zip(self.transitions)
            .filter(|(_, (n, _))| *n > 0)
            .map(|(t, (n, e))| (t, n, e))
    }

    /// Zero everything (reuse the device across stages/experiments).
    /// The log keeps its clock (simulated time continues) but drops
    /// undrained entries.
    pub fn reset(&mut self) {
        self.residency = Default::default();
        self.transitions = Default::default();
        self.total = Joules::ZERO;
        if let Some(log) = &mut self.log {
            log.pending.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::PowerState::*;
    use super::*;

    #[test]
    fn labels_are_declared_in_name_order() {
        // `ALL` holds every variant once, in declaration order…
        assert!(PowerState::ALL
            .iter()
            .enumerate()
            .all(|(i, &s)| s as usize == i));
        assert!(Transition::ALL
            .iter()
            .enumerate()
            .all(|(i, &t)| t as usize == i));
        // …and declaration order is name order.
        assert!(PowerState::ALL
            .windows(2)
            .all(|w| w[0].name() < w[1].name()));
        assert!(Transition::ALL
            .windows(2)
            .all(|w| w[0].name() < w[1].name()));
    }

    #[test]
    fn dwell_accumulates_time_and_energy() {
        let mut m = StateMeter::new();
        m.dwell(Idle, Watts(1.6), Dur::from_secs(10));
        m.dwell(Idle, Watts(1.6), Dur::from_secs(5));
        assert_eq!(m.time_in(Idle), Dur::from_secs(15));
        assert!((m.energy_in(Idle).get() - 24.0).abs() < 1e-9);
        assert!((m.total().get() - 24.0).abs() < 1e-9);
    }

    #[test]
    fn zero_dwell_is_free() {
        let mut m = StateMeter::new();
        m.dwell(Idle, Watts(1.6), Dur::ZERO);
        assert_eq!(m.total(), Joules::ZERO);
        assert_eq!(m.residencies().count(), 0);
    }

    #[test]
    fn transitions_count_and_cost() {
        let mut m = StateMeter::new();
        m.transition(Transition::SpinUp, Joules(5.0));
        m.transition(Transition::SpinUp, Joules(5.0));
        m.transition(Transition::SpinDown, Joules(2.94));
        assert_eq!(m.transition_count(Transition::SpinUp), 2);
        assert!((m.transition_energy(Transition::SpinUp).get() - 10.0).abs() < 1e-12);
        assert!((m.total().get() - 12.94).abs() < 1e-12);
        let fired: Vec<_> = m.transitions().map(|(t, n, _)| (t, n)).collect();
        assert_eq!(fired, [(Transition::SpinDown, 1), (Transition::SpinUp, 2)]);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = StateMeter::new();
        m.dwell(Active, Watts(2.0), Dur::from_secs(1));
        m.transition(Transition::SpinUp, Joules(5.0));
        m.reset();
        assert_eq!(m.total(), Joules::ZERO);
        assert_eq!(m.time_in(Active), Dur::ZERO);
        assert_eq!(m.transition_count(Transition::SpinUp), 0);
        assert_eq!(m.residencies().count() + m.transitions().count(), 0);
    }

    #[test]
    fn state_log_stamps_coalesces_and_drains_incrementally() {
        let mut m = StateMeter::new();
        m.enable_state_log(SimTime::from_secs(10));
        m.dwell(Idle, Watts(1.6), Dur::from_secs(20));
        m.dwell(Idle, Watts(1.6), Dur::from_secs(5)); // coalesces
        m.transition(Transition::SpinDown, Joules(2.94));
        m.dwell(SpinningDown, Watts::ZERO, Dur::from_millis(2_300));
        let mut log = m.take_state_changes();
        let (t10, t35) = (SimTime::from_secs(10), SimTime::from_secs(35));
        assert_eq!(
            log,
            [
                StateChange::Dwell {
                    at: t10,
                    state: Idle,
                    power: Watts(1.6)
                },
                StateChange::Fired {
                    at: t35,
                    name: Transition::SpinDown,
                    energy: Joules(2.94)
                },
                StateChange::Dwell {
                    at: t35,
                    state: SpinningDown,
                    power: Watts::ZERO
                },
            ]
        );
        // Incremental drain: later activity shows up in the next take.
        // Switching straight back does not end the switching segment.
        m.dwell(Switching, Watts::ZERO, Dur::from_millis(400));
        m.transition(Transition::PsmToCam, Joules(0.51));
        m.dwell(Switching, Watts::ZERO, Dur::from_millis(400));
        m.dwell(CamIdle, Watts(1.0), Dur::from_secs(1));
        let second = m.take_state_changes();
        let t37 = SimTime::from_secs(37) + Dur::from_millis(300);
        let t38 = t37 + Dur::from_millis(800);
        assert_eq!(
            second,
            [
                StateChange::Dwell {
                    at: t37,
                    state: Switching,
                    power: Watts::ZERO
                },
                StateChange::Fired {
                    at: t37 + Dur::from_millis(400),
                    name: Transition::PsmToCam,
                    energy: Joules(0.51)
                },
                StateChange::Dwell {
                    at: t38,
                    state: CamIdle,
                    power: Watts(1.0)
                },
            ]
        );
        log.extend(second);
        // Log energy equals meter total: each dwell entry's power holds
        // until the next dwell entry, the last one until the device clock.
        let end = t38 + Dur::from_secs(1);
        let mut energy = Joules::ZERO;
        for (i, entry) in log.iter().enumerate() {
            match *entry {
                StateChange::Dwell { at, power, .. } => {
                    let next = log[i + 1..].iter().find_map(|next| match *next {
                        StateChange::Dwell { at, .. } => Some(at),
                        StateChange::Fired { .. } => None,
                    });
                    energy += power * (next.unwrap_or(end) - at);
                }
                StateChange::Fired { energy: e, .. } => energy += e,
            }
        }
        assert!((energy.get() - m.total().get()).abs() < 1e-9);
        // A reset drops undrained entries but keeps the clock.
        m.dwell(Idle, Watts(1.6), Dur::from_secs(1));
        m.reset();
        assert!(m.take_state_changes().is_empty());
        m.dwell(Active, Watts(2.0), Dur::from_secs(1));
        let t = end + Dur::from_secs(1);
        assert!(matches!(m.take_state_changes()[..], [StateChange::Dwell { at, .. }] if at == t));
    }

    #[test]
    fn state_log_disabled_is_free_and_empty() {
        let mut m = StateMeter::new();
        m.dwell(Idle, Watts(1.6), Dur::from_secs(1));
        m.transition(Transition::SpinUp, Joules(5.0));
        assert!(m.take_state_changes().is_empty());
    }
}
