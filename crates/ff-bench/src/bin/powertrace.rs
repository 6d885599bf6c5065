//! Export a chronological power trace of one simulation as CSV
//! (`t_start_s,t_end_s,device,state,watts`), suitable for gnuplot — the
//! kind of power timeline energy papers plot.
//!
//! Usage: `powertrace [policy]` with policy one of
//! `flexfetch|bluefs|disk|wnic` (default flexfetch); the scenario is the
//! paper's mplayer streaming workload, whose disk/WNIC alternation is
//! the most visually instructive.
//!
//! The trace is derived from the recorder's device events: each
//! `DeviceState` opens a segment that runs until the device's next
//! `DeviceState`, split by any transitions in between, and the last one
//! runs to the final energy sample.

use ff_base::{SimTime, Watts};
use ff_bench::Scenario;
use ff_device::PowerState;
use ff_policy::PolicyKind;
use ff_sim::record::{Device, Event, EventLog};
use ff_sim::{SimConfig, Simulation};

fn dump(device: Device, events: &[Event], end: SimTime) {
    let label = device.label();
    let mine = events.iter().filter(|e| {
        matches!(e, Event::DeviceState { device: d, .. }
            | Event::DeviceTransition { device: d, .. } if *d == device)
    });
    let mut t = 0.0f64;
    let mut open: Option<(SimTime, PowerState, Watts)> = None;
    for e in mine.map(Some).chain([None]) {
        let at = e.map_or(end, Event::at);
        // Print the open segment up to here; a transition only
        // interrupts it, so it resumes at the same draw afterwards.
        if let Some((since, state, power)) = open {
            if at > since {
                let end = t + (at - since).as_secs_f64();
                println!("{t:.6},{end:.6},{label},{state},{:.3}", power.get());
                t = end;
            }
            open = Some((at, state, power));
        }
        match e {
            Some(&Event::DeviceState { state, power, .. }) => open = Some((at, state, power)),
            Some(&Event::DeviceTransition { name, energy, .. }) => {
                println!("{t:.6},{t:.6},{label},{name},{:.3}", energy.get());
            }
            _ => {}
        }
    }
}

fn main() {
    let policy = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "flexfetch".into());
    let s = Scenario::mplayer(42).expect("scenario builds");
    let kind = match policy.as_str() {
        "flexfetch" => PolicyKind::flexfetch(s.profile.clone()),
        "bluefs" => PolicyKind::BlueFs,
        "disk" => PolicyKind::DiskOnly,
        "wnic" => PolicyKind::WnicOnly,
        other => {
            eprintln!("unknown policy {other}");
            std::process::exit(2);
        }
    };
    let cfg = s.configure(SimConfig::default());
    let mut log = EventLog::new();
    let report = Simulation::new(cfg, &s.trace)
        .policy(kind)
        .run_recorded(&mut log)
        .unwrap();
    eprintln!("# {}", report.summary());
    let end = log
        .events()
        .iter()
        .rev()
        .find_map(|e| match e {
            Event::EnergySample { at, .. } => Some(*at),
            _ => None,
        })
        .expect("a recorded run ends with an energy sample");
    println!("t_start_s,t_end_s,device,state,watts_or_joules");
    dump(Device::Disk, log.events(), end);
    dump(Device::Wnic, log.events(), end);
}
