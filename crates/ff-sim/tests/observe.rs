//! Integration tests for the observability layer: golden event trace,
//! recorder-neutrality, and counters-vs-events consistency.

use ff_base::Joules;
use ff_device::Transition;
use ff_policy::PolicyKind;
use ff_profile::Profiler;
use ff_sim::record::{Device, Event, EventLog, NullRecorder};
use ff_sim::{SimConfig, SimReport, Simulation};
use ff_trace::{Grep, Make, Trace, Workload};

/// The short, fixed workload behind the golden trace: a small grep run
/// (seed 42) under FlexFetch primed with a profile from a different
/// execution (seed 43) — the §2.2 prior-run assumption.
fn golden_trace() -> Trace {
    Grep {
        files: 30,
        total_bytes: 2_000_000,
        ..Default::default()
    }
    .build(42)
}

fn golden_policy() -> PolicyKind {
    let prior = Grep {
        files: 30,
        total_bytes: 2_000_000,
        ..Default::default()
    }
    .build(43);
    PolicyKind::flexfetch(Profiler::standard().profile(&prior))
}

fn run_logged(trace: &Trace, kind: PolicyKind) -> (SimReport, EventLog) {
    let mut log = EventLog::new();
    let report = Simulation::new(SimConfig::default(), trace)
        .policy(kind)
        .run_recorded(&mut log)
        .expect("valid trace");
    (report, log)
}

/// Regenerate with:
/// `FF_BLESS=1 cargo test -p ff-sim --test observe golden_jsonl`
#[test]
fn golden_jsonl_is_stable() {
    let trace = golden_trace();
    let (_, log) = run_logged(&trace, golden_policy());
    let jsonl = log.to_jsonl();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/grep_flexfetch_seed42.jsonl"
    );
    if std::env::var_os("FF_BLESS").is_some() {
        std::fs::write(path, &jsonl).expect("bless golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file committed");
    assert_eq!(
        jsonl, golden,
        "event stream drifted from the golden trace; if intentional, \
         regenerate with FF_BLESS=1 and review the diff"
    );
}

fn assert_reports_equal(a: &SimReport, b: &SimReport) {
    assert_eq!(a.policy, b.policy);
    assert_eq!(a.workload, b.workload);
    assert_eq!(a.exec_time, b.exec_time);
    assert_eq!(a.disk_energy, b.disk_energy);
    assert_eq!(a.wnic_energy, b.wnic_energy);
    assert_eq!(a.flash_energy, b.flash_energy);
    assert_eq!(a.app_requests, b.app_requests);
    assert_eq!(a.disk_requests, b.disk_requests);
    assert_eq!(a.wnic_requests, b.wnic_requests);
    assert_eq!(a.disk_bytes, b.disk_bytes);
    assert_eq!(a.wnic_bytes, b.wnic_bytes);
    assert_eq!(a.flash_requests, b.flash_requests);
    assert_eq!(a.flash_bytes, b.flash_bytes);
    assert_eq!(a.cache_hits, b.cache_hits);
    assert_eq!(a.cache_misses, b.cache_misses);
    assert_eq!(a.cache_stats, b.cache_stats);
    assert_eq!(a.stages, b.stages);
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.stage_summaries, b.stage_summaries);
    assert_eq!(a.recorded_profile.is_some(), b.recorded_profile.is_some());
}

/// Recorders observe, they do not steer: a NullRecorder run and a
/// full EventLog run must both produce the exact report of a plain
/// `run()`.
#[test]
fn recorders_leave_the_report_unchanged() {
    let trace = golden_trace();
    let plain = Simulation::new(SimConfig::default(), &trace)
        .policy(golden_policy())
        .run()
        .expect("valid trace");
    let mut null = NullRecorder;
    let nulled = Simulation::new(SimConfig::default(), &trace)
        .policy(golden_policy())
        .run_recorded(&mut null)
        .expect("valid trace");
    assert_reports_equal(&plain, &nulled);
    let (logged, log) = run_logged(&trace, golden_policy());
    assert_reports_equal(&plain, &logged);
    assert!(!log.is_empty(), "the full recorder must see events");
}

/// Every aggregate the report carries must equal what the event stream
/// implies — on a read-write workload so write-back flushes appear.
#[test]
fn counters_match_events() {
    let trace = Make {
        units: 15,
        headers: 30,
        misc: 2,
        input_bytes: 1_500_000,
        ..Default::default()
    }
    .build(42);
    let (report, log) = run_logged(&trace, PolicyKind::BlueFs);

    assert_eq!(log.count("app_call"), report.app_requests);
    assert_eq!(log.count("stage_end"), report.stages as u64);
    assert_eq!(log.count("adaptation"), report.decisions.len() as u64);

    let (mut hits, mut misses, mut ra) = (0u64, 0u64, 0u64);
    let (mut flush_pages, mut disk_routes, mut wnic_routes) = (0u64, 0u64, 0u64);
    for ev in log.events() {
        match *ev {
            Event::CacheRead {
                hit_pages,
                miss_pages,
                readahead_pages,
                ..
            } => {
                hits += hit_pages;
                misses += miss_pages;
                ra += readahead_pages;
            }
            Event::WritebackFlush { pages, .. } => flush_pages += pages,
            Event::Decision { source, .. } => match source {
                ff_policy::Source::Disk => disk_routes += 1,
                ff_policy::Source::Wnic => wnic_routes += 1,
            },
            _ => {}
        }
    }
    let cs = report.cache_stats;
    assert_eq!((hits, misses), (cs.hits, cs.misses));
    assert_eq!(ra, cs.readahead_pages);
    assert!(cs.flushes > 0, "Make must trigger write-back");
    assert_eq!(log.count("writeback_flush"), cs.flushes);
    assert_eq!(flush_pages, cs.flushed_pages);
    // Every metered transition surfaced as one event carrying its
    // energy, in metering order — so even the float sums agree exactly.
    for (device, meter) in [
        (Device::Disk, &report.disk_meter),
        (Device::Wnic, &report.wnic_meter),
    ] {
        assert!(meter.transitions().count() > 0, "{device:?} never switched");
        for t in Transition::ALL {
            let (n, e) = log
                .events()
                .iter()
                .fold((0u64, Joules::ZERO), |(n, e), ev| match *ev {
                    Event::DeviceTransition {
                        device: d,
                        name,
                        energy,
                        ..
                    } if d == device && name == t => (n + 1, e + energy),
                    _ => (n, e),
                });
            assert_eq!(n, meter.transition_count(t), "{device:?} {t}");
            assert_eq!(e, meter.transition_energy(t), "{device:?} {t}");
        }
    }
    // Every device request traces back to some routed decision.
    assert!(disk_routes > 0, "Make reads must route somewhere");
    assert_eq!(
        (report.disk_requests > 0, report.wnic_requests > 0),
        (disk_routes > 0, wnic_routes > 0)
    );
}

/// The summary counters a CountingRecorder accumulates must match the
/// full log of the same run — the cheap recorder loses nothing but the
/// payloads.
#[test]
fn counting_recorder_matches_event_log() {
    let trace = golden_trace();
    let mut counter = ff_sim::CountingRecorder::new();
    Simulation::new(SimConfig::default(), &trace)
        .policy(golden_policy())
        .run_recorded(&mut counter)
        .expect("valid trace");
    let (_, log) = run_logged(&trace, golden_policy());
    assert_eq!(counter.total(), log.len() as u64);
    assert_eq!(&log.counts(), counter.counts());
}
