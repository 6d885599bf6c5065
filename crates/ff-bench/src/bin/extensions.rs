//! Extension experiments beyond the paper's evaluation, covering its §5
//! future-work items:
//!
//! 1. **Partial hoarding** — the paper assumes the full working set is
//!    replicated locally. Here the hoard budget shrinks: the
//!    history-driven [`HoardPlanner`] keeps the hottest files on disk
//!    and everything else becomes WNIC-only, squeezing FlexFetch's
//!    freedom of choice.
//! 2. **Write synchronisation** — the paper defers sync to the hoarding
//!    system. With `sync_writes` every flushed dirty page is also
//!    uploaded to the server; the energy overhead is measured on the
//!    write-heavy kernel build.

use ff_base::{Bytes, Dur};
use ff_bench::Scenario;
use ff_policy::PolicyKind;
use ff_profile::HoardPlanner;
use ff_sim::{FaultPlan, SimConfig, Simulation};
use ff_trace::Workload as _;

fn main() {
    hoarding_budget();
    write_sync();
    mobility();
    outage();
    flash_tier();
}

/// §4's SmartSaver, attached: a CompactFlash tier absorbs re-reads the
/// small RAM cache cannot hold and buffers writes for the sleeping
/// disk. Measured on a re-read-heavy session (grep twice) with a
/// deliberately small RAM cache.
fn flash_tier() {
    println!("== extension: flash tier (grep x2, 16 MiB RAM cache) ==");
    let one = ff_trace::Grep::default().build(42);
    let twice = one
        .concat(&ff_trace::Grep::default().build(42), Dur::from_secs(30))
        .unwrap();
    let profile = ff_profile::Profiler::standard().profile(
        &ff_trace::Grep::default()
            .build(43)
            .concat(&ff_trace::Grep::default().build(43), Dur::from_secs(30))
            .unwrap(),
    );
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "flash", "FlexFetch", "Disk-only", "WNIC-only"
    );
    for flash_mb in [0usize, 64, 256] {
        let cfg = || {
            let mut c = SimConfig::default();
            c.cache.capacity_pages = 4096; // 16 MiB RAM
            if flash_mb > 0 {
                c = c.with_flash_mb(flash_mb);
            }
            c
        };
        let run = |kind: PolicyKind| {
            Simulation::new(cfg(), &twice)
                .policy(kind)
                .run()
                .unwrap()
                .total_energy()
                .get()
        };
        println!(
            "{:>7}MB {:>11.1}J {:>11.1}J {:>11.1}J",
            flash_mb,
            run(PolicyKind::flexfetch(profile.clone())),
            run(PolicyKind::DiskOnly),
            run(PolicyKind::WnicOnly),
        );
    }
    println!("(the second grep pass is served from flash at ~mW instead of a device)");
}

/// §2.3's "wireless network bandwidth changes due to … change of device
/// location", made concrete: the link degrades 11 → 1 Mbps mid-run.
/// Adaptive FlexFetch re-evaluates and abandons the crawling link; the
/// static variant keeps trusting its profile.
fn mobility() {
    println!("== extension: mid-run bandwidth degradation (mplayer, 11->1 Mbps at t=120 s) ==");
    let s = Scenario::mplayer(42).expect("scenario builds");
    let cfg = || {
        s.configure(SimConfig::default())
            .with_faults(FaultPlan::none().with_bandwidth_step(Dur::from_secs(120), 1.0))
    };
    println!("{:>18} {:>12} {:>10}", "policy", "energy", "time");
    for kind in [
        PolicyKind::flexfetch(s.profile.clone()),
        PolicyKind::flexfetch_static(s.profile.clone()),
        PolicyKind::DiskOnly,
        PolicyKind::WnicOnly,
    ] {
        let r = Simulation::new(cfg(), &s.trace).policy(kind).run().unwrap();
        println!(
            "{:>18} {:>11.1}J {:>9.1}s",
            r.policy,
            r.total_energy().get(),
            r.exec_time.as_secs_f64()
        );
    }
    println!();
}

/// Failure injection: a 3-minute wireless outage in the middle of the
/// kernel build. Requests fail over to the disk; FlexFetch's stage-end
/// audit sees the measured disk traffic and keeps functioning.
fn outage() {
    println!("== extension: 180 s wireless outage during grep+make (t=300..480 s) ==");
    let s = Scenario::grep_make(42).expect("scenario builds");
    let cfg = || {
        s.configure(SimConfig::default()).with_faults(
            FaultPlan::none().with_link_outage(Dur::from_secs(300), Dur::from_secs(180)),
        )
    };
    println!("{:>18} {:>12} {:>12}", "policy", "no outage", "with outage");
    for kind in [
        PolicyKind::flexfetch(s.profile.clone()),
        PolicyKind::WnicOnly,
        PolicyKind::DiskOnly,
    ] {
        let plain = Simulation::new(s.configure(SimConfig::default()), &s.trace)
            .policy(kind.clone())
            .run()
            .unwrap();
        let out = Simulation::new(cfg(), &s.trace)
            .policy(kind.clone())
            .run()
            .unwrap();
        println!(
            "{:>18} {:>11.1}J {:>11.1}J",
            kind.label(),
            plain.total_energy().get(),
            out.total_energy().get()
        );
    }
    println!("(Disk-only is untouched; network-leaning schemes absorb a disk detour)");
}

fn hoarding_budget() {
    println!("== extension: energy vs hoard budget (thunderbird, FlexFetch) ==");
    println!("(files that do not fit the budget are only reachable over the WNIC)");
    let s = Scenario::thunderbird(42).expect("scenario builds");
    let total = s.trace.files.total_size();
    println!(
        "{:>10} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "budget", "bytes%", "files", "FlexFetch", "WNIC-only", "wnic MB"
    );
    for pct in [100u64, 75, 50, 25, 10, 0] {
        let budget = Bytes(total.get() * pct / 100);
        let plan = HoardPlanner::new(budget).plan(&s.profile, &s.trace.files);
        let cfg = || {
            s.configure(SimConfig::default())
                .with_network_only_files(plan.missed.iter().copied())
        };
        let ff = Simulation::new(cfg(), &s.trace)
            .policy(PolicyKind::flexfetch(s.profile.clone()))
            .run()
            .unwrap();
        let wnic = Simulation::new(cfg(), &s.trace)
            .policy(PolicyKind::WnicOnly)
            .run()
            .unwrap();
        println!(
            "{:>9}% {:>9.0}% {:>10} {:>11.1}J {:>11.1}J {:>10.1}",
            pct,
            plan.hoarded_bytes.get() as f64 / total.get() as f64 * 100.0,
            plan.hoarded.len(),
            ff.total_energy().get(),
            wnic.total_energy().get(),
            ff.wnic_bytes.get() as f64 / 1e6,
        );
    }
    println!("(at 0% every scheme degenerates to WNIC-only behaviour)\n");
}

fn write_sync() {
    println!("== extension: write-synchronisation overhead (grep+make) ==");
    let s = Scenario::grep_make(42).expect("scenario builds");
    println!(
        "{:>12} {:>12} {:>12} {:>12}",
        "policy", "no sync", "sync", "overhead"
    );
    for kind in [
        PolicyKind::flexfetch(s.profile.clone()),
        PolicyKind::DiskOnly,
        PolicyKind::WnicOnly,
    ] {
        let plain = Simulation::new(s.configure(SimConfig::default()), &s.trace)
            .policy(kind.clone())
            .run()
            .unwrap();
        let synced = Simulation::new(
            s.configure(SimConfig::default().with_sync_writes()),
            &s.trace,
        )
        .policy(kind.clone())
        .run()
        .unwrap();
        let over = synced.total_energy().get() - plain.total_energy().get();
        println!(
            "{:>12} {:>11.1}J {:>11.1}J {:>+11.1}J",
            kind.label(),
            plain.total_energy().get(),
            synced.total_energy().get(),
            over
        );
    }
    println!("(WNIC-writers pay nothing extra: their pages already go to the server)");
}
