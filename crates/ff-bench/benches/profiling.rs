//! Benchmarks of the profiling layer: burst extraction over real
//! workload traces and the §2.2 on-line estimator (the paper asserts
//! "such simulation causes minimal overhead" — quantified here).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ff_device::{DiskModel, DiskParams, WnicModel, WnicParams};
use ff_profile::{first_stage_len, BurstExtractor, Estimator, Profiler};
use ff_trace::{DiskLayout, Make, Workload};

fn bench_extraction(c: &mut Criterion) {
    let trace = Make::default().build(1);
    c.bench_function("profile/extract_make_trace", |b| {
        let x = BurstExtractor::default();
        b.iter(|| black_box(x.extract(&trace).len()))
    });
}

fn bench_estimator(c: &mut Criterion) {
    let trace = Make::default().build(1);
    let profile = Profiler::standard().profile(&trace);
    let layout = DiskLayout::build(&trace.files, 7);
    // One 40 s stage — exactly what FlexFetch evaluates at each decision.
    let stage = profile.stages(ff_base::Dur::from_secs(40)).remove(0);
    c.bench_function("profile/estimate_stage_disk", |b| {
        let est = Estimator::new(&layout);
        b.iter(|| {
            black_box(est.disk_cost(&stage.bursts, DiskModel::new(DiskParams::hitachi_dk23da())))
        })
    });
    c.bench_function("profile/estimate_stage_wnic", |b| {
        let est = Estimator::new(&layout);
        b.iter(|| {
            black_box(est.wnic_cost(
                &stage.bursts,
                WnicModel::new(WnicParams::cisco_aironet350()),
            ))
        })
    });
    // One §2.3.1 re-plan as FlexFetch runs it: borrow the stage window
    // after the first 20 (spliced-away) bursts, then estimate both devices.
    c.bench_function("profile/replan_window_and_estimates", |b| {
        let est = Estimator::new(&layout);
        let stage_len = ff_base::Dur::from_secs(40);
        b.iter(|| {
            let rest = profile.bursts.get(20..).unwrap_or_default();
            let window = rest.get(..first_stage_len(rest, stage_len)).unwrap_or(rest);
            let disk = est.disk_cost(window, DiskModel::new(DiskParams::hitachi_dk23da()));
            let wnic = est.wnic_cost(window, WnicModel::new(WnicParams::cisco_aironet350()));
            black_box((disk, wnic))
        })
    });
}

criterion_group!(benches, bench_extraction, bench_estimator);
criterion_main!(benches);
