//! The benchmark's own checks: a tiny run prints every metric that
//! `BENCHMARK.json` lists, with its unit; the timing decorators never
//! change a replay; the committed-artifact oracle notices a perturbed
//! artifact. Run with `cargo test --release --manifest-path
//! replay-bench/Cargo.toml` (a debug build works, only slower).

use ff_base::json::Value;
use ff_base::Dur;
use ff_policy::{BlueFs, Policy};
use ff_sim::{SimConfig, Simulation};
use replay_bench::oracle::{check_committed, check_doc, Fingerprint, COMMITTED_SIM};
use replay_bench::timing::{Hook, Tally};
use replay_bench::workload::{Setup, Workload};
use replay_bench::{run, Options};

fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let doc = Value::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_array)
        .expect("the section is a list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Options {
    Options {
        seconds: 0.0,
        trace,
        ..Options::new(workload)
    }
}

#[test]
fn tiny_runs_print_every_listed_metric_with_its_unit() {
    for (workload, trace, section) in [
        (Workload::Chaos, false, "end_to_end"),
        (Workload::Export, true, "per_layer"),
    ] {
        let out = run(&tiny(workload, trace)).expect("tiny run");
        assert!(out.correct(), "{:?}", out.problems);
        assert!(out.attempted >= 1);
        let got: Vec<(String, String)> = out
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        assert_eq!(got, listed(section), "{section}");

        let text = out.render();
        for (name, unit) in &got {
            let printed = text.lines().any(|l| {
                let words: Vec<&str> = l.split_whitespace().collect();
                words.first() == Some(&name.as_str()) && words.last() == Some(&unit.as_str())
            });
            assert!(printed, "{name} [{unit}] missing from\n{text}");
        }

        let json = Value::parse(&out.json()).expect("the result line is JSON");
        assert_eq!(json.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(json.get("failed").and_then(Value::as_u64), Some(0));
        let metrics = json.get("metrics").expect("metrics");
        for (name, unit) in &got {
            let m = metrics.get(name).expect(name);
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
        }
        if trace {
            let value = |n: &str| out.metrics.iter().find(|m| m.name == n).expect(n).value;
            assert!(value("ff-sim.events") > 0.0);
            assert!(value("ff-sim.jsonl_bytes") > 0.0);
        }
    }
}

#[test]
fn traced_replays_equal_untraced_ones() {
    for workload in [Workload::Chaos, Workload::Export] {
        let setup = Setup::new(workload, 7).expect("set-up");
        assert!(setup.problems.is_empty(), "{:?}", setup.problems);
        let tally = Tally::default();
        for (cell, reference) in setup.cells.iter().zip(&setup.references) {
            let (out, _) = setup.replay(cell, Some(&tally)).expect("replay");
            assert_eq!(&out, reference, "{}/{}", cell.trace_name, cell.policy);
        }
        let cells = setup.cells.len() as u64;
        assert!(tally.hook(Hook::DecisionLog).calls >= cells);
        assert_eq!(tally.run_span().calls, cells);
        assert!(tally.hook(Hook::Observe).calls > 0);
        assert!(tally.hook(Hook::Select).calls > 0);
        let events: u64 = setup
            .references
            .iter()
            .filter_map(|r| r.export.as_ref().map(|e| e.events))
            .sum();
        assert_eq!(tally.record().calls, events);
        if workload == Workload::Chaos {
            assert!(tally.hook(Hook::Fault).calls > 0);
            assert!(tally.hook(Hook::InjectProfile).calls > 0);
            // FlexFetch's decision log only reaches the report through
            // a forwarded `take_decision_log`.
            assert!(setup
                .references
                .iter()
                .zip(&setup.cells)
                .any(|(r, c)| c.policy == "flexfetch" && !r.fingerprint.decisions.is_empty()));
        } else {
            assert!(events > 0);
        }
    }
}

#[test]
fn the_policy_decorator_forwards_a_disk_timeout_override() {
    let trace = ff_bench::observe::build_workload("grep", 42).expect("trace");
    let replay = |policy: Box<dyn Policy>| {
        let report = Simulation::new(SimConfig::default(), &trace)
            .policy_boxed(policy)
            .run()
            .expect("replay");
        Fingerprint::of(&report)
    };
    let parked = || Box::new(BlueFs::new().with_disk_timeout(Dur::from_millis(500)));
    let timed = Tally::default().wrap(parked());
    assert_eq!(timed.disk_timeout_override(), Some(Dur::from_millis(500)));
    assert_eq!(timed.name(), "BlueFS");
    assert_eq!(replay(timed), replay(parked()));
    // The override changes the run, so dropping it would show.
    assert_ne!(replay(parked()), replay(Box::new(BlueFs::new())));
}

#[test]
fn warm_up_matches_the_committed_artifact_and_notices_a_perturbed_one() {
    let setup = Setup::new(Workload::Baselines, 42).expect("set-up");
    assert!(setup.problems.is_empty(), "{:?}", setup.problems);
    let perturbed = COMMITTED_SIM.replacen(
        "\"total_j\": 66.13359589999989",
        "\"total_j\": 66.1335958999999",
        1,
    );
    assert_ne!(perturbed, COMMITTED_SIM);
    let problems = check_doc("BENCH_sim.json", &perturbed, &setup, &setup.references);
    assert_eq!(problems.len(), 1, "{problems:?}");
    assert!(problems[0].contains("grep/disk total_j"), "{problems:?}");

    let other_seed = Setup::new(Workload::Baselines, 43).expect("set-up");
    assert!(check_committed(&other_seed, &other_seed.references).is_empty());
}
