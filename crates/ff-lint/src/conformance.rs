//! Static↔dynamic trace conformance.
//!
//! The simulator's observability layer serialises every state change
//! as a JSONL event (`device_state` with a runtime dwell label,
//! `server_path` with the failover label). This pass replays the
//! committed traces under `bench/` and `results/` against the tables
//! the [`fsm`](crate::fsm) extractor recovered from source: every
//! runtime transition must be a static edge (directly, or bridged
//! through states the runtime cannot observe, like the WNIC's `ToPsm`
//! /`ToCam` switching states). A runtime transition the static model
//! lacks is a finding — the code and the model have diverged.
//!
//! The inverse gap — static edges no committed trace exercises — is
//! not a failure (traces are samples, the model is the whole), but it
//! is debt worth seeing: it is reported per machine in the JSON
//! report's `conformance.unexercised` array.

use crate::fsm::FsmTable;
use crate::rules::{Finding, Rule};
use ff_base::json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Runtime dwell labels per machine, mapped to static enum states.
/// `active` is the disk servicing while logically in `Idle` (the
/// DK23DA machine has no separate active state), and both WNIC dwell
/// labels per mode collapse onto the mode state.
const DISK_LABELS: [(&str, &str); 5] = [
    ("active", "Idle"),
    ("idle", "Idle"),
    ("spinning_down", "SpinningDown"),
    ("spinning_up", "SpinningUp"),
    ("standby", "Standby"),
];
const WNIC_LABELS: [(&str, &str); 4] = [
    ("cam_idle", "Cam"),
    ("cam_transfer", "Cam"),
    ("psm_idle", "Psm"),
    ("psm_transfer", "Psm"),
];
const SERVER_LABELS: [(&str, &str); 3] = [
    ("dead", "MarkedDead"),
    ("down", "Down"),
    ("healthy", "Healthy"),
];

/// Labels the runtime emits while dwelling in a transient state with
/// no unique static counterpart: the WNIC's `switching` dwell covers
/// both `ToPsm` and `ToCam`. The replay skips them — the surrounding
/// observable states must still connect through one unobservable
/// bridge state, which is exactly what those labels witness.
const WNIC_TRANSIENT: [&str; 1] = ["switching"];
const NO_TRANSIENT: [&str; 0] = [];

/// The machines traces can speak about: trace key, enum name, labels,
/// transient labels.
const MACHINES: [(&str, &str, &[(&str, &str)], &[&str]); 3] = [
    ("disk", "DiskState", &DISK_LABELS, &NO_TRANSIENT),
    ("server", "ServerPathState", &SERVER_LABELS, &NO_TRANSIENT),
    ("wnic", "WnicState", &WNIC_LABELS, &WNIC_TRANSIENT),
];

/// A statically-reachable transition no committed trace exercised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unexercised {
    /// Machine key (`disk`/`wnic`/`server`).
    pub machine: String,
    /// Static source state.
    pub from: String,
    /// Static target state.
    pub to: String,
}

/// What the replay covered, for the JSON report and coverage debt.
#[derive(Debug, Clone, Default)]
pub struct Coverage {
    /// Workspace-relative trace files replayed, in scan order.
    pub traces: Vec<String>,
    /// State-change events replayed across all traces.
    pub events: u64,
    /// Static non-self transitions no trace exercised.
    pub unexercised: Vec<Unexercised>,
}

impl Coverage {
    /// The `conformance` node of the JSON report.
    pub fn to_json_value(&self, runtime_only: u64) -> Value {
        Value::Object(vec![
            (
                "traces".into(),
                Value::Array(self.traces.iter().map(|t| Value::Str(t.clone())).collect()),
            ),
            ("events".into(), Value::UInt(self.events)),
            ("runtime_only".into(), Value::UInt(runtime_only)),
            (
                "unexercised".into(),
                Value::Array(
                    self.unexercised
                        .iter()
                        .map(|u| {
                            Value::Object(vec![
                                ("machine".into(), Value::Str(u.machine.clone())),
                                ("from".into(), Value::Str(u.from.clone())),
                                ("to".into(), Value::Str(u.to.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// One machine's replay context: its table, label map, observable
/// image, and current replay position.
struct Machine<'a> {
    key: &'static str,
    table: &'a FsmTable,
    labels: &'static [(&'static str, &'static str)],
    /// Labels for transient states with no unique static counterpart;
    /// the replay skips them and lets bridging cover the hop.
    transient: &'static [&'static str],
    /// States the runtime emits a label for; bridging is only allowed
    /// through states outside this set (they could not have been
    /// observed between two events).
    observable: BTreeSet<&'static str>,
    current: Option<String>,
}

impl<'a> Machine<'a> {
    fn new(
        key: &'static str,
        table: &'a FsmTable,
        labels: &'static [(&'static str, &'static str)],
        transient: &'static [&'static str],
    ) -> Machine<'a> {
        let current = match table.initial.as_slice() {
            [only] => Some(only.clone()),
            _ => None,
        };
        Machine {
            key,
            table,
            labels,
            transient,
            observable: labels.iter().map(|&(_, s)| s).collect(),
            current,
        }
    }

    fn state_for(&self, label: &str) -> Option<&'static str> {
        self.labels
            .iter()
            .find(|&&(l, _)| l == label)
            .map(|&(_, s)| s)
    }
}

/// Replay every `bench/*.jsonl` and `results/*.jsonl` under `root`
/// against the extracted tables. Returns coverage plus one finding per
/// runtime-only transition, unknown label, or malformed line.
pub fn analyze(root: &Path, tables: &[FsmTable]) -> (Coverage, Vec<Finding>) {
    let mut coverage = Coverage::default();
    let mut findings = Vec::new();

    let mut machines: BTreeMap<&str, Machine<'_>> = BTreeMap::new();
    for (key, enum_name, labels, transient) in MACHINES {
        if let Some(table) = tables.iter().find(|t| t.enum_name == enum_name) {
            machines.insert(key, Machine::new(key, table, labels, transient));
        }
    }

    let mut trace_paths = Vec::new();
    for dir in ["bench", "results"] {
        let Ok(entries) = std::fs::read_dir(root.join(dir)) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("jsonl") {
                trace_paths.push((
                    format!("{dir}/{}", entry.file_name().to_string_lossy()),
                    path,
                ));
            }
        }
    }
    trace_paths.sort();

    let mut exercised: BTreeSet<(String, String, String)> = BTreeSet::new();
    for (rel, path) in trace_paths {
        let Ok(text) = std::fs::read_to_string(&path) else {
            findings.push(Finding {
                rule: Rule::TraceConformance,
                file: rel.clone(),
                line: 0,
                token: "unreadable".to_owned(),
                message: "trace file exists but could not be read".to_owned(),
            });
            continue;
        };
        coverage.traces.push(rel.clone());
        // Each trace is an independent run: machines restart.
        for m in machines.values_mut() {
            m.current = match m.table.initial.as_slice() {
                [only] => Some(only.clone()),
                _ => None,
            };
        }
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(doc) = Value::parse(line) else {
                findings.push(Finding {
                    rule: Rule::TraceConformance,
                    file: rel.clone(),
                    line: idx + 1,
                    token: "malformed".to_owned(),
                    message: "trace line is not a JSON object".to_owned(),
                });
                continue;
            };
            let Some(ev) = doc.get("ev").and_then(Value::as_str) else {
                continue;
            };
            let machine_key = match ev {
                "device_state" => match doc.get("dev").and_then(Value::as_str) {
                    Some(dev) => dev.to_owned(),
                    None => continue,
                },
                "server_path" => "server".to_owned(),
                _ => continue,
            };
            let Some(machine) = machines.get_mut(machine_key.as_str()) else {
                continue; // a device without an extracted machine (flash)
            };
            let Some(label) = doc.get("state").and_then(Value::as_str) else {
                continue;
            };
            coverage.events += 1;
            if machine.transient.contains(&label) {
                continue;
            }
            let Some(next) = machine.state_for(label) else {
                findings.push(Finding {
                    rule: Rule::TraceConformance,
                    file: rel.clone(),
                    line: idx + 1,
                    token: format!("unknown-state:{}:{label}", machine.key),
                    message: format!(
                        "runtime label `{label}` maps to no state of {}",
                        machine.table.enum_name
                    ),
                });
                continue;
            };
            let prev = machine.current.replace(next.to_owned());
            let Some(prev) = prev else {
                continue; // first observation of a machine without a unique initial
            };
            if prev == next {
                if machine.table.has_transition(&prev, next) {
                    exercised.insert((machine.key.to_owned(), prev.clone(), next.to_owned()));
                }
                continue;
            }
            if machine.table.has_transition(&prev, next) {
                exercised.insert((machine.key.to_owned(), prev, next.to_owned()));
                continue;
            }
            // Bridge through one runtime-unobservable intermediate
            // (e.g. Cam -> ToPsm -> Psm where only Cam/Psm emit).
            let bridge = machine.table.states.iter().find(|mid| {
                !machine.observable.contains(mid.as_str())
                    && machine.table.has_transition(&prev, mid)
                    && machine.table.has_transition(mid, next)
            });
            if let Some(mid) = bridge {
                exercised.insert((machine.key.to_owned(), prev.clone(), mid.clone()));
                exercised.insert((machine.key.to_owned(), mid.clone(), next.to_owned()));
                continue;
            }
            findings.push(Finding {
                rule: Rule::TraceConformance,
                file: rel.clone(),
                line: idx + 1,
                token: format!("runtime-only:{}:{prev}->{next}", machine.key),
                message: format!(
                    "trace takes {prev} -> {next} but {} has no such edge (directly or via \
                     an unobservable state); the static model and the code have diverged",
                    machine.table.enum_name
                ),
            });
        }
    }

    // Coverage debt: static non-self edges never exercised, reported
    // only when there were traces to learn from.
    if !coverage.traces.is_empty() {
        for machine in machines.values() {
            let mut seen: BTreeSet<(&str, &str)> = BTreeSet::new();
            for tr in &machine.table.transitions {
                if tr.from == tr.to || !seen.insert((tr.from.as_str(), tr.to.as_str())) {
                    continue;
                }
                let key = (machine.key.to_owned(), tr.from.clone(), tr.to.clone());
                if !exercised.contains(&key) {
                    coverage.unexercised.push(Unexercised {
                        machine: machine.key.to_owned(),
                        from: tr.from.clone(),
                        to: tr.to.clone(),
                    });
                }
            }
        }
        coverage
            .unexercised
            .sort_by(|a, b| (&a.machine, &a.from, &a.to).cmp(&(&b.machine, &b.from, &b.to)));
    }

    findings.sort_by(|a, b| {
        (a.rule, &a.file, a.line, &a.token).cmp(&(b.rule, &b.file, b.line, &b.token))
    });
    (coverage, findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsm::Transition;

    fn disk_table() -> FsmTable {
        let edges = [
            ("Idle", "Idle"),
            ("Idle", "SpinningDown"),
            ("SpinningDown", "Standby"),
            ("Standby", "SpinningUp"),
            ("SpinningUp", "Idle"),
        ];
        FsmTable {
            file: "crates/ff-device/src/disk.rs".to_owned(),
            enum_name: "DiskState".to_owned(),
            states: ["Idle", "SpinningDown", "Standby", "SpinningUp"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
            initial: vec!["Idle".to_owned(), "Standby".to_owned()],
            transitions: edges
                .iter()
                .enumerate()
                .map(|(i, (f, t))| Transition {
                    from: (*f).to_owned(),
                    to: (*t).to_owned(),
                    line: i + 1,
                })
                .collect(),
        }
    }

    fn tree_with_trace(name: &str, trace: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ff-lint-conformance-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("bench")).expect("mkdir");
        std::fs::write(dir.join("bench/trace.jsonl"), trace).expect("write");
        dir
    }

    fn event(dev: &str, state: &str) -> String {
        format!("{{\"t\":0,\"ev\":\"device_state\",\"dev\":\"{dev}\",\"state\":\"{state}\"}}")
    }

    #[test]
    fn legal_trace_replays_clean_and_tracks_coverage() {
        let trace = [
            event("disk", "idle"),
            event("disk", "spinning_down"),
            event("disk", "standby"),
            event("disk", "spinning_up"),
            event("disk", "active"),
        ]
        .join("\n");
        let dir = tree_with_trace("clean", &trace);
        let (coverage, findings) = analyze(&dir, &[disk_table()]);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(coverage.events, 5);
        assert!(
            coverage.unexercised.is_empty(),
            "every non-self disk edge is walked: {:?}",
            coverage.unexercised
        );
    }

    #[test]
    fn runtime_only_transition_is_a_finding() {
        // idle -> standby skips the observable SpinningDown state; the
        // recorder would have emitted it, so this is a model divergence.
        let trace = [event("disk", "idle"), event("disk", "standby")].join("\n");
        let dir = tree_with_trace("runtime-only", &trace);
        let (_, findings) = analyze(&dir, &[disk_table()]);
        assert!(
            findings
                .iter()
                .any(|f| f.token == "runtime-only:disk:Idle->Standby"),
            "{findings:?}"
        );
    }

    #[test]
    fn unknown_label_is_a_finding() {
        let dir = tree_with_trace("unknown", &event("disk", "warp"));
        let (_, findings) = analyze(&dir, &[disk_table()]);
        assert!(
            findings
                .iter()
                .any(|f| f.token == "unknown-state:disk:warp"),
            "{findings:?}"
        );
    }

    #[test]
    fn unexercised_edges_surface_as_coverage_debt() {
        let trace = event("disk", "idle");
        let dir = tree_with_trace("debt", &trace);
        let (coverage, findings) = analyze(&dir, &[disk_table()]);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(coverage.unexercised.len(), 4, "{:?}", coverage.unexercised);
    }

    #[test]
    fn transient_labels_are_skipped_and_bridged() {
        // cam_idle -> switching -> psm_idle: `switching` has no unique
        // static state, so the replay skips it and validates Cam -> Psm
        // through the unobservable ToPsm bridge.
        let edges = [
            ("Cam", "ToPsm"),
            ("ToPsm", "Psm"),
            ("Psm", "ToCam"),
            ("ToCam", "Cam"),
        ];
        let wnic = FsmTable {
            file: "crates/ff-device/src/wnic.rs".to_owned(),
            enum_name: "WnicState".to_owned(),
            states: ["Cam", "ToPsm", "Psm", "ToCam"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
            initial: vec!["Cam".to_owned()],
            transitions: edges
                .iter()
                .enumerate()
                .map(|(i, (f, t))| Transition {
                    from: (*f).to_owned(),
                    to: (*t).to_owned(),
                    line: i + 1,
                })
                .collect(),
        };
        let trace = [
            event("wnic", "cam_idle"),
            event("wnic", "switching"),
            event("wnic", "psm_idle"),
        ]
        .join("\n");
        let dir = tree_with_trace("transient", &trace);
        let (coverage, findings) = analyze(&dir, &[wnic]);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(coverage.events, 3);
        // The bridged hop exercises Cam->ToPsm and ToPsm->Psm; only the
        // return leg remains as debt.
        assert_eq!(coverage.unexercised.len(), 2, "{:?}", coverage.unexercised);
    }

    #[test]
    fn roots_without_traces_are_silent() {
        let dir =
            std::env::temp_dir().join(format!("ff-lint-conformance-none-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let (coverage, findings) = analyze(&dir, &[disk_table()]);
        assert!(findings.is_empty());
        assert!(coverage.traces.is_empty());
        assert!(coverage.unexercised.is_empty());
    }
}
