//! Event-coverage analysis: every device-state transition the FSM
//! checker proves reachable must also be *observable*.
//!
//! The observability layer (PR 4) only sees what the models emit: the
//! `StateMeter` dwell/transition calls in `ff-device`, drained by the
//! simulator into `record::Event` values. A transition that fires but is
//! never metered silently disappears from traces, energy accounting,
//! and the bench export — the classic failure mode this family guards
//! against. Three legs:
//!
//! 1. **recording** — every `self.state = …` assignment in an extracted
//!    [`FsmTable`] must sit within a few lines of a `.dwell(` /
//!    `.transition(` meter call in the same fn, i.e. the state change is
//!    accounted before (or as) it happens;
//! 2. **naming** — every variant of ff-device's meter `Transition` enum
//!    (read from the item tree, so the names live in one place) must be
//!    fired by a `.transition(Transition::…` call in non-test ff-device
//!    code outside the file declaring it. The compiler already rejects a
//!    misspelt name; this leg catches a transition no model fires any
//!    more, whose events downstream recorders and the power trace would
//!    silently lose;
//! 3. **wiring** — when `ff-sim` is in the scanned tree, its `Event`
//!    enum must still declare the `DeviceState`/`DeviceTransition`
//!    variants, some simulator code must drain the meters
//!    (`take_state_changes`), and the drained changes must actually be
//!    re-emitted as `DeviceTransition` events.
//!
//! Like `model-invariants` and `fsm`, the family is *required-presence*:
//! deleting the plumbing it audits is itself a finding, never a silent
//! pass.

use crate::fsm::FsmTable;
use crate::items::ItemTree;
use crate::rules::{Finding, Rule};
use crate::scan::{FileKind, SourceFile};

/// How many lines above a `self.state = …` assignment a meter call may
/// sit and still count as recording that transition. The real models
/// meter the dwell/transient energy immediately before committing the
/// state change; 6 lines spans the widest such gap (a multi-line
/// `.dwell(` call plus the deadline arithmetic between them).
const RECORD_WINDOW: usize = 6;

/// Run the event-coverage checks.
pub fn analyze(sources: &[SourceFile], trees: &[ItemTree], tables: &[FsmTable]) -> Vec<Finding> {
    let mut out = Vec::new();
    for table in tables {
        check_recording(sources, trees, table, &mut out);
    }
    check_meter_names(sources, trees, &mut out);
    check_sim_wiring(sources, trees, &mut out);
    out
}

fn finding(file: &str, line: usize, token: String, message: String) -> Finding {
    Finding {
        rule: Rule::EventCoverage,
        file: file.to_owned(),
        line,
        token,
        message,
    }
}

/// Leg 1: each transition's assignment line must have a meter call in
/// the preceding [`RECORD_WINDOW`] lines of the same fn.
fn check_recording(
    sources: &[SourceFile],
    trees: &[ItemTree],
    table: &FsmTable,
    out: &mut Vec<Finding>,
) {
    let Some(fi) = sources.iter().position(|f| f.rel_path == table.file) else {
        return;
    };
    let file = &sources[fi];
    for tr in &table.transitions {
        if tr.from == tr.to {
            continue; // self-loop: no observable change
        }
        let fn_start = trees[fi]
            .fn_at(tr.line)
            .map(|f| f.decl_line)
            .unwrap_or_else(|| tr.line.saturating_sub(RECORD_WINDOW).max(1));
        let lo = tr.line.saturating_sub(RECORD_WINDOW).max(fn_start);
        let recorded = (lo..=tr.line).any(|n| {
            file.lines
                .get(n - 1)
                .map(|l| l.code.contains(".dwell(") || l.code.contains(".transition("))
                .unwrap_or(false)
        });
        if !recorded {
            out.push(finding(
                &table.file,
                tr.line,
                format!("unrecorded:{}::{}->{}", table.enum_name, tr.from, tr.to),
                format!(
                    "the {}::{} -> {} transition (line {}) commits a state change with \
                     no `.dwell(`/`.transition(` meter call in the {} lines above it — \
                     the change is invisible to the observability layer",
                    table.enum_name, tr.from, tr.to, tr.line, RECORD_WINDOW
                ),
            ));
        }
    }
}

/// Leg 2: each meter `Transition` variant must be fired somewhere in
/// the device models. Matched on one line, the way rustfmt lays out the
/// calls. Skipped when no ff-device `Transition` enum is in the scanned
/// tree (synthetic fixtures; the real crate would not compile).
fn check_meter_names(sources: &[SourceFile], trees: &[ItemTree], out: &mut Vec<Finding>) {
    let device = |f: &SourceFile| f.crate_name == "ff-device" && f.kind == FileKind::Lib;
    let Some((meter, transition)) = sources
        .iter()
        .zip(trees)
        .filter(|(f, _)| device(f))
        .find_map(|(f, t)| t.enum_named("Transition").map(|e| (f, e)))
    else {
        return;
    };
    for variant in &transition.variants {
        let needle = format!(".transition(Transition::{variant}");
        let fired = sources
            .iter()
            .filter(|f| device(f) && f.rel_path != meter.rel_path)
            .any(|f| {
                f.lines
                    .iter()
                    .any(|l| !l.in_test && l.code.contains(&needle))
            });
        if !fired {
            out.push(finding(
                &meter.rel_path,
                transition.decl_line,
                format!("meter-name-missing:{variant}"),
                format!(
                    "no device model fires `Transition::{variant}` — recorders and the \
                     power trace never see that transition"
                ),
            ));
        }
    }
}

/// Leg 3: the simulator must still carry meter events into the record
/// stream. Gated on `ff-sim` being part of the scanned tree so synthetic
/// fixtures without a simulator stay silent.
fn check_sim_wiring(sources: &[SourceFile], trees: &[ItemTree], out: &mut Vec<Finding>) {
    let sim_files: Vec<usize> = sources
        .iter()
        .enumerate()
        .filter(|(_, f)| f.crate_name == "ff-sim" && f.kind == FileKind::Lib)
        .map(|(i, _)| i)
        .collect();
    if sim_files.is_empty() {
        return;
    }
    let sim_root = "crates/ff-sim/src/lib.rs";

    // The Event enum and its device variants.
    let event_enum = sim_files.iter().find_map(|&fi| {
        trees[fi]
            .enum_named("Event")
            .map(|e| (sources[fi].rel_path.clone(), e))
    });
    match event_enum {
        None => out.push(finding(
            sim_root,
            1,
            "event-enum-missing".to_owned(),
            "ff-sim no longer declares a record `Event` enum — device-state \
             observability has lost its carrier type"
                .to_owned(),
        )),
        Some((rel_path, e)) => {
            for variant in ["DeviceState", "DeviceTransition"] {
                if !e.variants.iter().any(|v| v == variant) {
                    out.push(finding(
                        &rel_path,
                        e.decl_line,
                        format!("event-variant-missing:{variant}"),
                        format!(
                            "the record `Event` enum has no `{variant}` variant — \
                             metered device activity can no longer reach the trace"
                        ),
                    ));
                }
            }
        }
    }

    // The drain: someone must pull StateChange batches off the meters…
    let drains = sim_files.iter().any(|&fi| {
        sources[fi]
            .lines
            .iter()
            .any(|l| !l.in_test && l.code.contains("take_state_changes"))
    });
    if !drains {
        out.push(finding(
            sim_root,
            1,
            "undrained-state-log".to_owned(),
            "no ff-sim code calls `take_state_changes` — device meters accumulate \
             state changes that are never drained into the event stream"
                .to_owned(),
        ));
    }

    // …and re-emit them as DeviceTransition events.
    let emits = sim_files.iter().any(|&fi| {
        sources[fi]
            .lines
            .iter()
            .any(|l| !l.in_test && l.code.contains("DeviceTransition {"))
    });
    if !emits {
        out.push(finding(
            sim_root,
            1,
            "unemitted:DeviceTransition".to_owned(),
            "no ff-sim code constructs `DeviceTransition` events — drained meter \
             transitions never reach the recorders"
                .to_owned(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items;
    use crate::scan::preprocess;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile {
            rel_path: path.to_owned(),
            crate_name: path.split('/').nth(1).unwrap_or("x").to_owned(),
            kind: FileKind::Lib,
            lines: preprocess(src),
        }
    }

    fn run(files: Vec<SourceFile>) -> Vec<Finding> {
        let trees = items::build(&files);
        let (tables, _) = crate::fsm::analyze(&files, &trees);
        analyze(&files, &trees, &tables)
    }

    fn tokens(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.token.as_str()).collect()
    }

    const RECORDED: &str = "\
pub enum GateState {
    Open,
    Shut,
}
pub struct Gate {
    state: GateState,
}
impl Gate {
    pub fn new() -> Self {
        Gate {
            state: GateState::Open,
        }
    }
    fn advance(&mut self) {
        match self.state {
            GateState::Open => {
                self.meter.transition(Transition::Shut, self.params.shut_energy);
                self.state = GateState::Shut;
            }
            GateState::Shut => {
                self.meter.dwell(PowerState::Shut, self.params.shut_power, d);
                self.state = GateState::Open;
            }
        }
    }
}
";

    #[test]
    fn metered_transitions_are_clean() {
        let f = run(vec![file("crates/ff-device/src/gate.rs", RECORDED)]);
        assert!(
            !tokens(&f).iter().any(|t| t.starts_with("unrecorded:")),
            "{f:?}"
        );
    }

    #[test]
    fn unmetered_transition_is_flagged() {
        let src = RECORDED.replace(
            "                self.meter.transition(Transition::Shut, self.params.shut_energy);\n",
            "",
        );
        let f = run(vec![file("crates/ff-device/src/gate.rs", &src)]);
        assert!(
            tokens(&f).contains(&"unrecorded:GateState::Open->Shut"),
            "{f:?}"
        );
    }

    #[test]
    fn meter_call_outside_the_fn_does_not_count() {
        // A meter call in the *previous* fn, within 6 raw lines of the
        // assignment, must not satisfy the window.
        let src = "\
pub enum GateState {
    Open,
    Shut,
}
pub struct Gate {
    state: GateState,
}
impl Gate {
    fn noisy(&mut self) {
        self.meter.transition(Transition::Shut, self.params.shut_energy);
    }
    fn advance(&mut self) {
        if self.state == GateState::Open {
            self.state = GateState::Shut;
        }
    }
}
";
        let f = run(vec![file("crates/ff-device/src/gate.rs", src)]);
        assert!(
            tokens(&f).contains(&"unrecorded:GateState::Open->Shut"),
            "{f:?}"
        );
    }

    #[test]
    fn every_meter_transition_must_be_fired_by_a_model() {
        // The enum in the meter is the list of names; a model that only
        // dwells leaves a variant unfired, as does a call in test code.
        let meter = "\
pub enum Transition {
    SpinDown,
    SpinUp,
}
";
        let disk = "\
impl DiskModel {
    fn advance(&mut self) {
        self.meter.dwell(PowerState::Idle, p, d);
        self.meter.transition(Transition::SpinDown, e);
    }
}
#[cfg(test)]
mod tests {
    fn wake(m: &mut StateMeter) {
        m.transition(Transition::SpinUp, e);
    }
}
";
        let f = run(vec![
            file("crates/ff-device/src/meter.rs", meter),
            file("crates/ff-device/src/disk.rs", disk),
        ]);
        assert_eq!(tokens(&f), ["meter-name-missing:SpinUp"], "{f:?}");
        assert_eq!(
            (f[0].file.as_str(), f[0].line),
            ("crates/ff-device/src/meter.rs", 1)
        );
        // Without the meter enum in the tree the leg has nothing to check.
        let f = run(vec![file("crates/ff-device/src/disk.rs", disk)]);
        assert!(f.is_empty(), "{f:?}");
    }

    const SIM_OK: &str = "\
pub enum Event {
    DeviceState { at: u64 },
    DeviceTransition { at: u64 },
}
pub fn drain(disk: &mut DiskModel) -> Vec<Event> {
    let mut out = Vec::new();
    for c in disk.take_state_changes() {
        out.push(Event::DeviceTransition { at: c.at });
    }
    out
}
";

    #[test]
    fn wired_simulator_is_clean() {
        let f = run(vec![file("crates/ff-sim/src/record.rs", SIM_OK)]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn missing_event_enum_is_flagged() {
        let f = run(vec![file(
            "crates/ff-sim/src/record.rs",
            "pub fn noop() {}\n",
        )]);
        let t = tokens(&f);
        assert!(t.contains(&"event-enum-missing"), "{t:?}");
        assert!(t.contains(&"undrained-state-log"), "{t:?}");
        assert!(t.contains(&"unemitted:DeviceTransition"), "{t:?}");
    }

    #[test]
    fn dropped_variant_is_flagged() {
        let src = SIM_OK.replace("    DeviceState { at: u64 },\n", "");
        let f = run(vec![file("crates/ff-sim/src/record.rs", &src)]);
        assert!(
            tokens(&f).contains(&"event-variant-missing:DeviceState"),
            "{f:?}"
        );
    }

    #[test]
    fn non_sim_trees_skip_the_wiring_checks() {
        let f = run(vec![file("crates/ff-device/src/gate.rs", RECORDED)]);
        assert!(
            !tokens(&f)
                .iter()
                .any(|t| t.starts_with("event-") || *t == "undrained-state-log"),
            "{f:?}"
        );
    }
}
