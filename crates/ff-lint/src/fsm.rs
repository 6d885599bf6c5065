//! FSM extraction and model checking for the device power models.
//!
//! The paper's results rest on two small state machines: the DK23DA
//! disk (Idle → SpinningDown → Standby → SpinningUp, §3 Table 1) and
//! the Aironet 350 WNIC (Cam → ToPsm → Psm → ToCam, Table 2). This
//! module recovers their transition tables from the `match self.state`
//! arms and `self.state = …` assignments in `ff-device`, then model-
//! checks the result:
//!
//! * **exhaustiveness** — every `match self.state` covers every enum
//!   variant (or has a `_` arm);
//! * **reachability** — every state is reachable from the constructor
//!   entry states over the extracted transitions;
//! * **liveness** — every state has an outgoing transition (no
//!   accidental deadlock states);
//! * **required paths** — the disk's spin-down path
//!   (`Idle → SpinningDown`) and wake path (`Standby → SpinningUp`),
//!   and the WNIC's CAM→PSM timeout path (`Cam → ToPsm`) and wake path
//!   (`Psm → ToCam`) must exist;
//! * **constant consistency** — the timeout arms must reference the
//!   same pinned parameters the model-invariants family audits
//!   (`timeout`/`spindown_energy`, `psm_timeout`/`to_psm_energy`).
//!
//! The two expected machines are *required*: if `disk.rs`/`wnic.rs`
//! move or their `match self.state` disappears, that is itself a
//! finding (`fsm-missing`), mirroring the model-invariants family —
//! the checker must not silently pass when the code it audits is gone.
//!
//! Extracted tables are also surfaced verbatim in the `--json` report
//! so downstream tooling (and the tier-1 gate) can assert on them.

use crate::items::ItemTree;
use crate::rules::{Finding, Rule};
use crate::scan::{FileKind, SourceFile};
use std::collections::BTreeSet;

/// One extracted transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// Source state variant, or `"*"` when the assignment's guard
    /// context could not be recovered (treated as from-any).
    pub from: String,
    /// Target state variant.
    pub to: String,
    /// 1-based line of the `self.state = …` assignment.
    pub line: usize,
}

/// One state machine recovered from a file.
#[derive(Debug, Clone)]
pub struct FsmTable {
    /// Workspace-relative file.
    pub file: String,
    /// The state enum's name (`DiskState`, `WnicState`).
    pub enum_name: String,
    /// Variants in declaration order.
    pub states: Vec<String>,
    /// Constructor entry states (`state: Enum::V` struct-literal inits).
    pub initial: Vec<String>,
    /// Extracted transitions, line order.
    pub transitions: Vec<Transition>,
}

impl FsmTable {
    /// Is there a transition `from → to` (exact, no wildcard)?
    pub fn has_transition(&self, from: &str, to: &str) -> bool {
        self.transitions
            .iter()
            .any(|t| t.from == from && t.to == to)
    }
}

/// The two machines the workspace must contain, with their required
/// paths and the pinned parameters their timeout arms must reference.
struct Expected {
    file: &'static str,
    enum_name: &'static str,
    /// (from, to, what the path is)
    required: &'static [(&'static str, &'static str, &'static str)],
    /// (from-state of the timeout arm, tokens the arm body must mention)
    timeout_arm: (&'static str, &'static [&'static str]),
}

const EXPECTED: [Expected; 2] = [
    Expected {
        file: "crates/ff-device/src/disk.rs",
        enum_name: "DiskState",
        required: &[
            ("Idle", "SpinningDown", "spin-down path (20 s timeout)"),
            ("SpinningDown", "Standby", "spin-down completion"),
            ("Standby", "SpinningUp", "wake path"),
            ("SpinningUp", "Idle", "spin-up completion"),
        ],
        timeout_arm: ("Idle", &["timeout", "spindown_energy"]),
    },
    Expected {
        file: "crates/ff-device/src/wnic.rs",
        enum_name: "WnicState",
        required: &[
            ("Cam", "ToPsm", "CAM->PSM timeout path (800 ms)"),
            ("ToPsm", "Psm", "switch completion"),
            ("Psm", "ToCam", "wake path"),
            ("ToCam", "Cam", "switch completion"),
        ],
        timeout_arm: ("Cam", &["psm_timeout", "to_psm_energy"]),
    },
];

/// Extract every state machine and model-check the required ones.
pub fn analyze(sources: &[SourceFile], trees: &[ItemTree]) -> (Vec<FsmTable>, Vec<Finding>) {
    let mut tables = Vec::new();
    let mut findings = Vec::new();

    for (fi, file) in sources.iter().enumerate() {
        if file.kind != FileKind::Lib {
            continue;
        }
        if let Some(table) = extract(file, &trees[fi], &mut findings) {
            check_generic(&table, &mut findings);
            tables.push(table);
        }
    }

    for exp in &EXPECTED {
        let Some(table) = tables
            .iter()
            .find(|t| t.file == exp.file && t.enum_name == exp.enum_name)
        else {
            findings.push(finding(
                exp.file,
                1,
                format!("fsm-missing:{}", exp.enum_name),
                format!(
                    "expected the {} machine (a `match self.state` over `{}`) in this file",
                    exp.enum_name, exp.file
                ),
            ));
            continue;
        };
        for (from, to, what) in exp.required {
            if !table.has_transition(from, to) {
                findings.push(finding(
                    exp.file,
                    1,
                    format!("missing-transition:{from}->{to}"),
                    format!(
                        "{}::{from} -> {}::{to} ({what}) was not found in the \
                         extracted transition table",
                        exp.enum_name, exp.enum_name
                    ),
                ));
            }
        }
        check_timeout_constants(sources, trees, table, exp, &mut findings);
    }

    tables.sort_by(|a, b| (&a.file, &a.enum_name).cmp(&(&b.file, &b.enum_name)));
    (tables, findings)
}

/// The consistency leg: the fn holding the timeout transition (the
/// `advance_to` loop) must reference the same pinned parameters the
/// model-invariants family audits, so the FSM cannot silently decouple
/// from the paper constants.
fn check_timeout_constants(
    sources: &[SourceFile],
    trees: &[ItemTree],
    table: &FsmTable,
    exp: &Expected,
    findings: &mut Vec<Finding>,
) {
    let (arm_state, tokens) = exp.timeout_arm;
    let Some(fi) = sources.iter().position(|f| f.rel_path == exp.file) else {
        return;
    };
    let file = &sources[fi];
    let Some(tr) = table
        .transitions
        .iter()
        .find(|t| t.from == arm_state && t.to != arm_state)
    else {
        return; // missing-transition already reported
    };
    let (lo, hi) = match trees[fi].fn_at(tr.line) {
        Some(f) => (f.decl_line, f.body_end.min(file.lines.len())),
        None => (tr.line.saturating_sub(15).max(1), tr.line),
    };
    for token in tokens {
        let seen = file.lines[lo - 1..hi]
            .iter()
            .any(|l| l.code.contains(token));
        if !seen {
            findings.push(finding(
                exp.file,
                tr.line,
                format!("timeout-constant:{token}"),
                format!(
                    "the {}::{arm_state} timeout transition (line {}) sits in a fn that \
                     never references the pinned `{token}` parameter",
                    exp.enum_name, tr.line
                ),
            ));
        }
    }
}

/// Checks that apply to any extracted machine.
fn check_generic(table: &FsmTable, out: &mut Vec<Finding>) {
    let states: BTreeSet<&str> = table.states.iter().map(String::as_str).collect();

    // Reachability from the entry states over the transitions; a `*`
    // source fires from any already-reached state.
    let mut reached: BTreeSet<&str> = table
        .initial
        .iter()
        .map(String::as_str)
        .filter(|s| states.contains(s))
        .collect();
    loop {
        let mut grew = false;
        for t in &table.transitions {
            let from_ok = t.from == "*" || reached.contains(t.from.as_str());
            if from_ok && states.contains(t.to.as_str()) && reached.insert(&t.to) {
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    for s in &table.states {
        if !reached.contains(s.as_str()) {
            out.push(finding(
                &table.file,
                1,
                format!("unreachable:{}::{s}", table.enum_name),
                format!(
                    "state {s} is not reachable from the constructor states \
                     {:?} over the extracted transitions",
                    table.initial
                ),
            ));
        }
        let has_exit = table.transitions.iter().any(|t| t.from == *s && t.to != *s);
        if !has_exit {
            out.push(finding(
                &table.file,
                1,
                format!("deadlock:{}::{s}", table.enum_name),
                format!("state {s} has no outgoing transition — the machine can wedge there"),
            ));
        }
    }
}

fn finding(file: &str, line: usize, token: String, message: String) -> Finding {
    Finding {
        rule: Rule::Fsm,
        file: file.to_owned(),
        line,
        token,
        message,
    }
}

/// Extract the machine of one file: a `*State` enum plus the
/// `match self.state` arms and `self.state = …` assignments.
fn extract(file: &SourceFile, tree: &ItemTree, out: &mut Vec<Finding>) -> Option<FsmTable> {
    // Which enum? The one the match arms and assignments name.
    let enum_name = file
        .lines
        .iter()
        .filter(|l| !l.in_test)
        .find_map(|l| assignment_target(&l.code).map(|(e, _)| e.to_owned()))?;
    let states = match tree.enum_named(&enum_name) {
        Some(e) if !e.variants.is_empty() => e.variants.clone(),
        _ => {
            // Assignments to an enum declared elsewhere — skip the file
            // rather than checking against an unknown variant set.
            return None;
        }
    };

    let mut table = FsmTable {
        file: file.rel_path.clone(),
        enum_name: enum_name.clone(),
        states,
        initial: Vec::new(),
        transitions: Vec::new(),
    };

    // Entry states: `state: Enum::V` struct-literal fields.
    for line in file.lines.iter().filter(|l| !l.in_test) {
        if let Some(v) = struct_init_state(&line.code, &enum_name) {
            if !table.initial.contains(&v) {
                table.initial.push(v);
            }
        }
    }

    // Match arms and their bodies.
    let matches = find_state_matches(file);
    for m in &matches {
        check_exhaustive(file, &table, m, out);
        for arm in &m.arms {
            for line_no in arm.body_start..=arm.body_end {
                let Some(line) = file.lines.get(line_no - 1) else {
                    continue;
                };
                if let Some((_, to)) = assignment_target(&line.code) {
                    table.transitions.push(Transition {
                        from: arm.pattern.clone(),
                        to: to.to_owned(),
                        line: line_no,
                    });
                }
            }
        }
    }

    // Assignments outside any match arm: recover the guard context by
    // scanning backwards within the enclosing fn for the nearest state
    // comparison / binding.
    for (idx, line) in file.lines.iter().enumerate() {
        let line_no = idx + 1;
        if line.in_test || in_any_arm(&matches, line_no) {
            continue;
        }
        let Some((_, to)) = assignment_target(&line.code) else {
            continue;
        };
        let from = guard_context(file, tree, &table, line_no);
        table.transitions.push(Transition {
            from,
            to: to.to_owned(),
            line: line_no,
        });
    }

    table
        .transitions
        .sort_by(|a, b| (a.line, &a.from, &a.to).cmp(&(b.line, &b.from, &b.to)));
    table.transitions.dedup();
    Some(table)
}

/// One `match self.state` block.
struct StateMatch {
    /// 1-based line of the `match` keyword.
    line: usize,
    /// Last line of the match body.
    end: usize,
    arms: Vec<Arm>,
}

/// One arm: `Enum::Variant(..) => …` (or `_ => …`).
struct Arm {
    /// Variant name, or `"_"`.
    pattern: String,
    body_start: usize,
    body_end: usize,
}

fn in_any_arm(matches: &[StateMatch], line_no: usize) -> bool {
    matches
        .iter()
        .any(|m| m.line <= line_no && line_no <= m.end)
}

/// Locate every `match self.state {` block and parse its arms by brace
/// depth: arms sit one level inside the match body.
fn find_state_matches(file: &SourceFile) -> Vec<StateMatch> {
    let mut out = Vec::new();
    let mut depth: i64 = 0;
    // (match record, depth of the match body)
    let mut active: Option<(StateMatch, i64)> = None;

    for (idx, line) in file.lines.iter().enumerate() {
        let line_no = idx + 1;
        let code = &line.code;
        let starts = !line.in_test && code.contains("match self.state");

        if active.is_none() && starts {
            active = Some((
                StateMatch {
                    line: line_no,
                    end: line_no,
                    arms: Vec::new(),
                },
                depth + 1,
            ));
        }

        // Arm headers live exactly at the match-body depth.
        if let Some((m, body_depth)) = active.as_mut() {
            if depth == *body_depth && line_no > m.line {
                if let Some(pat) = arm_pattern(code) {
                    if let Some(last) = m.arms.last_mut() {
                        if last.body_end == 0 {
                            last.body_end = line_no - 1;
                        }
                    }
                    m.arms.push(Arm {
                        pattern: pat,
                        body_start: line_no,
                        body_end: 0,
                    });
                }
            }
        }

        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if let Some((m, body_depth)) = active.as_mut() {
                        if depth < *body_depth {
                            m.end = line_no;
                            if let Some(last) = m.arms.last_mut() {
                                if last.body_end == 0 {
                                    last.body_end = line_no;
                                }
                            }
                            if let Some((done, _)) = active.take() {
                                out.push(done);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// Parse `Enum::Variant(bind) => …` / `_ =>` at the start of a line.
fn arm_pattern(code: &str) -> Option<String> {
    let t = code.trim_start();
    let arrow = t.find("=>")?;
    let pat = t[..arrow].trim();
    if pat == "_" {
        return Some("_".to_owned());
    }
    // Last path segment before any binding parens.
    let head = pat.split('(').next().unwrap_or(pat).trim();
    let variant = head.rsplit("::").next().unwrap_or(head).trim();
    if variant.is_empty()
        || !variant
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_')
        || !variant.starts_with(|c: char| c.is_ascii_uppercase())
    {
        return None;
    }
    Some(variant.to_owned())
}

/// `self.state = Enum::Variant(…)` on one line → (enum, variant).
fn assignment_target(code: &str) -> Option<(&str, &str)> {
    let pos = code.find("self.state = ")?;
    let rhs = code[pos + "self.state = ".len()..].trim_start();
    let (enum_name, rest) = rhs.split_once("::")?;
    let enum_name = enum_name.trim();
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    let variant = &rest[..end];
    if enum_name.is_empty() || variant.is_empty() {
        return None;
    }
    Some((enum_name, variant))
}

/// `state: Enum::Variant` struct-literal field → variant.
fn struct_init_state(code: &str, enum_name: &str) -> Option<String> {
    let t = code.trim();
    let rest = t.strip_prefix("state: ")?;
    let rest = rest.strip_prefix(enum_name)?.strip_prefix("::")?;
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    Some(rest[..end].to_owned())
}

/// Exhaustiveness of one `match self.state`: every variant or `_`.
fn check_exhaustive(file: &SourceFile, table: &FsmTable, m: &StateMatch, out: &mut Vec<Finding>) {
    if m.arms.iter().any(|a| a.pattern == "_") {
        return;
    }
    let covered: BTreeSet<&str> = m.arms.iter().map(|a| a.pattern.as_str()).collect();
    let missing: Vec<&str> = table
        .states
        .iter()
        .map(String::as_str)
        .filter(|s| !covered.contains(*s))
        .collect();
    if !missing.is_empty() {
        out.push(finding(
            &file.rel_path,
            m.line,
            format!("nonexhaustive:{}", table.enum_name),
            format!(
                "`match self.state` does not cover {} variant(s): {}",
                missing.len(),
                missing.join(", ")
            ),
        ));
    }
}

/// From-state of an assignment outside a match arm: the nearest
/// preceding line in the same fn that names a *different* variant in a
/// comparison/guard position, else `*`.
fn guard_context(file: &SourceFile, tree: &ItemTree, table: &FsmTable, line_no: usize) -> String {
    let Some(f) = tree.fn_at(line_no) else {
        return "*".to_owned();
    };
    let needle = format!("{}::", table.enum_name);
    for idx in (f.decl_line..line_no).rev() {
        let Some(line) = file.lines.get(idx - 1) else {
            continue;
        };
        let code = &line.code;
        if assignment_target(code).is_some() || !code.contains("self.state") {
            continue;
        }
        let mut search = 0;
        while let Some(rel) = code[search..].find(&needle) {
            let start = search + rel + needle.len();
            let rest = &code[start..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            let variant = &rest[..end];
            search = start;
            if !variant.is_empty() && table.states.iter().any(|s| s == variant) {
                return variant.to_owned();
            }
        }
    }
    "*".to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items;
    use crate::scan::preprocess;

    fn device_file(path: &str, src: &str) -> SourceFile {
        SourceFile {
            rel_path: path.to_owned(),
            crate_name: "ff-device".to_owned(),
            kind: FileKind::Lib,
            lines: preprocess(src),
        }
    }

    const GOOD_WNIC: &str = "\
pub enum WnicState {
    Cam,
    ToPsm(u64),
    Psm,
    ToCam(u64),
}
pub struct WnicModel {
    state: WnicState,
}
impl WnicModel {
    pub fn new() -> Self {
        WnicModel {
            state: WnicState::Psm,
        }
    }
    fn advance_to(&mut self, now: u64) {
        match self.state {
            WnicState::Cam => {
                let deadline = self.idle_since + self.params.psm_timeout;
                self.meter.transition(self.params.to_psm_energy);
                self.state = WnicState::ToPsm(deadline);
            }
            WnicState::ToPsm(until) => {
                self.state = WnicState::Psm;
            }
            WnicState::Psm => {
                self.clock = now;
            }
            WnicState::ToCam(until) => {
                self.state = WnicState::Cam;
            }
        }
    }
    fn service(&mut self) {
        if self.state == WnicState::Psm {
            self.state = WnicState::ToCam(self.clock);
        }
    }
}
";

    #[test]
    fn extracts_the_full_wnic_machine() {
        let file = device_file("crates/ff-device/src/wnic.rs", GOOD_WNIC);
        let trees = items::build(std::slice::from_ref(&file));
        let mut findings = Vec::new();
        let table = extract(&file, &trees[0], &mut findings).expect("table");
        assert_eq!(table.enum_name, "WnicState");
        assert_eq!(table.states, ["Cam", "ToPsm", "Psm", "ToCam"]);
        assert_eq!(table.initial, ["Psm"]);
        assert!(table.has_transition("Cam", "ToPsm"), "{table:?}");
        assert!(table.has_transition("ToPsm", "Psm"));
        assert!(table.has_transition("ToCam", "Cam"));
        assert!(
            table.has_transition("Psm", "ToCam"),
            "guard context: {table:?}"
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn good_machine_passes_generic_checks() {
        let file = device_file("crates/ff-device/src/wnic.rs", GOOD_WNIC);
        let trees = items::build(std::slice::from_ref(&file));
        let mut findings = Vec::new();
        let table = extract(&file, &trees[0], &mut findings).expect("table");
        check_generic(&table, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn removed_arm_is_nonexhaustive_and_breaks_the_cycle() {
        // Drop the ToCam arm: the match is non-exhaustive AND Cam
        // becomes unreachable (its only inbound edge was ToCam -> Cam).
        let src = GOOD_WNIC.replace(
            "            WnicState::ToCam(until) => {\n                self.state = WnicState::Cam;\n            }\n",
            "",
        );
        let file = device_file("crates/ff-device/src/wnic.rs", &src);
        let trees = items::build(std::slice::from_ref(&file));
        let mut findings = Vec::new();
        let table = extract(&file, &trees[0], &mut findings).expect("table");
        check_generic(&table, &mut findings);
        let tokens: Vec<&str> = findings.iter().map(|f| f.token.as_str()).collect();
        assert!(tokens.contains(&"nonexhaustive:WnicState"), "{tokens:?}");
        assert!(tokens.contains(&"unreachable:WnicState::Cam"), "{tokens:?}");
        assert!(
            !table.has_transition("ToCam", "Cam"),
            "the removed transition must be gone from the table"
        );
    }

    #[test]
    fn missing_machine_is_a_finding() {
        let file = device_file("crates/ff-device/src/other.rs", "pub fn x() {}\n");
        let trees = items::build(std::slice::from_ref(&file));
        let (tables, findings) = analyze(std::slice::from_ref(&file), &trees);
        assert!(tables.is_empty());
        let tokens: Vec<&str> = findings.iter().map(|f| f.token.as_str()).collect();
        assert!(tokens.contains(&"fsm-missing:DiskState"), "{tokens:?}");
        assert!(tokens.contains(&"fsm-missing:WnicState"), "{tokens:?}");
    }

    #[test]
    fn wildcard_arm_is_exhaustive() {
        let src = GOOD_WNIC.replace(
            "            WnicState::Psm => {\n                self.clock = now;\n            }\n            WnicState::ToCam(until) => {\n                self.state = WnicState::Cam;\n            }\n",
            "            _ => {\n                self.state = WnicState::Cam;\n            }\n",
        );
        let file = device_file("crates/ff-device/src/wnic.rs", &src);
        let trees = items::build(std::slice::from_ref(&file));
        let mut findings = Vec::new();
        let table = extract(&file, &trees[0], &mut findings).expect("table");
        check_exhaustive(&file, &table, &find_state_matches(&file)[0], &mut findings);
        assert!(
            !findings
                .iter()
                .any(|f| f.token.starts_with("nonexhaustive")),
            "{findings:?}"
        );
    }
}
