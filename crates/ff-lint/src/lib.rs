//! # ff-lint — workspace static analysis for the FlexFetch simulator
//!
//! A std-only, dependency-free (no `syn`/`quote`; the build environment
//! is offline) lint pass enforcing the properties the reproduction's
//! credibility rests on:
//!
//! 1. **determinism** — simulation crates must not read wall-clock time,
//!    ambient RNGs, or iterate unordered hash maps; simulation state
//!    comes only from `ff_base::rng` (seeded) and `ff_base::time`
//!    (simulated). A run must be bit-identical given a seed.
//! 2. **panic-safety** — library code propagates errors instead of
//!    aborting (`unwrap`/`expect`/`panic!`-family).
//! 3. **unit-safety** — device/sim hot paths keep quantities in ff-base
//!    newtypes (`Watts`, `Joules`, `Dur`, `Bytes`) rather than raw `as`
//!    casts and `f64` seconds.
//! 4. **float-eq** — no `==`/`!=` against float literals.
//! 5. **model-invariants** — the hard-coded Hitachi DK23DA and Cisco
//!    Aironet 350 tables must satisfy the paper's §3 constraints
//!    (non-negative powers, break-even below the 20 s spin-down
//!    timeout, 800 ms CAM→PSM below the disk timeout, 802.11b rates).
//! 6. **hygiene** — inventory of open-work markers and `#[allow]`
//!    suppressions.
//!
//! On top of the per-line rules, a semantic layer ([`items`] →
//! [`callgraph`], [`fsm`]) recovers item boundaries from the
//! preprocessed lines and runs two cross-file analyses:
//!
//! 7. **panic-reachability** — which public APIs of the simulation
//!    crates can transitively reach a panic site (`unwrap`, `expect`,
//!    `panic!`-family, slice indexing) through the workspace call graph.
//! 8. **fsm** — the DK23DA and Aironet 350 `match self.state` machines,
//!    extracted into transition tables and model-checked for
//!    exhaustiveness, reachability, deadlock-freedom, and the presence
//!    of the spin-down / CAM→PSM timeout paths tied to the pinned
//!    constants.
//!
//! A second semantic wave ([`consts`], [`coverage`]) audits the
//! constants and the observability layer:
//!
//! 9. **const-provenance** — every Table 1/Table 2 physical constant
//!    has one home, `ff-device::consts`; a matching numeric literal
//!    anywhere else in the simulation crates is a shadowed constant,
//!    and the registry itself is cross-checked against the pinned
//!    values.
//! 10. **event-coverage** — every reachable device-state transition must
//!     be metered (`dwell`/`transition`) where it commits, the pinned
//!     meter event names must exist, and `ff-sim` must still drain and
//!     re-emit them as `DeviceTransition` record events.
//!
//! A third wave ([`product`], [`taint`], [`conformance`]) moves from
//! checking each machine and each line to proving the *composed*
//! system model:
//!
//! 11. **fsm-product** — the explicit cross-product automaton of every
//!     extracted machine (disk × WNIC × server path), exhaustively
//!     explored: no simultaneous deadlock, no emergent-unreachable
//!     tuple, every degraded server-path state recovers to healthy,
//!     backoff ladders are clamped and bounded, and powered-off states
//!     are only left through their power-up edge.
//! 12. **nondet-taint** — interprocedural nondeterminism taint over a
//!     widened call graph: wall-clock reads, env access, and
//!     unsanitised hash iteration may not flow — through any chain of
//!     helpers — into `SimReport`, recorder output, or bench JSON.
//! 13. **trace-conformance** — the committed observe/chaos JSONL
//!     traces replayed against the product model: every runtime
//!     transition must be a static edge, and never-exercised static
//!     edges surface as machine-readable coverage debt.
//!
//! A fourth wave ([`interval`], [`absint`]) is a numeric abstract
//! interpretation — a signed-interval × sign × dimension product
//! domain evaluated through `let` bindings, accumulator widening, and
//! a two-round function-summary fixpoint, seeded with the Table 1/2
//! constants:
//!
//! 14. **unit-flow** — the `_us`/`_ms`/`_s`, `_j` and `_bytes` suffix
//!     dimensions propagated through let-bindings and, via the
//!     summaries, across function boundaries: mixed-dimension
//!     arithmetic and comparisons, mismatched call arguments, and
//!     `let`s or returns contradicting their name's suffix are
//!     findings, whether the dimension is spelled at the site or came
//!     from a fn two crates away.
//! 15. **arith-safety** — division-by-zero freedom, `as` casts the
//!     inferred interval cannot prove lossless, and unchecked `+`/`*`
//!     on `_bytes`/`_us` counters where `saturating_*` or the
//!     `ff_base::checked` helpers exist.
//! 16. **energy-bounds** — every `_j` accumulation provably ≥ 0 and
//!     battery `*drain*` functions monotone.
//! 17. **timeout-order** — T_breakeven recomputed from the constant
//!     registry with interval arithmetic, statically ordered below the
//!     disk idle timeout and above the WNIC PSM knee, with the
//!     outage-retry ladder clamped and its clamp ceiling above the
//!     timeout.
//!
//! Findings ratchet against a committed [`baseline`]: the run fails only
//! on findings the baseline does not accept, so existing debt is
//! tracked without blocking the build, while regressions are. The
//! linter's own regression net is [`mutgen`]: deterministic seed-derived
//! mutants of the workspace sources, re-analysed in memory, with a
//! per-family kill-score matrix ratcheted in CI.

pub mod absint;
pub mod baseline;
pub mod callgraph;
pub mod conformance;
pub mod consts;
pub mod coverage;
pub mod fsm;
pub mod interval;
pub mod items;
pub mod mutgen;
pub mod product;
pub mod rules;
pub mod scan;
pub mod taint;

pub use baseline::{Baseline, Delta};
pub use rules::{Finding, Rule};
pub use scan::{FileKind, SourceFile};

use ff_base::json::Value;
use ff_base::{Error, Result};
use std::fmt::Write as _;
use std::path::Path;

/// The result of one lint run.
#[derive(Debug)]
pub struct Report {
    /// Every finding, baselined or not, in (rule, file, line) order.
    pub findings: Vec<Finding>,
    /// Comparison against the baseline used for the run.
    pub delta: Delta,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// State machines extracted by the [`fsm`] analysis, whether or not
    /// they produced findings.
    pub fsm_tables: Vec<fsm::FsmTable>,
    /// The explored cross-product automaton.
    pub product: product::ProductGraph,
    /// Trace-replay coverage from the [`conformance`] pass.
    pub trace_coverage: conformance::Coverage,
}

impl Report {
    /// Exit status the CLI should report: clean means nothing beyond
    /// the baseline.
    pub fn is_clean(&self) -> bool {
        self.delta.is_clean()
    }

    /// Findings belonging to one rule family.
    pub fn findings_for(&self, rule: Rule) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.rule == rule)
    }

    /// Render the human-readable table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        for rule in Rule::all() {
            let members: Vec<&Finding> = self.findings_for(rule).collect();
            if members.is_empty() {
                continue;
            }
            let _ = writeln!(out, "{} ({} finding(s))", rule, members.len());
            let width = members
                .iter()
                .map(|f| f.file.len() + 1 + digits(f.line))
                .max()
                .unwrap_or(0);
            for f in &members {
                let loc = format!("{}:{}", f.file, f.line);
                let _ = writeln!(out, "  {loc:<width$}  {:<14} {}", f.token, f.message);
            }
        }
        let new = self.delta.new_count();
        let _ = writeln!(
            out,
            "{} file(s) scanned, {} finding(s), {} beyond baseline{}",
            self.files_scanned,
            self.findings.len(),
            new,
            if new == 0 { " — OK" } else { "" },
        );
        if !self.delta.new.is_empty() {
            let _ = writeln!(out, "\nnew findings (not in baseline):");
            for (key, over, members) in &self.delta.new {
                let _ = writeln!(
                    out,
                    "  {} {} `{}`: {} over baseline; occurrences:",
                    key.0, key.1, key.2, over
                );
                for f in members {
                    let _ = writeln!(out, "    {}:{} {}", f.file, f.line, f.message);
                }
            }
        }
        if !self.delta.improved.is_empty() {
            let _ = writeln!(
                out,
                "\n{} baseline entr(ies) improved — consider --update-baseline",
                self.delta.improved.len()
            );
        }
        out
    }

    /// Render the machine-readable JSON document.
    pub fn to_json(&self) -> String {
        let finding_node = |f: &Finding| {
            Value::Object(vec![
                ("rule".into(), Value::Str(f.rule.as_str().into())),
                ("file".into(), Value::Str(f.file.clone())),
                ("line".into(), Value::UInt(f.line as u64)),
                ("token".into(), Value::Str(f.token.clone())),
                ("message".into(), Value::Str(f.message.clone())),
            ])
        };
        let per_rule: Vec<Value> = Rule::all()
            .into_iter()
            .map(|r| {
                Value::Object(vec![
                    ("rule".into(), Value::Str(r.as_str().into())),
                    (
                        "count".into(),
                        Value::UInt(self.findings_for(r).count() as u64),
                    ),
                ])
            })
            .collect();
        let new: Vec<Value> = self
            .delta
            .new
            .iter()
            .flat_map(|(_, _, members)| members.iter().map(finding_node))
            .collect();
        let fsm_node = |t: &fsm::FsmTable| {
            Value::Object(vec![
                ("file".into(), Value::Str(t.file.clone())),
                ("enum".into(), Value::Str(t.enum_name.clone())),
                (
                    "states".into(),
                    Value::Array(t.states.iter().map(|s| Value::Str(s.clone())).collect()),
                ),
                (
                    "initial".into(),
                    Value::Array(t.initial.iter().map(|s| Value::Str(s.clone())).collect()),
                ),
                (
                    "transitions".into(),
                    Value::Array(
                        t.transitions
                            .iter()
                            .map(|tr| {
                                Value::Object(vec![
                                    ("from".into(), Value::Str(tr.from.clone())),
                                    ("to".into(), Value::Str(tr.to.clone())),
                                    ("line".into(), Value::UInt(tr.line as u64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        };
        let runtime_only = self
            .findings
            .iter()
            .filter(|f| f.rule == Rule::TraceConformance && f.token.starts_with("runtime-only:"))
            .count() as u64;
        let doc = Value::Object(vec![
            (
                "summary".into(),
                Value::Object(vec![
                    (
                        "files_scanned".into(),
                        Value::UInt(self.files_scanned as u64),
                    ),
                    ("total".into(), Value::UInt(self.findings.len() as u64)),
                    (
                        "beyond_baseline".into(),
                        Value::UInt(self.delta.new_count()),
                    ),
                    ("clean".into(), Value::Bool(self.is_clean())),
                    ("by_rule".into(), Value::Array(per_rule)),
                ]),
            ),
            (
                "fsm".into(),
                Value::Array(self.fsm_tables.iter().map(fsm_node).collect()),
            ),
            ("product".into(), self.product.summary_json_value()),
            (
                "conformance".into(),
                self.trace_coverage.to_json_value(runtime_only),
            ),
            ("new".into(), Value::Array(new)),
            (
                "findings".into(),
                Value::Array(self.findings.iter().map(finding_node).collect()),
            ),
        ]);
        let mut text = doc.to_pretty();
        text.push('\n');
        text
    }
}

fn digits(mut n: usize) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

/// Everything one scan of the workspace produces, before any baseline
/// comparison.
#[derive(Debug)]
pub struct Analysis {
    /// Per-line rule findings plus semantic-layer findings, sorted in
    /// (rule, file, line, token) order.
    pub findings: Vec<Finding>,
    /// State machines the [`fsm`] analysis extracted.
    pub fsm_tables: Vec<fsm::FsmTable>,
    /// The explored cross-product automaton (for `--export-product`).
    pub product: product::ProductGraph,
    /// Trace-replay coverage from the [`conformance`] pass.
    pub trace_coverage: conformance::Coverage,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Scan the workspace under `root`, run the per-line rules and the
/// semantic layer, and produce all findings.
pub fn analyze(root: &Path) -> Result<Analysis> {
    let sources = scan::collect_sources(root)
        .map_err(|e| Error::Io(format!("scanning {}: {e}", root.display())))?;
    if sources.is_empty() {
        return Err(Error::Config(format!(
            "no Rust sources found under {} — wrong --root?",
            root.display()
        )));
    }
    Ok(analyze_sources(&sources, root))
}

/// Run every analysis wave over an already-collected source set.
///
/// Split out from [`analyze`] so the mutation engine ([`mutgen`]) can
/// re-run all seventeen families against in-memory mutated sources
/// without touching the filesystem (`root` is still needed by the
/// trace-conformance pass, which replays committed JSONL traces).
pub fn analyze_sources(sources: &[SourceFile], root: &Path) -> Analysis {
    let mut findings = rules::run_all(sources);
    let trees = items::build(sources);
    let graph = callgraph::Graph::build(sources, &trees);
    findings.extend(callgraph::panic_reachability(sources, &trees, &graph));
    let (fsm_tables, fsm_findings) = fsm::analyze(sources, &trees);
    findings.extend(fsm_findings);
    findings.extend(consts::analyze(sources));
    findings.extend(coverage::analyze(sources, &trees, &fsm_tables));
    let (product, product_findings) = product::analyze(sources, &fsm_tables);
    findings.extend(product_findings);
    findings.extend(taint::analyze(sources, &trees));
    findings.extend(absint::analyze(sources, &trees));
    let (trace_coverage, conformance_findings) = conformance::analyze(root, &fsm_tables);
    findings.extend(conformance_findings);
    findings.sort_by(|a, b| {
        (a.rule, &a.file, a.line, &a.token).cmp(&(b.rule, &b.file, b.line, &b.token))
    });
    Analysis {
        findings,
        fsm_tables,
        product,
        trace_coverage,
        files_scanned: sources.len(),
    }
}

/// Scan the workspace under `root` and produce all findings.
pub fn collect_findings(root: &Path) -> Result<(Vec<Finding>, usize)> {
    let analysis = analyze(root)?;
    Ok((analysis.findings, analysis.files_scanned))
}

/// Scan and compare against a baseline in one step.
///
/// This is the library entry point behind the CLI — the doctest below
/// is the workspace's self-scan, the same check `./scripts/check.sh`
/// runs:
///
/// ```
/// use ff_lint::{default_baseline_path, default_root, Baseline};
///
/// let root = default_root();
/// let baseline = Baseline::load(&default_baseline_path(&root)).unwrap();
/// let report = ff_lint::run(&root, &baseline).unwrap();
///
/// assert!(report.files_scanned > 50, "scanned {}", report.files_scanned);
/// // All seventeen families ran; nothing beyond the accepted ratchet.
/// assert!(report.delta.new.is_empty(), "{:?}", report.delta.new);
/// ```
pub fn run(root: &Path, baseline: &Baseline) -> Result<Report> {
    let analysis = analyze(root)?;
    let delta = baseline.compare(&analysis.findings);
    Ok(Report {
        findings: analysis.findings,
        delta,
        files_scanned: analysis.files_scanned,
        fsm_tables: analysis.fsm_tables,
        product: analysis.product,
        trace_coverage: analysis.trace_coverage,
    })
}

/// The workspace root this crate was built in (ff-lint lives at
/// `crates/ff-lint`).
pub fn default_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The committed baseline path for a workspace root.
pub fn default_baseline_path(root: &Path) -> std::path::PathBuf {
    root.join("crates/ff-lint/baseline.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_scan_finds_sources_and_is_deterministic() {
        let root = default_root();
        let (a, n) = collect_findings(&root).expect("scan ok");
        let (b, _) = collect_findings(&root).expect("scan ok");
        assert!(n > 20, "expected a real workspace, scanned {n} files");
        assert_eq!(a, b, "two scans of the same tree must agree");
    }

    #[test]
    fn report_renders_both_formats() {
        let root = default_root();
        let analysis = analyze(&root).expect("scan ok");
        let baseline = Baseline::from_findings(&analysis.findings);
        let delta = baseline.compare(&analysis.findings);
        let report = Report {
            findings: analysis.findings,
            delta,
            files_scanned: analysis.files_scanned,
            fsm_tables: analysis.fsm_tables,
            product: analysis.product,
            trace_coverage: analysis.trace_coverage,
        };
        assert!(report.is_clean());
        let table = report.to_table();
        assert!(table.contains("beyond baseline"));
        let json = report.to_json();
        let doc = ff_base::json::Value::parse(&json).expect("valid json");
        assert_eq!(
            doc.get("summary").and_then(|s| s.get("clean")),
            Some(&ff_base::json::Value::Bool(true))
        );
        // The third-wave nodes are part of the document contract.
        let product = doc.get("product").expect("product node");
        assert!(product.get("reachable").is_some());
        assert!(doc.get("conformance").is_some());
    }

    #[test]
    fn self_scan_extracts_both_device_fsms() {
        let root = default_root();
        let analysis = analyze(&root).expect("scan ok");
        let enums: Vec<&str> = analysis
            .fsm_tables
            .iter()
            .map(|t| t.enum_name.as_str())
            .collect();
        assert!(enums.contains(&"DiskState"), "{enums:?}");
        assert!(enums.contains(&"WnicState"), "{enums:?}");
    }
}
