//! Tier-1 gate: the abstract-interpretation engine behind the wave-4
//! lint families.
//!
//! Two kinds of evidence:
//!
//! * **golden interval facts** — hand-checked expressions and function
//!   summaries whose inferred intervals are pinned exactly, so a domain
//!   or transfer-function change is a visible diff here, and
//! * **proptest soundness** — random arithmetic expressions evaluated
//!   both concretely (reference real-number semantics) and abstractly;
//!   the concrete value must always land inside the inferred interval.
//!   An abstraction may lose precision, never soundness.

use ff_lint::absint::{expr_interval, fn_summaries};
use ff_lint::interval::Interval;
use ff_lint::scan;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn consts(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
    pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

fn assert_point(iv: Interval, want: f64) {
    assert!(
        iv.is_point() && (iv.lo - want).abs() < 1e-9,
        "expected point {want}, got {iv}"
    );
}

// ---------------------------------------------------------------------
// Golden expression facts
// ---------------------------------------------------------------------

#[test]
fn golden_constant_arithmetic() {
    let env = consts(&[("SPINUP_J", 5.0), ("IDLE_W", 1.6), ("STANDBY_W", 0.15)]);
    assert_point(expr_interval("SPINUP_J + SPINUP_J", &env), 10.0);
    assert_point(expr_interval("IDLE_W - STANDBY_W", &env), 1.45);
    assert_point(expr_interval("SPINUP_J / IDLE_W", &env), 3.125);
    assert_point(expr_interval("SPINUP_J * 2", &env), 10.0);
    assert_point(expr_interval("-SPINUP_J", &env), -5.0);
}

#[test]
fn golden_method_transfer_functions() {
    let env = consts(&[("x", 7.0)]);
    // Known value: methods are exact.
    assert_point(expr_interval("x.max(10)", &env), 10.0);
    assert_point(expr_interval("x.min(3)", &env), 3.0);
    assert_point(expr_interval("x.clamp(0, 5)", &env), 5.0);
    // Unknown value: methods bound one side.
    let unknown = consts(&[]);
    let iv = expr_interval("y.max(0)", &unknown);
    assert!(iv.is_nonneg() && iv.hi.is_infinite(), "got {iv}");
    let iv = expr_interval("y.min(800)", &unknown);
    assert!(
        iv.lo.is_infinite() && (iv.hi - 800.0).abs() < 1e-9,
        "got {iv}"
    );
    let iv = expr_interval("y.clamp(1, 16)", &unknown);
    assert!(
        (iv.lo - 1.0).abs() < 1e-9 && (iv.hi - 16.0).abs() < 1e-9,
        "got {iv}"
    );
    let iv = expr_interval("y.abs()", &unknown);
    assert!(iv.is_nonneg(), "got {iv}");
    // Saturating counters floor at zero.
    let iv = expr_interval("y.saturating_sub(z)", &unknown);
    assert!(iv.is_nonneg(), "got {iv}");
}

#[test]
fn golden_division_by_interval_containing_zero_is_top() {
    let unknown = consts(&[]);
    let iv = expr_interval("a / b", &unknown);
    assert!(iv.is_top(), "unknown divisor must widen to ⊤, got {iv}");
    let env = consts(&[("b", 0.0)]);
    let iv = expr_interval("10 / b", &env);
    assert!(iv.is_top(), "zero divisor must widen to ⊤, got {iv}");
}

#[test]
fn golden_unknown_calls_are_top() {
    let unknown = consts(&[]);
    assert!(expr_interval("mystery()", &unknown).is_top());
    assert!(expr_interval("a.mystery_method()", &unknown).is_top());
}

// ---------------------------------------------------------------------
// Golden function summaries over a fixture tree
// ---------------------------------------------------------------------

fn fixture_tree() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ff-absint-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let src = dir.join("crates/ff-sim/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(
        src.join("lib.rs"),
        r#"
pub fn breakeven_floor() -> f64 {
    let spin_j = 5.0;
    let idle_w = 1.6;
    spin_j / idle_w
}

pub fn clamp_gap(gap_us: u64) -> u64 {
    gap_us.min(800).max(0)
}

pub fn doubled_floor() -> f64 {
    breakeven_floor() * 2.0
}
"#,
    )
    .expect("write fixture");
    dir
}

#[test]
fn golden_fn_summaries_over_fixture_sources() {
    let dir = fixture_tree();
    let sources = scan::collect_sources(&dir).expect("collect fixture sources");
    let sums = fn_summaries(&sources);

    let breakeven = sums["ff-sim::breakeven_floor"];
    assert_point(breakeven, 3.125);

    let clamp = sums["ff-sim::clamp_gap"];
    assert!(
        (clamp.lo - 0.0).abs() < 1e-9 && (clamp.hi - 800.0).abs() < 1e-9,
        "clamp_gap must summarise to [0, 800], got {clamp}"
    );

    // The second fixpoint round resolves calls to already-summarised
    // functions: doubled_floor sees breakeven_floor's point value.
    let doubled = sums["ff-sim::doubled_floor"];
    assert_point(doubled, 6.25);
}

// ---------------------------------------------------------------------
// Proptest soundness: concrete evaluation ∈ inferred interval
// ---------------------------------------------------------------------

/// One operand of a generated expression chain, as (text, value).
#[derive(Debug, Clone)]
enum Operand {
    Lit(i32),
    Ident(&'static str),
    Method(&'static str, &'static str, i32),
}

const IDENTS: [&str; 3] = ["a", "b", "c"];

impl Operand {
    fn render(&self) -> String {
        match self {
            Operand::Lit(n) => format!("{n}"),
            Operand::Ident(name) => (*name).to_string(),
            Operand::Method(name, m, arg) => format!("{name}.{m}({arg})"),
        }
    }

    fn value(&self, env: &BTreeMap<String, f64>) -> f64 {
        match self {
            Operand::Lit(n) => f64::from(*n),
            Operand::Ident(name) => env[*name],
            Operand::Method(name, m, arg) => {
                let v = env[*name];
                let a = f64::from(*arg);
                match *m {
                    "max" => v.max(a),
                    "min" => v.min(a),
                    _ => unreachable!("unknown method {m}"),
                }
            }
        }
    }
}

/// The vendored proptest has no `prop_oneof!`; variants are picked by a
/// leading kind selector, like the fault strategy in `properties.rs`.
fn operand_strategy() -> impl Strategy<Value = Operand> {
    (
        0..3usize,
        0..10_000i32,
        0..3usize,
        any::<bool>(),
        -1_000..1_000i32,
    )
        .prop_map(|(kind, lit, ident, use_max, arg)| match kind {
            0 => Operand::Lit(lit),
            1 => Operand::Ident(IDENTS[ident]),
            _ => Operand::Method(IDENTS[ident], if use_max { "max" } else { "min" }, arg),
        })
}

/// `+`, `-`, `*` follow Rust precedence; `/` only ever gets a positive
/// literal divisor so the concrete quotient is finite and the abstract
/// one is not forced to ⊤ by a zero-crossing divisor.
fn op_strategy() -> impl Strategy<Value = &'static str> {
    (0..4usize).prop_map(|i| [" + ", " - ", " * ", " / "][i])
}

/// Reference evaluation of the rendered token chain with standard
/// precedence (`*`/`/` bind tighter than `+`/`-`), in real-number
/// semantics — the semantics the abstract domain models.
fn reference_eval(operands: &[(Operand, &'static str)], env: &BTreeMap<String, f64>) -> f64 {
    // First collapse multiplicative runs, then sum the additive chain.
    let mut terms: Vec<f64> = Vec::new();
    let mut signs: Vec<f64> = Vec::new();
    let mut acc = operands[0].0.value(env);
    let mut pending_sign = 1.0;
    for window in operands.windows(2) {
        let op = window[0].1;
        let next = window[1].0.value(env);
        match op {
            " * " => acc *= next,
            " / " => acc /= next,
            " + " | " - " => {
                terms.push(acc);
                signs.push(pending_sign);
                pending_sign = if op == " - " { -1.0 } else { 1.0 };
                acc = next;
            }
            _ => unreachable!(),
        }
    }
    terms.push(acc);
    signs.push(pending_sign);
    terms.iter().zip(&signs).map(|(t, s)| t * s).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn concrete_value_lies_inside_inferred_interval(
        first in operand_strategy(),
        rest in proptest::collection::vec((op_strategy(), operand_strategy()), 0..5),
        vals in (-10_000..10_000i32, -10_000..10_000i32, -10_000..10_000i32),
    ) {
        let env: BTreeMap<String, f64> = IDENTS
            .iter()
            .zip([vals.0, vals.1, vals.2])
            .map(|(k, v)| ((*k).to_string(), f64::from(v)))
            .collect();

        // Assemble the chain; force `/` divisors to positive literals.
        let mut chain: Vec<(Operand, &'static str)> = vec![(first, "")];
        let mut text = chain[0].0.render();
        for (op, operand) in rest {
            let operand = if op == " / " {
                match operand {
                    Operand::Lit(n) => Operand::Lit(n.rem_euclid(999) + 1),
                    other => {
                        let n = match &other {
                            Operand::Ident(name) => name.len() as i32,
                            _ => 7,
                        };
                        Operand::Lit(n * 13 + 1)
                    }
                }
            } else {
                operand
            };
            chain.last_mut().expect("nonempty").1 = op;
            text.push_str(op);
            text.push_str(&operand.render());
            chain.push((operand, ""));
        }

        let concrete = reference_eval(&chain, &env);
        let iv = expr_interval(&text, &env);
        // Loss of precision is fine; loss of soundness is not. The
        // tolerance absorbs f64 rounding differences between the two
        // evaluation orders.
        let slack = 1e-6 * (1.0 + concrete.abs());
        prop_assert!(
            iv.lo - slack <= concrete && concrete <= iv.hi + slack,
            "`{}` concretely {} but inferred {}",
            text,
            concrete,
            iv
        );
    }

    /// Saturating subtraction must stay sound *and* nonnegative.
    #[test]
    fn saturating_sub_interval_is_sound(a in 0u32..100_000, b in 0u32..100_000) {
        let env = consts(&[("x_bytes", f64::from(a)), ("y_bytes", f64::from(b))]);
        let concrete = f64::from(a.saturating_sub(b));
        let iv = expr_interval("x_bytes.saturating_sub(y_bytes)", &env);
        prop_assert!(iv.is_nonneg(), "saturating_sub went negative: {iv}");
        prop_assert!(
            iv.lo - 1e-6 <= concrete && concrete <= iv.hi + 1e-6,
            "concretely {concrete} but inferred {iv}"
        );
    }
}
