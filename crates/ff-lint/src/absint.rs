//! Wave 4: numeric abstract interpretation over the item tree.
//!
//! The first three semantic waves prove *shape* properties — state
//! machines, taint, the composed product. This wave proves *value*
//! properties, which is what FlexFetch's energy argument actually rests
//! on: time and energy never mix, energy accumulators never go
//! negative, divisors never reach zero, counters do not silently
//! truncate, and the paper's timeout constants satisfy the §3
//! break-even ordering.
//!
//! The domain is a product of three components per expression:
//!
//! - a signed **interval** ([`crate::interval::Interval`]) over the
//!   extended reals,
//! - the **sign** lattice ([`crate::interval::Sign`]), kept alongside
//!   the interval so polarity survives widening,
//! - the **dimension** (`Dim`: µs, ms, s, joules, bytes), read from
//!   identifier suffixes (`deadline_us`, `total_j`), accessors
//!   (`.as_micros()`) and the `Joules`/`Bytes` newtypes. Additive
//!   arithmetic keeps a dimension, `*` and `/` rescale and clear it.
//!
//! Abstract values are computed by a small expression evaluator over
//! the preprocessed line text: numeric literals and the Table 1/2
//! constant environment (seeded from `ff-device::consts` via
//! [`crate::consts`]) become points, `let` bindings extend a per-
//! function environment, reassignment joins, `+=` accumulation widens
//! (the standard jump-to-infinity widening, so loops terminate in one
//! round), and function summaries are computed by a two-round
//! descending fixpoint: round one evaluates every function's return
//! expression with all calls mapped to `TOP`, round two re-evaluates
//! with round one's summaries substituted. Both rounds are sound, so
//! the tighter second round is kept. A summary carries the return
//! dimension too: the fn-name suffix (`fn beacon_interval_ms()`) when
//! there is one, else the dimension the return expressions agree on.
//!
//! Four rule families consume the facts, all pinned at zero:
//!
//! - **unit-flow** — two different known dimensions meeting in `+`,
//!   `-`, `+=`, `-=` or a spaced `<`/`>`; a call argument whose
//!   dimension contradicts the callee's parameter suffix; a suffixed
//!   `let` contradicting its initialiser; a return or tail expression
//!   contradicting the fn-name suffix. Call results flow through the
//!   summaries, so an `_ms` value produced two crates away and passed
//!   to a `_us` parameter is caught. Same-name fns whose dimensions
//!   disagree are not judged.
//! - **arith-safety** — divisions whose divisor provably may be zero
//!   (interval contains zero, or an explicit `.max(0)` floor), lossy
//!   narrowing and float→int `as` casts that the interval cannot prove
//!   safe, and unchecked `+`/`*`/`+=` on `_bytes`/`_us` counters where
//!   `saturating_*` or the `ff_base::checked` helpers exist.
//! - **energy-bounds** — every `_j`/`_energy` accumulation must be
//!   provably non-negative: no `-=` on energy accumulators, no `+=` of
//!   a provably non-positive quantity, no negative `Joules(..)`
//!   construction, and battery `*drain*` functions must stay monotone
//!   (no subtraction in their bodies).
//! - **timeout-order** — recomputes T_breakeven from the constant
//!   registry with interval arithmetic and statically proves the §3
//!   ordering: `0 < T_breakeven < DISK_TIMEOUT_S < outage-retry
//!   ceiling`, where the ceiling is the retry ladder's clamp bound
//!   (base backoff × 2^16; the ladder sum a `RetryPolicy` can reach is
//!   far smaller, but the clamp is what bounds a runaway ladder), plus
//!   `WNIC_PSM_TIMEOUT_MS < T_breakeven` and the requirement that
//!   every backoff shift is `.min(..)`-clamped and overflow-free.
//!
//! unit-flow walks every library file; arith-safety and energy-bounds
//! walk only `ARITH_CRATES` and `ENERGY_CRATES`.

use crate::callgraph::STD_COLLIDING_METHODS;
use crate::consts;
use crate::interval::{Interval, Sign};
use crate::items::{self, Item, ItemTree};
use crate::rules::{call_args, parse_num, Finding, Rule};
use crate::scan::{FileKind, SourceFile};
use std::collections::BTreeMap;

/// Crates whose library code is held to `arith-safety`.
pub(crate) const ARITH_CRATES: [&str; 4] = ["ff-bench", "ff-profile", "ff-sim", "ff-trace"];

/// Crates whose library code is held to `energy-bounds`.
pub(crate) const ENERGY_CRATES: [&str; 2] = ["ff-device", "ff-sim"];

/// Integer cast targets that narrow from the workspace's `u64`/`usize`
/// counters; a cast to one of these must be interval-proven to fit.
const NARROW_TARGETS: [(&str, f64, f64); 6] = [
    ("i16", -32768.0, 32767.0),
    ("i32", -2147483648.0, 2147483647.0),
    ("i8", -128.0, 127.0),
    ("u16", 0.0, 65535.0),
    ("u32", 0.0, 4294967295.0),
    ("u8", 0.0, 255.0),
];

/// Integer cast targets for the float→int truncation check.
const INT_TARGETS: [&str; 10] = [
    "i16", "i32", "i64", "i8", "isize", "u16", "u32", "u64", "u8", "usize",
];

/// A physical dimension. Time keeps its scale: µs, ms and s are three
/// dimensions, because rescaling between them is never implicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dim {
    Micros,
    Millis,
    Secs,
    Joules,
    Bytes,
}

impl Dim {
    fn label(self) -> &'static str {
        match self {
            Dim::Micros => "us",
            Dim::Millis => "ms",
            Dim::Secs => "s",
            Dim::Joules => "j",
            Dim::Bytes => "bytes",
        }
    }

    /// Integer counters (times and sizes) that can overflow.
    fn is_counter(self) -> bool {
        self != Dim::Joules
    }
}

/// One value in the product domain: interval × sign × dimension, plus
/// a syntactic "came from float arithmetic" taint used by the
/// truncating-cast check.
#[derive(Debug, Clone)]
pub(crate) struct AbsVal {
    pub(crate) iv: Interval,
    pub(crate) sign: Sign,
    pub(crate) dim: Option<Dim>,
    pub(crate) floaty: bool,
}

impl AbsVal {
    fn top() -> AbsVal {
        AbsVal {
            iv: Interval::TOP,
            sign: Sign::Unknown,
            dim: None,
            floaty: false,
        }
    }

    fn of_interval(iv: Interval) -> AbsVal {
        AbsVal {
            iv,
            sign: iv.sign(),
            dim: None,
            floaty: false,
        }
    }

    fn point(v: f64, floaty: bool) -> AbsVal {
        let mut a = AbsVal::of_interval(Interval::point(v));
        a.floaty = floaty;
        a
    }

    /// Unknown value carrying a dimension hint: physical quantities in
    /// this codebase (counters, durations, joules) are non-negative.
    fn counter(dim: Option<Dim>) -> AbsVal {
        AbsVal {
            iv: Interval::NON_NEG,
            sign: Sign::NonNeg,
            dim,
            floaty: false,
        }
    }

    fn join(&self, other: &AbsVal) -> AbsVal {
        AbsVal {
            iv: self.iv.join(other.iv),
            sign: self.sign.join(other.sign),
            dim: if self.dim == other.dim {
                self.dim
            } else {
                None
            },
            floaty: self.floaty || other.floaty,
        }
    }
}

/// Keeps the stored sign at least as precise as the interval implies.
fn refine(mut v: AbsVal) -> AbsVal {
    let projected = v.iv.sign();
    if v.sign == Sign::Unknown {
        v.sign = projected;
    }
    v
}

type Env = BTreeMap<String, AbsVal>;
/// Function summaries by bare name: the joined return interval and
/// return dimension of every same-name workspace fn.
type Sums = BTreeMap<String, AbsVal>;

/// Parameter dimensions by bare fn name (`self` excluded).
type Params = BTreeMap<String, Vec<Option<Dim>>>;

/// Dimension of an identifier from its suffix, plus the energy-field
/// naming convention (`energy`, `*_energy`).
fn dim_of_name(name: &str) -> Option<Dim> {
    for (suffix, dim) in [
        ("_us", Dim::Micros),
        ("_micros", Dim::Micros),
        ("_ms", Dim::Millis),
        ("_millis", Dim::Millis),
        ("_s", Dim::Secs),
        ("_secs", Dim::Secs),
        ("_j", Dim::Joules),
        ("_joules", Dim::Joules),
        ("_bytes", Dim::Bytes),
    ] {
        if name
            .strip_suffix(suffix)
            .is_some_and(|stem| !stem.is_empty())
        {
            return Some(dim);
        }
    }
    (name == "energy" || name.ends_with("_energy")).then_some(Dim::Joules)
}

/// Names that abstract to "unknown but non-negative physical quantity".
fn is_nonneg_name(name: &str) -> bool {
    dim_of_name(name).is_some()
        || name.ends_with("_power")
        || name.ends_with("_w")
        || name.ends_with("_wh")
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum TK {
    Num(f64, bool),
    Ident,
    LParen,
    RParen,
    Dot,
    Comma,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Shl,
    As,
    Question,
    Other,
}

#[derive(Debug, Clone, Copy)]
struct Tok {
    kind: TK,
    start: usize,
    end: usize,
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Tokenise one expression slice. Positions index into `s`; only ASCII
/// bytes start tokens, so slicing at token boundaries is always valid.
fn lex(s: &str) -> Vec<Tok> {
    let b = s.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        let start = i;
        let kind = if c == b' ' || c == b'\t' {
            i += 1;
            continue;
        } else if c.is_ascii_digit() {
            let mut floaty = false;
            while i < b.len() && (b[i].is_ascii_hexdigit() || b[i] == b'_' || b[i] == b'x') {
                i += 1;
            }
            if i < b.len() && b[i] == b'.' && i + 1 < b.len() && b[i + 1].is_ascii_digit() {
                floaty = true;
                i += 1;
                while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                    i += 1;
                }
            }
            if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
                let mut j = i + 1;
                if j < b.len() && (b[j] == b'+' || b[j] == b'-') {
                    j += 1;
                }
                if j < b.len() && b[j].is_ascii_digit() {
                    floaty = true;
                    i = j;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                }
            }
            let lit_end = i;
            // Type suffix (`1u64`, `2.5f64`).
            while i < b.len() && is_ident_byte(b[i]) {
                i += 1;
            }
            let suffix = &s[lit_end..i];
            let floaty = floaty || suffix.starts_with('f');
            match parse_num(&s[start..lit_end]) {
                Some(v) => TK::Num(v, floaty),
                None => TK::Other,
            }
        } else if c.is_ascii_alphabetic() || c == b'_' {
            while i < b.len() && is_ident_byte(b[i]) {
                i += 1;
            }
            // Fold `::` path segments into one ident token.
            while i + 2 < b.len()
                && b[i] == b':'
                && b[i + 1] == b':'
                && (b[i + 2].is_ascii_alphabetic() || b[i + 2] == b'_')
            {
                i += 2;
                while i < b.len() && is_ident_byte(b[i]) {
                    i += 1;
                }
            }
            if &s[start..i] == "as" {
                TK::As
            } else {
                TK::Ident
            }
        } else {
            i += 1;
            match c {
                b'(' => TK::LParen,
                b')' => TK::RParen,
                b'.' => {
                    if i < b.len() && b[i] == b'.' {
                        i += 1;
                        TK::Other
                    } else {
                        TK::Dot
                    }
                }
                b',' => TK::Comma,
                b'+' => TK::Plus,
                b'-' => TK::Minus,
                b'*' => TK::Star,
                b'/' => TK::Slash,
                b'%' => TK::Percent,
                b'<' => {
                    if i < b.len() && b[i] == b'<' {
                        i += 1;
                        TK::Shl
                    } else {
                        TK::Other
                    }
                }
                b'?' => TK::Question,
                _ => TK::Other,
            }
        };
        toks.push(Tok {
            kind,
            start,
            end: i,
        });
    }
    toks
}

// ---------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------

struct Eval<'a> {
    src: &'a str,
    toks: Vec<Tok>,
    i: usize,
    env: &'a Env,
    sums: &'a Sums,
}

impl<'a> Eval<'a> {
    fn new(src: &'a str, env: &'a Env, sums: &'a Sums) -> Eval<'a> {
        Eval {
            src,
            toks: lex(src),
            i: 0,
            env,
            sums,
        }
    }

    fn peek(&self) -> Option<Tok> {
        self.toks.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.peek();
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn text(&self, t: Tok) -> &'a str {
        self.src.get(t.start..t.end).unwrap_or("")
    }

    /// Full expression: shift level (`<<` lowest handled here).
    fn expr(&mut self) -> AbsVal {
        let mut v = self.additive();
        while let Some(t) = self.peek() {
            if t.kind != TK::Shl {
                break;
            }
            self.bump();
            let rhs = self.additive();
            v = refine(AbsVal {
                iv: shl_interval(v.iv, rhs.iv),
                sign: Sign::Unknown,
                dim: None,
                floaty: false,
            });
        }
        v
    }

    fn additive(&mut self) -> AbsVal {
        let mut v = self.term();
        while let Some(t) = self.peek() {
            let op = t.kind;
            if op != TK::Plus && op != TK::Minus {
                break;
            }
            self.bump();
            let rhs = self.term();
            v = match op {
                TK::Plus => AbsVal {
                    iv: v.iv.add(rhs.iv),
                    sign: v.sign.add(rhs.sign),
                    dim: add_dim(v.dim, rhs.dim),
                    floaty: v.floaty || rhs.floaty,
                },
                _ => AbsVal {
                    iv: v.iv.sub(rhs.iv),
                    sign: v.sign.add(rhs.sign.neg()),
                    dim: add_dim(v.dim, rhs.dim),
                    floaty: v.floaty || rhs.floaty,
                },
            };
            v = refine(v);
        }
        v
    }

    /// `*`, `/` and `%`. Multiplication and division rescale, which is
    /// how a value legitimately changes dimension, so both clear it.
    fn term(&mut self) -> AbsVal {
        let mut v = self.unary();
        while let Some(t) = self.peek() {
            let op = t.kind;
            if op != TK::Star && op != TK::Slash && op != TK::Percent {
                break;
            }
            self.bump();
            let rhs = self.unary();
            v = match op {
                TK::Star => refine(AbsVal {
                    iv: v.iv.mul(rhs.iv),
                    sign: v.sign.mul(rhs.sign),
                    dim: None,
                    floaty: v.floaty || rhs.floaty,
                }),
                TK::Slash => refine(AbsVal {
                    iv: v.iv.div(rhs.iv),
                    sign: Sign::Unknown,
                    dim: None,
                    floaty: v.floaty || rhs.floaty,
                }),
                _ => {
                    // `a % b` with a positive divisor is bounded by the
                    // divisor's magnitude. Counters and sizes here are
                    // unsigned, so an *unknown* dividend is treated as
                    // non-negative (the workspace convention); only a
                    // provably negative-capable dividend keeps the
                    // signed hull.
                    let iv = if rhs.iv.is_pos() && rhs.iv.hi.is_finite() {
                        if v.iv.lo >= 0.0 || v.iv.is_top() {
                            Interval::new(0.0, rhs.iv.hi)
                        } else {
                            Interval::new(-rhs.iv.hi, rhs.iv.hi)
                        }
                    } else {
                        Interval::TOP
                    };
                    refine(AbsVal {
                        iv,
                        sign: Sign::Unknown,
                        dim: v.dim,
                        floaty: v.floaty || rhs.floaty,
                    })
                }
            };
        }
        v
    }

    fn unary(&mut self) -> AbsVal {
        if let Some(t) = self.peek() {
            if t.kind == TK::Minus {
                self.bump();
                let v = self.unary();
                return refine(AbsVal {
                    iv: v.iv.neg(),
                    sign: v.sign.neg(),
                    dim: v.dim,
                    floaty: v.floaty,
                });
            }
        }
        self.postfix()
    }

    fn postfix(&mut self) -> AbsVal {
        let mut v = self.primary();
        loop {
            match self.peek().map(|t| t.kind) {
                Some(TK::Question) => {
                    self.bump();
                }
                Some(TK::As) => {
                    self.bump();
                    let target = match self.peek() {
                        Some(t) if t.kind == TK::Ident => {
                            self.bump();
                            self.text(t)
                        }
                        _ => break,
                    };
                    v = apply_cast(v, target);
                }
                Some(TK::Dot) => {
                    self.bump();
                    let name = match self.peek() {
                        Some(t) if t.kind == TK::Ident => {
                            self.bump();
                            self.text(t)
                        }
                        _ => break,
                    };
                    if self.peek().map(|t| t.kind) == Some(TK::LParen) {
                        self.bump();
                        let args = self.args();
                        v = apply_method(v, name, &args, self.sums);
                    } else {
                        // Field access: abstract by the field's name.
                        v = field_val(name);
                    }
                }
                _ => break,
            }
        }
        v
    }

    /// Parse a call's arguments up to the matching `)`.
    fn args(&mut self) -> Vec<AbsVal> {
        let mut out = Vec::new();
        if self.peek().map(|t| t.kind) == Some(TK::RParen) {
            self.bump();
            return out;
        }
        loop {
            out.push(self.expr());
            match self.bump().map(|t| t.kind) {
                Some(TK::Comma) => continue,
                Some(TK::RParen) | None => break,
                // Closures, ranges and other unmodelled argument syntax:
                // skip to the matching close paren.
                _ => {
                    let mut depth = 0usize;
                    while let Some(t) = self.bump() {
                        match t.kind {
                            TK::LParen => depth += 1,
                            TK::RParen => {
                                if depth == 0 {
                                    return out;
                                }
                                depth -= 1;
                            }
                            _ => {}
                        }
                    }
                    break;
                }
            }
        }
        out
    }

    fn primary(&mut self) -> AbsVal {
        match self.peek() {
            Some(t) if t.kind == TK::LParen => {
                self.bump();
                let v = self.expr();
                if self.peek().map(|x| x.kind) == Some(TK::RParen) {
                    self.bump();
                }
                v
            }
            Some(t) => match t.kind {
                TK::Num(v, floaty) => {
                    self.bump();
                    AbsVal::point(v, floaty)
                }
                TK::Ident => {
                    self.bump();
                    let name = self.text(t);
                    if self.peek().map(|x| x.kind) == Some(TK::LParen) {
                        self.bump();
                        let args = self.args();
                        call_val(name, &args, self.sums)
                    } else {
                        ident_val(name, self.env)
                    }
                }
                _ => {
                    self.bump();
                    AbsVal::top()
                }
            },
            None => AbsVal::top(),
        }
    }
}

/// Dimension of `a ± b`: a unitless side adopts the other's dimension;
/// two different dimensions have none (unit-flow reports the mix).
fn add_dim(a: Option<Dim>, b: Option<Dim>) -> Option<Dim> {
    match (a, b) {
        (Some(x), Some(y)) if x != y => None,
        _ => a.or(b),
    }
}

/// `lhs << rhs` over intervals: only meaningful for non-negative bases.
fn shl_interval(lhs: Interval, rhs: Interval) -> Interval {
    if !lhs.is_nonneg() || !rhs.is_nonneg() {
        return Interval::TOP;
    }
    let scale = |bound: f64, exp: f64| -> f64 {
        if exp > 63.0 || !exp.is_finite() {
            f64::INFINITY
        } else {
            bound * (2.0_f64).powi(exp as i32)
        }
    };
    Interval::new(scale(lhs.lo, rhs.lo), scale(lhs.hi, rhs.hi))
}

/// Abstract a cast: float targets preserve the interval (taint as
/// floaty), integer targets clamp into the target's range when the
/// value provably fits, and widen to the full target range otherwise
/// (a wrapping cast always lands inside the type's range, so that is
/// still sound).
fn apply_cast(v: AbsVal, target: &str) -> AbsVal {
    if target == "f64" || target == "f32" {
        let mut out = v;
        out.floaty = true;
        return out;
    }
    for (name, lo, hi) in NARROW_TARGETS {
        if name == target {
            let iv = if v.iv.lo >= lo && v.iv.hi <= hi {
                v.iv
            } else {
                Interval::new(lo, hi)
            };
            return refine(AbsVal {
                iv,
                sign: Sign::Unknown,
                dim: v.dim,
                floaty: false,
            });
        }
    }
    if INT_TARGETS.contains(&target) {
        // u64/usize/i64: wide enough for every counter here; an
        // integer cast truncates toward zero, staying inside the hull.
        let mut out = v;
        out.floaty = false;
        if target.starts_with('u') && !out.iv.is_nonneg() {
            out.iv = Interval::TOP;
            out.sign = Sign::Unknown;
        }
        return out;
    }
    AbsVal::top()
}

/// Abstract a known method call; unknown methods conservatively
/// return `TOP` (method summaries stay out of divisor reasoning so a
/// misresolved name can never manufacture a finding) and keep only the
/// summary's dimension, unless the name collides with a std method.
fn apply_method(v: AbsVal, name: &str, args: &[AbsVal], sums: &Sums) -> AbsVal {
    let arg = |i: usize| -> AbsVal { args.get(i).cloned().unwrap_or_else(AbsVal::top) };
    match name {
        "max" => refine(AbsVal {
            iv: v.iv.max_op(arg(0).iv),
            sign: Sign::Unknown,
            dim: v.dim,
            floaty: v.floaty || arg(0).floaty,
        }),
        "min" => refine(AbsVal {
            iv: v.iv.min_op(arg(0).iv),
            sign: Sign::Unknown,
            dim: v.dim,
            floaty: v.floaty || arg(0).floaty,
        }),
        "clamp" => refine(AbsVal {
            iv: v.iv.clamp_op(arg(0).iv, arg(1).iv),
            sign: Sign::Unknown,
            dim: v.dim,
            floaty: v.floaty,
        }),
        "abs" => refine(AbsVal {
            iv: v.iv.abs_op(),
            sign: Sign::Unknown,
            dim: v.dim,
            floaty: v.floaty,
        }),
        "sqrt" => AbsVal::counter(None),
        "len" => AbsVal::counter(None),
        "get" | "clone" | "copied" | "into" => v,
        "saturating_add" => refine(AbsVal {
            iv: v.iv.add(arg(0).iv),
            sign: v.sign.add(arg(0).sign),
            dim: v.dim,
            floaty: v.floaty,
        }),
        "saturating_sub" => {
            // Unsigned saturating subtraction floors at zero.
            let iv = v.iv.sub(arg(0).iv).max_op(Interval::point(0.0));
            refine(AbsVal {
                iv,
                sign: Sign::NonNeg,
                dim: v.dim,
                floaty: v.floaty,
            })
        }
        "saturating_mul" => refine(AbsVal {
            iv: v.iv.mul(arg(0).iv),
            sign: v.sign.mul(arg(0).sign),
            dim: v.dim,
            floaty: v.floaty,
        }),
        "as_micros" => AbsVal::counter(Some(Dim::Micros)),
        "as_millis" => AbsVal::counter(Some(Dim::Millis)),
        "as_secs" => AbsVal::counter(Some(Dim::Secs)),
        "as_secs_f64" => {
            let mut out = AbsVal::counter(Some(Dim::Secs));
            out.floaty = true;
            out
        }
        "as_mib_f64" => {
            let mut out = AbsVal::counter(None);
            out.floaty = true;
            out
        }
        _ => AbsVal {
            dim: sums
                .get(name)
                .filter(|_| !STD_COLLIDING_METHODS.contains(&name))
                .and_then(|s| s.dim),
            ..AbsVal::top()
        },
    }
}

/// Abstract a bare (single-segment) call via the function summaries;
/// qualified paths model the `ff_base` constructors and stay `TOP`
/// otherwise. The newtype constructors pass their argument's interval
/// through: `Bytes`/`Joules` fix the dimension, while `Watts` and the
/// scale-free `Dur`/`SimTime` clear it.
fn call_val(name: &str, args: &[AbsVal], sums: &Sums) -> AbsVal {
    let dim = match name {
        "Bytes" => Some(Dim::Bytes),
        "Joules" => Some(Dim::Joules),
        _ => None,
    };
    if dim.is_some()
        || name == "Watts"
        || name.starts_with("Dur::from_")
        || name.starts_with("SimTime::from_")
    {
        let arg = args.first().cloned().unwrap_or_else(AbsVal::top);
        return AbsVal { dim, ..arg };
    }
    if name == "u64::MAX" {
        return AbsVal::of_interval(Interval::point(u64::MAX as f64));
    }
    if !name.contains("::") {
        if let Some(sum) = sums.get(name) {
            return sum.clone();
        }
    }
    AbsVal::top()
}

/// Abstract a plain identifier: environment, constant registry (both
/// already folded into `env`), `MAX`/`MIN` associated consts, then the
/// dimension-suffix heuristic.
fn ident_val(name: &str, env: &Env) -> AbsVal {
    let last = name.rsplit("::").next().unwrap_or(name);
    if let Some(v) = env.get(name).or_else(|| env.get(last)) {
        return v.clone();
    }
    match name {
        "u64::MAX" => return AbsVal::of_interval(Interval::point(u64::MAX as f64)),
        "u32::MAX" => return AbsVal::of_interval(Interval::point(u32::MAX as f64)),
        "f64::INFINITY" => return AbsVal::of_interval(Interval::point(f64::INFINITY)),
        _ => {}
    }
    field_val(last)
}

/// Abstract an identifier or field by its name alone.
fn field_val(name: &str) -> AbsVal {
    let dim = dim_of_name(name);
    if dim.is_some() || is_nonneg_name(name) {
        AbsVal::counter(dim)
    } else {
        AbsVal::top()
    }
}

fn eval_slice(src: &str, env: &Env, sums: &Sums) -> AbsVal {
    Eval::new(src, env, sums).expr()
}

/// Evaluate a single expression against a constant table. Public so
/// the soundness property test can compare a concrete evaluation of a
/// random expression against the inferred interval.
pub fn expr_interval(expr: &str, consts: &BTreeMap<String, f64>) -> Interval {
    let env: Env = consts
        .iter()
        .map(|(k, v)| (k.clone(), AbsVal::point(*v, v.fract().abs() > 0.0)))
        .collect();
    let sums = Sums::new();
    eval_slice(expr, &env, &sums).iv
}

// ---------------------------------------------------------------------
// Statement walking and function summaries
// ---------------------------------------------------------------------

/// `let [mut] name [: ty] = rhs;` → `(name, rhs)`.
fn split_let(code: &str) -> Option<(&str, &str)> {
    let rest = code.trim_start().strip_prefix("let ")?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let b = rest.as_bytes();
    let mut end = 0;
    while end < b.len() && is_ident_byte(b[end]) {
        end += 1;
    }
    if end == 0 {
        return None;
    }
    let name = &rest[..end];
    if name.starts_with(|c: char| c.is_ascii_uppercase()) {
        return None;
    }
    let tail = &rest[end..];
    let eq = find_plain_eq(tail)?;
    let rhs = tail.get(eq + 1..)?.trim().trim_end_matches(';');
    Some((name, rhs))
}

/// Position of a plain `=` (not `==`, `<=`, `>=`, `!=`, `+=`, ...).
fn find_plain_eq(s: &str) -> Option<usize> {
    let b = s.as_bytes();
    for (i, &c) in b.iter().enumerate() {
        if c != b'=' {
            continue;
        }
        let prev_ok = i == 0
            || !matches!(
                b[i - 1],
                b'=' | b'!' | b'<' | b'>' | b'+' | b'-' | b'*' | b'/' | b'%'
            );
        let next_ok = i + 1 >= b.len() || b[i + 1] != b'=';
        if prev_ok && next_ok {
            return Some(i);
        }
    }
    None
}

/// `lhs op= rhs;` for `+=`/`-=`/`*=` → `(lhs, op, rhs)`.
fn split_compound(code: &str) -> Option<(&str, u8, &str)> {
    let b = code.as_bytes();
    for (i, &c) in b.iter().enumerate() {
        if (c == b'+' || c == b'-' || c == b'*') && i + 1 < b.len() && b[i + 1] == b'=' {
            if i + 2 < b.len() && b[i + 2] == b'=' {
                return None;
            }
            let lhs = code.get(..i)?.trim();
            let rhs = code.get(i + 2..)?.trim().trim_end_matches(';');
            if lhs.is_empty()
                || !lhs
                    .bytes()
                    .all(|x| is_ident_byte(x) || x == b'.' || x == b':')
            {
                return None;
            }
            return Some((lhs, c, rhs));
        }
    }
    None
}

/// Last `.`-separated segment of a field path (`self.disk_bytes` →
/// `disk_bytes`).
fn last_segment(path: &str) -> &str {
    path.rsplit('.').next().unwrap_or(path)
}

/// First meaningful path segment of an expression slice, for guard
/// matching (`trace.len() as u64` → `trace`, `self.x` → `x`).
fn root_ident(slice: &str) -> &str {
    let b = slice.as_bytes();
    let mut i = 0;
    while i < b.len() && !(b[i].is_ascii_alphabetic() || b[i] == b'_') {
        if b[i].is_ascii_digit() {
            return "";
        }
        i += 1;
    }
    let start = i;
    while i < b.len() && is_ident_byte(b[i]) {
        i += 1;
    }
    let seg = slice.get(start..i).unwrap_or("");
    if seg == "self" {
        let rest = slice.get(i..).unwrap_or("");
        if let Some(tail) = rest.strip_prefix('.') {
            return root_ident(tail);
        }
    }
    seg
}

/// Extract the operand slice to the *right* of position `from` (a
/// divisor): a primary plus its postfix chain (`.calls`, `as ty`, `?`).
fn operand_right(code: &str, from: usize) -> &str {
    let b = code.as_bytes();
    let mut i = from;
    while i < b.len() && b[i] == b' ' {
        i += 1;
    }
    let start = i;
    if i < b.len() && b[i] == b'-' {
        i += 1;
    }
    loop {
        if i >= b.len() {
            break;
        }
        let c = b[i];
        if c == b'(' {
            let mut depth = 1usize;
            i += 1;
            while i < b.len() && depth > 0 {
                match b[i] {
                    b'(' => depth += 1,
                    b')' => depth -= 1,
                    _ => {}
                }
                i += 1;
            }
        } else if is_ident_byte(c) || c == b':' {
            i += 1;
        } else if c == b'.' && i + 1 < b.len() && (is_ident_byte(b[i + 1]) || b[i + 1] == b'(') {
            i += 1;
        } else if c == b'?' {
            i += 1;
        } else if c == b' '
            && code
                .get(i..)
                .map(|r| r.starts_with(" as "))
                .unwrap_or(false)
        {
            i += 4;
            while i < b.len() && is_ident_byte(b[i]) {
                i += 1;
            }
        } else {
            break;
        }
    }
    code.get(start..i).unwrap_or("").trim()
}

/// Extract the operand slice to the *left* of position `to` (a cast
/// operand): walks back over one postfix chain.
fn operand_left(code: &str, to: usize) -> &str {
    let b = code.as_bytes();
    let mut i = to;
    while i > 0 && b[i - 1] == b' ' {
        i -= 1;
    }
    let end = i;
    loop {
        if i == 0 {
            break;
        }
        let c = b[i - 1];
        if c == b')' {
            let mut depth = 1usize;
            i -= 1;
            while i > 0 && depth > 0 {
                match b[i - 1] {
                    b')' => depth += 1,
                    b'(' => depth -= 1,
                    _ => {}
                }
                i -= 1;
            }
        } else if is_ident_byte(c) || c == b'.' || c == b':' || c == b'?' {
            i -= 1;
        } else {
            break;
        }
    }
    code.get(i..end).unwrap_or("").trim()
}

/// Does the function's body text as a whole guard `root` against zero?
fn guarded(fn_text: &str, root: &str) -> bool {
    if root.is_empty() {
        return false;
    }
    let patterns = [
        format!("{root} == 0"),
        format!("{root} != 0"),
        format!("{root} > 0"),
        format!("{root} >= 1"),
        format!("{root}.is_empty"),
        format!("{root}.is_zero"),
        format!("{root} <= 0"),
    ];
    patterns.iter().any(|p| fn_text.contains(p.as_str()))
}

/// Divisor clamped with an explicit zero floor (`.max(0)` / `.max(0.0)`)?
fn zero_floor_clamp(slice: &str) -> bool {
    for pat in [".max(0)", ".max(0.0)", ".max(0 ", ".max(0.0 "] {
        if slice.contains(pat) {
            return true;
        }
    }
    false
}

/// Environment for one function: Table 1/2 constants plus any
/// dimension-suffixed parameters (non-negative physical quantities).
fn base_env(ctab: &BTreeMap<String, f64>, item: &Item) -> Env {
    let mut env: Env = ctab
        .iter()
        .map(|(k, v)| (k.clone(), AbsVal::point(*v, v.fract().abs() > 0.0)))
        .collect();
    for p in &item.params {
        if let Some(dim) = dim_of_name(p) {
            env.insert(p.clone(), AbsVal::counter(Some(dim)));
        }
    }
    env
}

/// Walk one function's body, maintaining the abstract environment and
/// yielding each (0-based line index, code, env-before-line) to `sink`.
fn walk_fn<F: FnMut(usize, &str, &Env)>(
    file: &SourceFile,
    item: &Item,
    ctab: &BTreeMap<String, f64>,
    sums: &Sums,
    sink: &mut F,
) -> Env {
    let mut env = base_env(ctab, item);
    for (idx, code) in body_lines(file, item) {
        sink(idx, code, &env);
        if let Some((name, rhs)) = split_let(code) {
            let v = refine(eval_slice(rhs, &env, sums));
            // A suffixed name keeps its declared dimension even when the
            // initialiser contradicts it (unit-flow reports that).
            let dim = dim_of_name(name).or(v.dim);
            env.insert(name.to_owned(), AbsVal { dim, ..v });
        } else if let Some((lhs, op, rhs)) = split_compound(code) {
            let name = last_segment(lhs);
            if let Some(old) = env.get(name).cloned() {
                let rv = eval_slice(rhs, &env, sums);
                let next = match op {
                    b'+' => old.iv.add(rv.iv),
                    b'-' => old.iv.sub(rv.iv),
                    _ => old.iv.mul(rv.iv),
                };
                // Accumulators run inside loops the line walk cannot
                // see; widen so one abstract pass covers every trip.
                let widened = old.iv.widen(old.iv.join(next));
                env.insert(
                    name.to_owned(),
                    refine(AbsVal {
                        iv: widened,
                        sign: Sign::Unknown,
                        dim: old.dim,
                        floaty: old.floaty,
                    }),
                );
            }
        } else if let Some(eq) = find_plain_eq(code) {
            let lhs = code.get(..eq).map(str::trim).unwrap_or("");
            if !lhs.is_empty() && lhs.bytes().all(is_ident_byte) {
                if let Some(old) = env.get(lhs).cloned() {
                    let rhs = code
                        .get(eq + 1..)
                        .unwrap_or("")
                        .trim()
                        .trim_end_matches(';');
                    let rv = refine(eval_slice(rhs, &env, sums));
                    env.insert(lhs.to_owned(), old.join(&rv));
                }
            }
        }
    }
    env
}

/// 0-based line range of a function's body interior.
fn body_range(item: &Item) -> (usize, usize) {
    if item.body_start == 0 || item.body_end <= item.body_start {
        (item.decl_line.saturating_sub(1), item.decl_line)
    } else {
        (item.body_start, item.body_end.saturating_sub(1))
    }
}

/// The non-empty, non-test code lines of a function's body with their
/// 0-based line indices, trimmed.
fn body_lines<'a>(file: &'a SourceFile, item: &Item) -> impl Iterator<Item = (usize, &'a str)> {
    let (lo, hi) = body_range(item);
    (lo..hi).filter_map(move |idx| {
        let line = file.lines.get(idx).filter(|l| !l.in_test)?;
        let code = line.code.trim();
        (!code.is_empty()).then_some((idx, code))
    })
}

/// The expression after `return` on a `return X;` line.
fn returned(code: &str) -> Option<&str> {
    code.strip_prefix("return ")
        .map(|rest| rest.trim_end_matches(';'))
}

/// A function's tail expression with its 0-based line index: the whole
/// interior of a single-line body, else the last body line that ends
/// the block without `;`, `{` or `}`.
fn tail_expr<'a>(file: &'a SourceFile, item: &Item) -> Option<(usize, &'a str)> {
    if item.body_start != 0 && item.body_start == item.body_end {
        let idx = item.body_start.saturating_sub(1);
        let code = &file.lines.get(idx)?.code;
        let (open, close) = (code.find('{')?, code.rfind('}')?);
        let inner = code.get(open + 1..close)?.trim();
        return (!inner.is_empty()).then_some((idx, inner));
    }
    let (idx, code) = body_lines(file, item).last()?;
    let open = code.ends_with(';') || code.ends_with('{') || code.ends_with('}');
    (!open).then_some((idx, code))
}

/// Candidate return expressions of a function with their 0-based line
/// indices: `return X;` lines plus the tail expression.
fn return_exprs<'a>(file: &'a SourceFile, item: &Item) -> Vec<(usize, &'a str)> {
    let mut out: Vec<(usize, &str)> = body_lines(file, item)
        .filter_map(|(idx, code)| Some((idx, returned(code)?)))
        .collect();
    out.extend(tail_expr(file, item));
    out
}

/// One summary round: evaluate every library function's return
/// expressions under `prev` summaries. Same-name fns are joined: the
/// interval over those with a known (non-`TOP`) return interval, the
/// dimension over all of them, so a name whose fns disagree has none.
fn summary_round(
    sources: &[SourceFile],
    trees: &[ItemTree],
    ctab: &BTreeMap<String, f64>,
    prev: &Sums,
) -> Sums {
    let mut ivs: BTreeMap<&str, Interval> = BTreeMap::new();
    let mut dims: BTreeMap<&str, Option<Dim>> = BTreeMap::new();
    for (file, tree) in sources.iter().zip(trees) {
        if file.kind != FileKind::Lib {
            continue;
        }
        for (_, item) in tree.fns() {
            if item.in_test {
                continue;
            }
            let env = walk_fn(file, item, ctab, prev, &mut |_, _, _| {});
            let ret = return_exprs(file, item)
                .into_iter()
                .map(|(_, expr)| eval_slice(expr, &env, prev))
                .reduce(|a, b| a.join(&b));
            let name = item.name.as_str();
            let dim = dim_of_name(name).or(ret.as_ref().and_then(|r| r.dim));
            dims.entry(name)
                .and_modify(|d| {
                    if *d != dim {
                        *d = None;
                    }
                })
                .or_insert(dim);
            let Some(iv) = ret.map(|r| r.iv).filter(|iv| !iv.is_top()) else {
                continue;
            };
            ivs.entry(name)
                .and_modify(|j| *j = j.join(iv))
                .or_insert(iv);
        }
    }
    dims.into_iter()
        .map(|(name, dim)| {
            let iv = ivs.get(name).copied().unwrap_or(Interval::TOP);
            (
                name.to_owned(),
                AbsVal {
                    dim,
                    ..AbsVal::of_interval(iv)
                },
            )
        })
        .collect()
}

/// Two-round descending fixpoint over function return intervals. Round
/// one is computed with every call abstracted to `TOP` (sound); round
/// two substitutes round one's summaries (still sound, tighter or
/// equal), so the second round is the result. Round one already knows
/// each fn's name-suffix dimension, so a return dimension travels up
/// two levels of helpers (`a() -> b() -> c_ms()` gives `a` ms).
fn build_summaries(
    sources: &[SourceFile],
    trees: &[ItemTree],
    ctab: &BTreeMap<String, f64>,
) -> Sums {
    let mut seed = Sums::new();
    for (file, tree) in sources.iter().zip(trees) {
        if file.kind != FileKind::Lib {
            continue;
        }
        for (_, item) in tree.fns() {
            if let Some(dim) = dim_of_name(&item.name).filter(|_| !item.in_test) {
                let top = AbsVal {
                    dim: Some(dim),
                    ..AbsVal::top()
                };
                seed.insert(item.name.clone(), top);
            }
        }
    }
    let round1 = summary_round(sources, trees, ctab, &seed);
    summary_round(sources, trees, ctab, &round1)
}

/// Per-function return intervals, qualified as `crate::fn_name`. Public
/// for the golden interval-facts test.
pub fn fn_summaries(sources: &[SourceFile]) -> BTreeMap<String, Interval> {
    let trees = items::build(sources);
    let ctab = consts::const_table(sources);
    let bare = build_summaries(sources, &trees, &ctab);
    let mut out = BTreeMap::new();
    for (file, tree) in sources.iter().zip(&trees) {
        if file.kind != FileKind::Lib {
            continue;
        }
        for (_, item) in tree.fns() {
            if let Some(sum) = bare.get(&item.name).filter(|s| !s.iv.is_top()) {
                out.insert(format!("{}::{}", file.crate_name, item.name), sum.iv);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule families
// ---------------------------------------------------------------------

/// Run the wave-4 families over the workspace.
pub(crate) fn analyze(sources: &[SourceFile], trees: &[ItemTree]) -> Vec<Finding> {
    let ctab = consts::const_table(sources);
    let sums = build_summaries(sources, trees, &ctab);
    let params = param_dims(sources, trees);
    let mut out = Vec::new();
    for (file, tree) in sources.iter().zip(trees) {
        if file.kind != FileKind::Lib {
            continue;
        }
        let arith = ARITH_CRATES.contains(&file.crate_name.as_str());
        let energy = ENERGY_CRATES.contains(&file.crate_name.as_str());
        for (_, item) in tree.fns() {
            if item.in_test {
                continue;
            }
            let fn_text = fn_body_text(file, item);
            let mut sink = |idx: usize, code: &str, env: &Env| {
                check_dims(file, idx, code, env, &sums, &params, &mut out);
                if let Some(expr) = returned(code) {
                    check_return_dim(file, item, (idx, expr), env, &sums, &mut out);
                }
                if arith {
                    check_divisions(file, item, idx, code, env, &sums, &fn_text, &mut out);
                    check_casts(file, idx, code, env, &sums, &mut out);
                    check_counters(file, idx, code, &mut out);
                }
                if energy {
                    check_energy_line(file, idx, code, env, &sums, &mut out);
                }
            };
            let env = walk_fn(file, item, &ctab, &sums, &mut sink);
            if let Some(tail) = tail_expr(file, item) {
                check_return_dim(file, item, tail, &env, &sums, &mut out);
            }
            if energy {
                check_drain_fn(file, item, &mut out);
            }
        }
    }
    out.extend(timeout_order(sources, &ctab));
    out
}

/// Parameter dimensions of every library fn, by bare name. Same-name
/// fns that disagree are dropped (the name alone cannot say which one a
/// call means), as are fns without a single dimensioned parameter.
fn param_dims(sources: &[SourceFile], trees: &[ItemTree]) -> Params {
    let mut table: BTreeMap<&str, Option<Vec<Option<Dim>>>> = BTreeMap::new();
    for (file, tree) in sources.iter().zip(trees) {
        if file.kind != FileKind::Lib {
            continue;
        }
        for (_, item) in tree.fns() {
            if item.in_test {
                continue;
            }
            let dims: Vec<Option<Dim>> = item.params.iter().map(|p| dim_of_name(p)).collect();
            table
                .entry(item.name.as_str())
                .and_modify(|seen| {
                    if seen.as_ref() != Some(&dims) {
                        *seen = None;
                    }
                })
                .or_insert(Some(dims));
        }
    }
    table
        .into_iter()
        .filter_map(|(name, dims)| {
            let dims = dims.filter(|d| d.iter().any(Option::is_some))?;
            Some((name.to_owned(), dims))
        })
        .collect()
}

fn fn_body_text(file: &SourceFile, item: &Item) -> String {
    let (lo, hi) = body_range(item);
    let mut text = String::new();
    for idx in lo..hi.min(file.lines.len()) {
        text.push_str(&file.lines[idx].code);
        text.push('\n');
    }
    text
}

fn push(
    out: &mut Vec<Finding>,
    rule: Rule,
    file: &SourceFile,
    idx: usize,
    token: String,
    message: String,
) {
    out.push(Finding {
        rule,
        file: file.rel_path.clone(),
        line: idx + 1,
        token,
        message,
    });
}

/// unit-flow: the dimension mismatches on one line. Two known,
/// different dimensions meeting in `+`, `-`, `+=`, `-=` or a spaced
/// `<`/`>` (rustfmt spacing keeps generics out); a call argument against
/// the callee's parameter suffix; a suffixed `let` against its
/// initialiser.
fn check_dims(
    file: &SourceFile,
    idx: usize,
    code: &str,
    env: &Env,
    sums: &Sums,
    params: &Params,
    out: &mut Vec<Finding>,
) {
    let dim = |slice: &str| eval_slice(slice, env, sums).dim;
    let b = code.as_bytes();
    for (i, &c) in b.iter().enumerate() {
        let next = b.get(i + 1).copied();
        let operator = match c {
            b'+' | b'-' => next != Some(b'>') && next != Some(b'+'),
            b'<' | b'>' => i > 0 && b[i - 1] == b' ' && matches!(next, Some(b' ' | b'=')),
            _ => false,
        };
        if !operator {
            continue;
        }
        let left = operand_left(code, i);
        let right = operand_right(code, i + 1 + usize::from(next == Some(b'=')));
        if let (Some(l), Some(r)) = (dim(left), dim(right)) {
            if l != r {
                push(
                    out,
                    Rule::UnitFlow,
                    file,
                    idx,
                    format!("{}{}{}", l.label(), c as char, r.label()),
                    format!(
                        "mixed dimensions: `{left}` is {} but `{right}` is {}; rescale \
                         explicitly or move both into a newtype",
                        l.label(),
                        r.label()
                    ),
                );
            }
        }
    }
    let mut ev = Eval::new(code, env, sums);
    for k in 0..ev.toks.len() {
        let t = ev.toks[k];
        if t.kind != TK::Ident || ev.toks.get(k + 1).map(|n| n.kind) != Some(TK::LParen) {
            continue;
        }
        let path = ev.text(t);
        let name = path.rsplit("::").next().unwrap_or(path);
        let method = k > 0 && ev.toks[k - 1].kind == TK::Dot;
        if method && STD_COLLIDING_METHODS.contains(&name) {
            continue;
        }
        let Some(want) = params.get(name) else {
            continue;
        };
        ev.i = k + 2;
        let args = ev.args();
        if args.len() != want.len() {
            continue; // multi-line call, closure argument, or UFCS
        }
        for (n, (arg, want)) in args.iter().zip(want).enumerate() {
            if let (Some(got), Some(want)) = (arg.dim, *want) {
                if got != want {
                    push(
                        out,
                        Rule::UnitFlow,
                        file,
                        idx,
                        format!("call:{name}"),
                        format!(
                            "argument {} of `{name}` carries {} but `{name}` expects {} \
                             there",
                            n + 1,
                            got.label(),
                            want.label()
                        ),
                    );
                }
            }
        }
    }
    if let Some((name, rhs)) = split_let(code) {
        if let (Some(want), Some(got)) = (dim_of_name(name), dim(rhs)) {
            if got != want {
                push(
                    out,
                    Rule::UnitFlow,
                    file,
                    idx,
                    format!("let:{name}"),
                    format!(
                        "`{name}` claims {} by its suffix but its initialiser is {}",
                        want.label(),
                        got.label()
                    ),
                );
            }
        }
    }
}

/// unit-flow: a return or tail expression whose dimension contradicts
/// the fn-name suffix (`fn window_ms() { return limit_s; }`), judged
/// under the environment at its line.
fn check_return_dim(
    file: &SourceFile,
    item: &Item,
    (idx, expr): (usize, &str),
    env: &Env,
    sums: &Sums,
    out: &mut Vec<Finding>,
) {
    let Some(want) = dim_of_name(&item.name) else {
        return;
    };
    if let Some(got) = eval_slice(expr, env, sums).dim {
        if got != want {
            push(
                out,
                Rule::UnitFlow,
                file,
                idx,
                format!("ret:{}", item.name),
                format!(
                    "`{}` promises {} by its suffix but returns a {} value",
                    item.name,
                    want.label(),
                    got.label()
                ),
            );
        }
    }
}

/// arith-safety: division-by-zero freedom.
fn check_divisions(
    file: &SourceFile,
    _item: &Item,
    idx: usize,
    code: &str,
    env: &Env,
    sums: &Sums,
    fn_text: &str,
    out: &mut Vec<Finding>,
) {
    let b = code.as_bytes();
    for (i, &c) in b.iter().enumerate() {
        if c != b'/' {
            continue;
        }
        if i + 1 < b.len() && (b[i + 1] == b'=' || b[i + 1] == b'/') {
            continue;
        }
        if i > 0 && b[i - 1] == b'/' {
            continue;
        }
        let slice = operand_right(code, i + 1);
        if slice.is_empty() {
            continue;
        }
        let dv = eval_slice(slice, env, sums);
        let root = root_ident(slice);
        let zero_point = dv.iv.is_point() && dv.iv.lo.abs() < 1e-12;
        let clamped_to_zero = zero_floor_clamp(slice);
        let may_be_zero = dv.iv.contains_zero() && !dv.iv.is_top();
        if zero_point {
            push(
                out,
                Rule::ArithSafety,
                file,
                idx,
                format!("div {root}"),
                "division by a provably-zero divisor".to_owned(),
            );
        } else if clamped_to_zero {
            push(
                out,
                Rule::ArithSafety,
                file,
                idx,
                format!("div {root}"),
                format!(
                    "divisor `{slice}` is clamped with a zero floor, so zero is \
                     reachable; raise the floor or use ff_base::checked::ratio"
                ),
            );
        } else if may_be_zero && !guarded(fn_text, root) {
            push(
                out,
                Rule::ArithSafety,
                file,
                idx,
                format!("div {root}"),
                format!(
                    "divisor `{slice}` has interval {} which contains zero and no \
                     zero-guard is visible; guard it or use ff_base::checked::ratio",
                    dv.iv
                ),
            );
        }
    }
}

/// arith-safety: lossy `as` casts.
fn check_casts(
    file: &SourceFile,
    idx: usize,
    code: &str,
    env: &Env,
    sums: &Sums,
    out: &mut Vec<Finding>,
) {
    let mut search = 0;
    while let Some(rel) = code.get(search..).and_then(|r| r.find(" as ")) {
        let pos = search + rel;
        search = pos + 4;
        let target: String = code
            .get(pos + 4..)
            .unwrap_or("")
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric())
            .collect();
        if !INT_TARGETS.contains(&target.as_str()) {
            continue;
        }
        let operand = operand_left(code, pos);
        if operand.is_empty() {
            continue;
        }
        let ov = eval_slice(operand, env, sums);
        if ov.floaty {
            push(
                out,
                Rule::ArithSafety,
                file,
                idx,
                format!("as {target} (float)"),
                format!(
                    "float-valued `{operand}` truncated by `as {target}`; use \
                     ff_base::checked::f64_to_u64 (or round explicitly)"
                ),
            );
            continue;
        }
        for (name, lo, hi) in NARROW_TARGETS {
            if name == target && !(ov.iv.lo >= lo && ov.iv.hi <= hi) {
                push(
                    out,
                    Rule::ArithSafety,
                    file,
                    idx,
                    format!("as {target}"),
                    format!(
                        "`{operand}` (interval {}) is not proven to fit `{target}`; \
                         use ff_base::checked::u64_to_u32 or a checked conversion",
                        ov.iv
                    ),
                );
            }
        }
    }
}

/// arith-safety: unchecked arithmetic on `_bytes`/`_us`-style counters.
fn check_counters(file: &SourceFile, idx: usize, code: &str, out: &mut Vec<Finding>) {
    if let Some((lhs, op, _rhs)) = split_compound(code) {
        let seg = last_segment(lhs);
        let counter = dim_of_name(seg).is_some_and(Dim::is_counter);
        if counter && !code.contains("saturating") {
            push(
                out,
                Rule::ArithSafety,
                file,
                idx,
                format!("{seg} {}=", op as char),
                format!(
                    "unchecked `{}=` on counter `{seg}`; prefer saturating_add or \
                     an ff_base::checked helper",
                    op as char
                ),
            );
        }
    }
    // Binary `a + b` / `a * b` with *both* operands dimension-suffixed
    // counters of the same dimension (mixed dimensions are unit-flow's
    // finding, not ours).
    let b = code.as_bytes();
    for (i, &c) in b.iter().enumerate() {
        if c != b'+' && c != b'*' {
            continue;
        }
        if i == 0 || i + 1 >= b.len() || b[i - 1] != b' ' || b[i + 1] != b' ' {
            continue;
        }
        let left = path_before(code, i - 1);
        let right = path_after(code, i + 1);
        let (Some(ld), Some(rd)) = (
            dim_of_name(last_segment(left)),
            dim_of_name(last_segment(right)),
        ) else {
            continue;
        };
        if ld == rd && ld.is_counter() {
            push(
                out,
                Rule::ArithSafety,
                file,
                idx,
                format!("{left} {} {right}", c as char),
                format!(
                    "unchecked `{}` on counters `{left}` and `{right}`; prefer \
                     saturating arithmetic",
                    c as char
                ),
            );
        }
    }
}

/// The `.`-separated ident path ending at byte `end` (exclusive).
fn path_before(code: &str, end: usize) -> &str {
    let b = code.as_bytes();
    let mut i = end;
    while i > 0 && b[i - 1] == b' ' {
        i -= 1;
    }
    let stop = i;
    while i > 0 && (is_ident_byte(b[i - 1]) || b[i - 1] == b'.') {
        i -= 1;
    }
    code.get(i..stop).unwrap_or("").trim_matches('.')
}

/// The `.`-separated ident path starting at byte `start`.
fn path_after(code: &str, start: usize) -> &str {
    let b = code.as_bytes();
    let mut i = start;
    while i < b.len() && b[i] == b' ' {
        i += 1;
    }
    let begin = i;
    while i < b.len() && (is_ident_byte(b[i]) || b[i] == b'.') {
        i += 1;
    }
    code.get(begin..i).unwrap_or("").trim_matches('.')
}

/// energy-bounds: per-line accumulator checks.
fn check_energy_line(
    file: &SourceFile,
    idx: usize,
    code: &str,
    env: &Env,
    sums: &Sums,
    out: &mut Vec<Finding>,
) {
    if let Some((lhs, op, rhs)) = split_compound(code) {
        let seg = last_segment(lhs);
        if dim_of_name(seg) == Some(Dim::Joules) {
            if op == b'-' {
                push(
                    out,
                    Rule::EnergyBounds,
                    file,
                    idx,
                    format!("{seg} -="),
                    format!(
                        "energy accumulator `{seg}` is decremented; energy spent \
                         is monotone non-decreasing in this model"
                    ),
                );
            } else if op == b'+' {
                let rv = eval_slice(rhs, env, sums);
                if rv.iv.hi <= 0.0 {
                    push(
                        out,
                        Rule::EnergyBounds,
                        file,
                        idx,
                        format!("{seg} += nonpos"),
                        format!(
                            "`{rhs}` has interval {} (provably non-positive); an \
                             energy accumulation must add a non-negative quantity",
                            rv.iv
                        ),
                    );
                }
            }
        }
    }
    if code.contains("Joules(") {
        for arg in call_args(code, "Joules(") {
            let av = eval_slice(&arg, env, sums);
            if av.iv.is_neg() {
                push(
                    out,
                    Rule::EnergyBounds,
                    file,
                    idx,
                    "Joules(neg)".to_owned(),
                    format!(
                        "`Joules({arg})` constructs a provably-negative energy \
                         (interval {})",
                        av.iv
                    ),
                );
            }
        }
    }
}

/// energy-bounds: battery drain functions must be monotone — no
/// subtraction anywhere in an energy-returning `*drain*` body.
fn check_drain_fn(file: &SourceFile, item: &Item, out: &mut Vec<Finding>) {
    if !item.name.contains("drain") {
        return;
    }
    let sig = &item.signature;
    if !sig.contains("-> Joules") && !sig.contains("-> f64") {
        return;
    }
    let (lo, hi) = body_range(item);
    for idx in lo..hi.min(file.lines.len()) {
        let line = &file.lines[idx];
        if line.in_test {
            continue;
        }
        if line.code.contains(" - ") {
            push(
                out,
                Rule::EnergyBounds,
                file,
                idx,
                format!("{} -", item.name),
                format!(
                    "subtraction inside drain function `{}`; battery drain must \
                     be a monotone sum of non-negative terms",
                    item.name
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------
// timeout-order
// ---------------------------------------------------------------------

/// Recompute T_breakeven from the constant registry and prove the §3
/// ordering `0 < T_breakeven < DISK_TIMEOUT_S < retry-clamp ceiling`,
/// plus `WNIC_PSM_TIMEOUT < T_breakeven` and ladder clamping.
fn timeout_order(sources: &[SourceFile], ctab: &BTreeMap<String, f64>) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some(registry) = sources.iter().find(|f| f.rel_path == consts::REGISTRY_PATH) else {
        return out;
    };
    let anchor = |name: &str| -> usize {
        registry
            .lines
            .iter()
            .position(|l| l.code.contains(name))
            .map(|i| i + 1)
            .unwrap_or(1)
    };
    let mut fail = |line: usize, token: &str, message: String| {
        out.push(Finding {
            rule: Rule::TimeoutOrder,
            file: consts::REGISTRY_PATH.to_owned(),
            line,
            token: token.to_owned(),
            message,
        });
    };
    let needed = [
        "DISK_IDLE_POWER_W",
        "DISK_SPINDOWN_ENERGY_J",
        "DISK_SPINDOWN_TIME_MS",
        "DISK_SPINUP_ENERGY_J",
        "DISK_SPINUP_TIME_MS",
        "DISK_STANDBY_POWER_W",
        "DISK_TIMEOUT_S",
        "WNIC_PSM_TIMEOUT_MS",
    ];
    let mut vals = BTreeMap::new();
    for name in needed {
        match ctab.get(name) {
            Some(v) => {
                vals.insert(name, Interval::point(*v));
            }
            None => {
                fail(
                    1,
                    &format!("missing {name}"),
                    format!("constant registry lacks `{name}`; T_breakeven unprovable"),
                );
            }
        }
    }
    if vals.len() < needed.len() {
        return out;
    }
    let get = |n: &str| vals.get(n).copied().unwrap_or(Interval::TOP);
    let ms = Interval::point(1000.0);
    let trans = get("DISK_SPINUP_TIME_MS")
        .add(get("DISK_SPINDOWN_TIME_MS"))
        .div(ms);
    let denom = get("DISK_IDLE_POWER_W").sub(get("DISK_STANDBY_POWER_W"));
    if !denom.is_pos() {
        fail(
            anchor("DISK_IDLE_POWER_W"),
            "breakeven-undefined",
            format!(
                "idle - standby power has interval {denom}; T_breakeven is \
                 undefined unless idle draw exceeds standby draw"
            ),
        );
        return out;
    }
    let transition_cost = get("DISK_SPINUP_ENERGY_J")
        .add(get("DISK_SPINDOWN_ENERGY_J"))
        .sub(get("DISK_STANDBY_POWER_W").mul(trans));
    let breakeven = transition_cost.div(denom).max_op(trans);
    let timeout = get("DISK_TIMEOUT_S");
    if !breakeven.is_pos() {
        fail(
            anchor("DISK_SPINUP_ENERGY_J"),
            "breakeven-nonpositive",
            format!("T_breakeven interval {breakeven} is not provably positive"),
        );
    }
    if !(breakeven.hi < timeout.lo) {
        fail(
            anchor("DISK_TIMEOUT_S"),
            "breakeven-vs-timeout",
            format!(
                "cannot prove T_breakeven {breakeven} < disk idle timeout \
                 {timeout}: spinning down at the timeout would waste energy"
            ),
        );
    }
    let psm = get("WNIC_PSM_TIMEOUT_MS").div(ms);
    if !(psm.hi < breakeven.lo) {
        fail(
            anchor("WNIC_PSM_TIMEOUT_MS"),
            "psm-vs-breakeven",
            format!(
                "cannot prove WNIC PSM timeout {psm} s < disk T_breakeven \
                 {breakeven}: the CAM->PSM knee must sit below the disk knee"
            ),
        );
    }
    out.extend(ladder_checks(sources, timeout));
    out
}

/// Statically bound the outage-retry ladder: the base backoff from
/// `RetryPolicy::default`, every backoff shift `.min(..)`-clamped, and
/// `DISK_TIMEOUT_S` strictly below the clamp ceiling `backoff * 2^K`.
fn ladder_checks(sources: &[SourceFile], disk_timeout: Interval) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut backoff_ms: Option<f64> = None;
    let mut backoff_site = (String::new(), 1usize);
    let mut clamp_exp: Option<f64> = None;
    for file in sources {
        if file.crate_name != "ff-sim" || file.kind != FileKind::Lib {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let code = &line.code;
            if backoff_ms.is_none() && file.rel_path.ends_with("faults.rs") {
                // `backoff: Dur::from_millis(N)` inside the Default impl.
                if code.trim_start().starts_with("backoff:") {
                    for (needle, scale) in [("Dur::from_millis(", 1.0), ("Dur::from_secs(", 1000.0)]
                    {
                        if let Some(arg) = call_args(code, needle).first() {
                            if let Some(v) = parse_num(arg) {
                                backoff_ms = Some(v * scale);
                                backoff_site = (file.rel_path.clone(), idx + 1);
                            }
                        }
                    }
                }
            }
            if code.contains("<<") && code.contains("backoff") {
                match call_args(code, ".min(").first().and_then(|a| parse_num(a)) {
                    Some(k) => {
                        clamp_exp = Some(clamp_exp.map_or(k, |e: f64| e.max(k)));
                    }
                    None => {
                        out.push(Finding {
                            rule: Rule::TimeoutOrder,
                            file: file.rel_path.clone(),
                            line: idx + 1,
                            token: "ladder-unclamped".to_owned(),
                            message: "backoff shift without a `.min(..)` clamp: the \
                                      retry ladder is unbounded"
                                .to_owned(),
                        });
                    }
                }
            }
        }
    }
    let (Some(base_ms), Some(k)) = (backoff_ms, clamp_exp) else {
        return out;
    };
    let ceiling_s = Interval::point(base_ms / 1000.0).mul(shl_pow(k));
    if !(disk_timeout.hi < ceiling_s.lo) {
        out.push(Finding {
            rule: Rule::TimeoutOrder,
            file: backoff_site.0.clone(),
            line: backoff_site.1,
            token: "timeout-vs-ceiling".to_owned(),
            message: format!(
                "cannot prove disk idle timeout {disk_timeout} s < outage-retry \
                 clamp ceiling {ceiling_s} s (base backoff x 2^{k}); the ladder \
                 must outlast the device timeout ordering"
            ),
        });
    }
    let base_us = base_ms * 1000.0;
    if base_us * (2.0_f64).powi(k as i32) > u64::MAX as f64 {
        out.push(Finding {
            rule: Rule::TimeoutOrder,
            file: backoff_site.0,
            line: backoff_site.1,
            token: "ladder-overflow".to_owned(),
            message: format!("backoff * 2^{k} overflows the u64 microsecond ladder arithmetic"),
        });
    }
    out
}

fn shl_pow(k: f64) -> Interval {
    if !k.is_finite() || k > 63.0 || k < 0.0 {
        Interval::NON_NEG
    } else {
        Interval::point((2.0_f64).powi(k as i32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::preprocess;

    fn env_of(pairs: &[(&str, f64)]) -> Env {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), AbsVal::point(*v, false)))
            .collect()
    }

    #[test]
    fn evaluator_handles_arithmetic_and_methods() {
        let env = env_of(&[("a", 3.0), ("b", 4.0)]);
        let sums = Sums::new();
        let v = eval_slice("a + b * 2", &env, &sums);
        assert_eq!(v.iv, Interval::point(11.0));
        let v = eval_slice("(a - b).abs()", &env, &sums);
        assert_eq!(v.iv, Interval::point(1.0));
        let v = eval_slice("a.max(10)", &env, &sums);
        assert_eq!(v.iv, Interval::point(10.0));
        let v = eval_slice("1u64 << 16", &env, &sums);
        assert_eq!(v.iv, Interval::point(65536.0));
    }

    #[test]
    fn suffixed_idents_are_nonneg_counters() {
        let env = Env::new();
        let sums = Sums::new();
        let v = eval_slice("total_bytes", &env, &sums);
        assert!(v.iv.is_nonneg() && !v.iv.is_top());
        assert_eq!(v.dim, Some(Dim::Bytes));
        let v = eval_slice("-span_us", &env, &sums);
        assert!(v.iv.hi <= 0.0);
    }

    #[test]
    fn operand_extraction_brackets_the_right_slices() {
        let code = "let r = total_bytes / trace.len().max(1) as u64;";
        let pos = code.find('/').expect("slash");
        assert_eq!(operand_right(code, pos + 1), "trace.len().max(1) as u64");
        let cast = code.find(" as ").expect("cast");
        assert_eq!(operand_left(code, cast), "trace.len().max(1)");
        assert_eq!(root_ident("trace.len() as u64"), "trace");
        assert_eq!(root_ident("self.total_bytes as f64"), "total_bytes");
    }

    const X: &str = "crates/ff-sim/src/x.rs";

    /// A library file at `path`, its crate taken from the path.
    fn lib_file(path: &str, src: &str) -> SourceFile {
        SourceFile {
            rel_path: path.to_owned(),
            crate_name: path.split('/').nth(1).unwrap_or("ff-sim").to_owned(),
            kind: FileKind::Lib,
            lines: preprocess(src),
        }
    }

    /// Every finding over a set of `(path, source)` library files.
    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let sources: Vec<SourceFile> = files.iter().map(|(p, src)| lib_file(p, src)).collect();
        let trees = items::build(&sources);
        analyze(&sources, &trees)
    }

    #[test]
    fn division_by_unguarded_counter_is_flagged() {
        let bad = run(&[(X, "pub fn f(n_bytes: u64, total: u64) -> f64 {\n    let r = 1.0;\n    r / n_bytes as f64\n}\n")]);
        assert!(bad.iter().any(|f| f.rule == Rule::ArithSafety));
        let guarded = run(&[(X, "pub fn f(n_bytes: u64) -> f64 {\n    if n_bytes == 0 {\n        return 0.0;\n    }\n    1.0 / n_bytes as f64\n}\n")]);
        assert!(guarded.is_empty(), "{guarded:?}");
        let clamped = run(&[(
            X,
            "pub fn f(n_bytes: u64) -> f64 {\n    1.0 / n_bytes.max(1) as f64\n}\n",
        )]);
        assert!(clamped.is_empty(), "{clamped:?}");
    }

    #[test]
    fn zero_floor_clamp_is_always_flagged() {
        let bad = run(&[(
            X,
            "pub fn f(xs: &[u64]) -> u64 {\n    let d = 100;\n    d / xs.len().max(0) as u64\n}\n",
        )]);
        assert!(bad
            .iter()
            .any(|f| f.rule == Rule::ArithSafety && f.token.contains("div")));
    }

    #[test]
    fn narrowing_and_float_casts_are_flagged() {
        let bad = run(&[(X, "pub fn f(x: u64) -> u32 {\n    x as u32\n}\n")]);
        assert!(bad.iter().any(|f| f.token == "as u32"));
        let ok = run(&[(X, "pub fn f(x: u64) -> u32 {\n    (x % 100) as u32\n}\n")]);
        assert!(ok.is_empty(), "{ok:?}");
        let trunc = run(&[(X, "pub fn f(b: f64) -> u64 {\n    (b * 1000.0) as u64\n}\n")]);
        assert!(trunc.iter().any(|f| f.token == "as u64 (float)"));
    }

    #[test]
    fn counter_arithmetic_wants_saturation() {
        let bad = run(&[(
            X,
            "pub fn f(&mut self, n_bytes: u64) {\n    self.total_bytes += n_bytes;\n}\n",
        )]);
        assert!(bad.iter().any(|f| f.token == "total_bytes +="));
        let ok = run(&[(X, "pub fn f(&mut self, n_bytes: u64) {\n    self.total_bytes = self.total_bytes.saturating_add(n_bytes);\n}\n")]);
        assert!(ok.is_empty(), "{ok:?}");
        let bin = run(&[(X, "pub fn f(a_bytes: u64, b_bytes: u64) -> u64 {\n    let t = a_bytes + b_bytes;\n    t\n}\n")]);
        assert!(bin.iter().any(|f| f.token.contains("a_bytes + b_bytes")));
    }

    #[test]
    fn energy_rules_catch_decrement_and_negative_add() {
        let dec = run(&[(
            X,
            "pub fn f(&mut self) {\n    self.request_energy -= 1.0;\n}\n",
        )]);
        assert!(dec.iter().any(|f| f.rule == Rule::EnergyBounds));
        let neg = run(&[(
            X,
            "pub fn f(&mut self, out_j: f64) {\n    self.request_energy += -out_j;\n}\n",
        )]);
        assert!(neg
            .iter()
            .any(|f| f.rule == Rule::EnergyBounds && f.token.contains("nonpos")));
        let ok = run(&[(
            X,
            "pub fn f(&mut self, out_j: f64) {\n    self.request_energy += out_j;\n}\n",
        )]);
        assert!(ok.iter().all(|f| f.rule != Rule::EnergyBounds), "{ok:?}");
    }

    #[test]
    fn drain_functions_must_be_monotone() {
        let bad = run(&[(
            X,
            "pub fn task_drain(&self) -> Joules {\n    self.total() - self.base\n}\n",
        )]);
        assert!(bad.iter().any(|f| f.token == "task_drain -"));
        let ok = run(&[(
            X,
            "pub fn task_drain(&self) -> Joules {\n    self.total() + self.base\n}\n",
        )]);
        assert!(ok.iter().all(|f| f.rule != Rule::EnergyBounds));
    }

    #[test]
    fn unit_flow_reports_each_mismatch_exactly_once() {
        const A: &str = "crates/ff-sim/src/a.rs";
        type Case = (
            &'static str,
            &'static [(&'static str, &'static str)],
            &'static [(&'static str, usize)],
        );
        let cases: [Case; 20] = [
            (
                "mixed addition",
                &[(A, "fn f(start_us: u64, budget_s: u64) -> u64 {\n    start_us + budget_s\n}\n")],
                &[("us+s", 2)],
            ),
            (
                "consistent units",
                &[(A, "fn f(start_us: u64, dur_us: u64) -> u64 {\n    start_us + dur_us\n}\n")],
                &[],
            ),
            (
                "let binding propagates the unit",
                &[(A, "fn f(start_us: u64, end_s: u64) -> u64 {\n    let begin = start_us;\n    begin + end_s\n}\n")],
                &[("us+s", 3)],
            ),
            (
                "division rescales",
                &[(A, "fn f(start_us: u64, end_s: u64) -> u64 {\n    let begin = start_us / 1_000_000;\n    begin + end_s\n}\n")],
                &[],
            ),
            (
                "accessor calls carry units",
                &[(A, "fn f(d: Dur, start_us: u64) -> f64 {\n    d.as_secs_f64() + start_us\n}\n")],
                &[("s+us", 2)],
            ),
            (
                "cross-file call argument",
                &[
                    (A, "pub fn caller(deadline_s: u64) {\n    record(deadline_s, 4)\n}\n"),
                    ("crates/ff-sim/src/b.rs", "pub fn record(ts_us: u64, n: u64) {\n    let _ = (ts_us, n);\n}\n"),
                ],
                &[("call:record", 2)],
            ),
            (
                "comparison between units",
                &[(A, "fn f(t_us: u64, limit_ms: u64) -> bool {\n    t_us < limit_ms\n}\n")],
                &[("us<ms", 2)],
            ),
            (
                "generics are not comparisons",
                &[(A, "fn f(xs_us: Vec<u64>, cap_ms: u64) -> Vec<u64> {\n    let v: Vec<u64> = xs_us;\n    v\n}\n")],
                &[],
            ),
            (
                "return dimension flows into arithmetic",
                &[(A, "pub fn beacon_interval_ms() -> u64 {\n    100\n}\n\
                       pub fn next_wake(now_us: u64) -> u64 {\n    let gap = beacon_interval_ms();\n    now_us + gap\n}\n")],
                &[("us+ms", 6)],
            ),
            (
                "return dimension flows into call arguments",
                &[(A, "pub fn last_beacon_ms() -> u64 {\n    7\n}\n\
                       pub fn push_us(ts_us: u64) {\n    let _ = ts_us;\n}\n\
                       pub fn flush() {\n    let stamp = last_beacon_ms();\n    push_us(stamp);\n}\n")],
                &[("call:push_us", 9)],
            ),
            (
                "inferred tail return propagates",
                &[(A, "fn gap(step_ms: u64) -> u64 {\n    step_ms\n}\n\
                       pub fn f(now_us: u64) -> u64 {\n    now_us + gap(3)\n}\n")],
                &[("us+ms", 5)],
            ),
            (
                "suffixed let contradicting a call",
                &[(A, "pub fn deadline_us() -> u64 {\n    9\n}\n\
                       pub fn f() {\n    let wake_ms = deadline_us();\n    let _ = wake_ms;\n}\n")],
                &[("let:wake_ms", 5)],
            ),
            (
                "joules against time",
                &[(A, "pub fn f(total_j: f64, t_us: f64) -> f64 {\n    total_j + t_us\n}\n")],
                &[("j+us", 2)],
            ),
            (
                "local time mismatch",
                &[(A, "pub fn f(start_us: u64, budget_s: u64) -> u64 {\n    start_us + budget_s\n}\n")],
                &[("us+s", 2)],
            ),
            (
                "method call resolves across crates",
                &[
                    ("crates/ff-device/src/a.rs", "pub struct Meter;\n\
                      impl Meter {\n    pub fn push_us(&mut self, ts_us: u64) {\n        let _ = ts_us;\n    }\n}\n"),
                    ("crates/ff-sim/src/b.rs", "pub fn last_beacon_ms() -> u64 {\n    5\n}\n\
                      pub fn flush(m: &mut Meter) {\n    let stamp = last_beacon_ms();\n    m.push_us(stamp);\n}\n"),
                ],
                &[("call:push_us", 6)],
            ),
            (
                "multiplication rescales a call result",
                &[(A, "pub fn beacon_interval_ms() -> u64 {\n    100\n}\n\
                       pub fn next_wake(now_us: u64) -> u64 {\n    let gap_us = beacon_interval_ms() * 1_000;\n    now_us + gap_us\n}\n")],
                &[],
            ),
            (
                "return contradicting the fn-name suffix",
                &[(A, "pub fn window_ms(limit_s: u64) -> u64 {\n    return limit_s;\n}\n")],
                &[("ret:window_ms", 2)],
            ),
            (
                "same-name methods that disagree are not judged",
                &[(A, "pub struct A;\nimpl A {\n    pub fn record(&self, t_us: u64) {\n        let _ = t_us;\n    }\n}\n\
                       pub struct B;\nimpl B {\n    pub fn record(&self, t_ms: u64) {\n        let _ = t_ms;\n    }\n}\n\
                       pub fn f(b: &B, x_s: u64) {\n    b.record(x_s);\n}\n")],
                &[],
            ),
            (
                "return dimension climbs a two-level helper chain",
                &[(A, "pub fn c_ms() -> u64 {\n    5\n}\npub fn b() -> u64 {\n    c_ms()\n}\n\
                       pub fn a() -> u64 {\n    b()\n}\npub fn f(now_us: u64) -> u64 {\n    now_us + a()\n}\n")],
                &[("us+ms", 11)],
            ),
            (
                "early return judged under the environment at its line",
                &[(A, "pub fn pick_ms(x_ms: u64, y_s: u64) -> u64 {\n    let v = x_ms;\n    if x_ms > 5 {\n        \
                       return v;\n    }\n    let v = y_s;\n    v\n}\n")],
                &[("ret:pick_ms", 7)],
            ),
        ];
        let unit_flow = |files: &[(&str, &str)]| -> Vec<Finding> {
            let mut found: Vec<Finding> = run(files)
                .into_iter()
                .filter(|f| f.rule == Rule::UnitFlow)
                .collect();
            found.sort_by(|a, b| (a.line, &a.token).cmp(&(b.line, &b.token)));
            found
        };
        for (what, files, want) in cases {
            let found = unit_flow(files);
            let got: Vec<(&str, usize)> =
                found.iter().map(|f| (f.token.as_str(), f.line)).collect();
            assert_eq!(got, want, "{what}: {found:?}");
        }
        let call = unit_flow(cases[5].1);
        assert!(
            call[0].message.contains("expects us"),
            "{}",
            call[0].message
        );
    }

    #[test]
    fn summaries_resolve_bare_calls_in_two_rounds() {
        let src =
            "pub fn base() -> f64 {\n    7.0\n}\npub fn scaled() -> f64 {\n    base() * 3.0\n}\n";
        let sources = vec![lib_file(X, src)];
        let sums = fn_summaries(&sources);
        assert_eq!(
            sums.get("ff-sim::base").copied(),
            Some(Interval::point(7.0))
        );
        assert_eq!(
            sums.get("ff-sim::scaled").copied(),
            Some(Interval::point(21.0))
        );
    }
}
