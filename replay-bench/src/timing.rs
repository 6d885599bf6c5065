//! Timing decorators for the traced run. They time calls into the
//! layers' public interfaces from outside: a `Policy` wrapper installed
//! through `Simulation::policy_boxed` and a `Recorder` wrapper passed to
//! `Simulation::run_recorded`. Both forward every trait method, so a
//! traced replay produces the same report as an untraced one.

use ff_base::{Dur, Result, SimTime};
use ff_device::ServiceOutcome;
use ff_policy::{AppRequest, FaultNotice, Policy, PolicyCtx, Source, StageReport};
use ff_profile::Profile;
use ff_sim::record::Event;
use ff_sim::{Recorder, SimReport, Simulation};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Host time and call count at one boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Nanoseconds spent inside the calls.
    pub ns: u64,
    /// Calls made.
    pub calls: u64,
}

impl Span {
    fn add(&mut self, d: Duration) {
        self.ns += u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.calls += 1;
    }

    /// Both spans together.
    pub fn plus(self, other: Span) -> Span {
        Span {
            ns: self.ns + other.ns,
            calls: self.calls + other.calls,
        }
    }

    /// Mean nanoseconds per call (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// The timed `Policy` hooks. `name` and `disk_timeout_override` are
/// forwarded but not timed: they are read-only lookups.
#[derive(Debug, Clone, Copy)]
pub enum Hook {
    /// `Policy::select`, once per routed request.
    Select,
    /// `Policy::observe`, once per application call.
    Observe,
    /// `Policy::on_external_disk`.
    ExternalDisk,
    /// `Policy::on_stage_end`.
    StageEnd,
    /// `Policy::on_fault`.
    Fault,
    /// `Policy::inject_profile`.
    InjectProfile,
    /// `Policy::recorded_profile`.
    RecordedProfile,
    /// `Policy::take_decision_log`.
    DecisionLog,
}

const HOOKS: usize = 8;

/// Per-layer host time accumulated over the traced replays.
#[derive(Debug, Default)]
pub struct Tally {
    policy: Rc<RefCell<[Span; HOOKS]>>,
    record: Cell<Span>,
    run: Cell<Span>,
    jsonl: Cell<Span>,
    jsonl_bytes: Cell<u64>,
    summary: Cell<Span>,
}

impl Tally {
    /// Wrap `inner` in a timing decorator that reports into this tally.
    pub fn wrap(&self, inner: Box<dyn Policy>) -> Box<dyn Policy> {
        Box::new(TimedPolicy {
            inner,
            spans: Rc::clone(&self.policy),
        })
    }

    /// Run `sim` with `recorder` behind a timing decorator, timing the
    /// whole `run_recorded` call as well.
    pub fn run(&self, sim: Simulation<'_>, recorder: &mut dyn Recorder) -> Result<SimReport> {
        let mut timed = TimedRecorder {
            inner: recorder,
            span: Span::default(),
        };
        let t0 = Instant::now();
        let report = sim.run_recorded(&mut timed);
        bump(&self.run, t0.elapsed());
        self.record.set(self.record.get().plus(timed.span));
        report
    }

    /// Add one cell's JSONL serialisation and summary time.
    pub fn add_export(&self, jsonl: Duration, jsonl_bytes: u64, summary: Duration) {
        bump(&self.jsonl, jsonl);
        self.jsonl_bytes.set(self.jsonl_bytes.get() + jsonl_bytes);
        bump(&self.summary, summary);
    }

    /// Time and calls of one policy hook.
    pub fn hook(&self, hook: Hook) -> Span {
        self.policy.borrow()[hook as usize]
    }

    /// Time spent in every timed policy hook together.
    pub fn policy_ns(&self) -> u64 {
        self.policy.borrow().iter().map(|s| s.ns).sum()
    }

    /// Time and calls of `Recorder::record`.
    pub fn record(&self) -> Span {
        self.record.get()
    }

    /// Time spent inside `Simulation::run_recorded`, one call per replay.
    pub fn run_span(&self) -> Span {
        self.run.get()
    }

    /// `EventLog::to_jsonl` time, one call per exported cell.
    pub fn jsonl(&self) -> Span {
        self.jsonl.get()
    }

    /// JSONL bytes written.
    pub fn jsonl_bytes(&self) -> u64 {
        self.jsonl_bytes.get()
    }

    /// `summary_json` plus pretty-printing time, one call per exported cell.
    pub fn summary(&self) -> Span {
        self.summary.get()
    }
}

fn bump(cell: &Cell<Span>, d: Duration) {
    let mut s = cell.get();
    s.add(d);
    cell.set(s);
}

/// Forwards all ten `Policy` methods to `inner`, timing the eight that
/// can do work.
struct TimedPolicy {
    inner: Box<dyn Policy>,
    spans: Rc<RefCell<[Span; HOOKS]>>,
}

impl TimedPolicy {
    fn time<R>(&mut self, hook: Hook, f: impl FnOnce(&mut dyn Policy) -> R) -> R {
        let t0 = Instant::now();
        let r = f(self.inner.as_mut());
        self.spans.borrow_mut()[hook as usize].add(t0.elapsed());
        r
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(&mut self, ctx: &PolicyCtx<'_>, req: &AppRequest) -> Source {
        self.time(Hook::Select, |p| p.select(ctx, req))
    }

    fn observe(
        &mut self,
        ctx: &PolicyCtx<'_>,
        req: &AppRequest,
        source: Option<Source>,
        outcome: &ServiceOutcome,
    ) {
        self.time(Hook::Observe, |p| p.observe(ctx, req, source, outcome))
    }

    fn on_external_disk(&mut self, now: SimTime) {
        self.time(Hook::ExternalDisk, |p| p.on_external_disk(now))
    }

    fn on_stage_end(&mut self, ctx: &PolicyCtx<'_>, report: &StageReport) {
        self.time(Hook::StageEnd, |p| p.on_stage_end(ctx, report))
    }

    fn on_fault(&mut self, ctx: &PolicyCtx<'_>, notice: FaultNotice) {
        self.time(Hook::Fault, |p| p.on_fault(ctx, notice))
    }

    fn inject_profile(&mut self, ctx: &PolicyCtx<'_>, profile: Profile) {
        self.time(Hook::InjectProfile, |p| p.inject_profile(ctx, profile))
    }

    fn recorded_profile(&mut self) -> Option<Profile> {
        self.time(Hook::RecordedProfile, |p| p.recorded_profile())
    }

    fn disk_timeout_override(&self) -> Option<Dur> {
        self.inner.disk_timeout_override()
    }

    fn take_decision_log(&mut self) -> Vec<(SimTime, Source, &'static str)> {
        self.time(Hook::DecisionLog, |p| p.take_decision_log())
    }
}

/// Forwards `record` and `enabled` to `inner`, timing `record`.
struct TimedRecorder<'a> {
    inner: &'a mut dyn Recorder,
    span: Span,
}

impl Recorder for TimedRecorder<'_> {
    fn record(&mut self, event: &Event) {
        let t0 = Instant::now();
        self.inner.record(event);
        self.span.add(t0.elapsed());
    }

    fn enabled(&self) -> bool {
        self.inner.enabled()
    }
}
