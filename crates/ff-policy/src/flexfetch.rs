//! The FlexFetch policy (§2.2–2.3).
//!
//! Per evaluation stage, the policy estimates `(T, E)` for servicing the
//! stage's profiled bursts on each device (starting from the devices'
//! *current* power states) and applies the §2.2 rules. With
//! `adaptive = true` it additionally implements every §2.3 mechanism:
//!
//! * **profile splicing & re-evaluation** (§2.3.1) — whenever the bytes
//!   observed this run pass the bytes of the first *N* profiled bursts,
//!   the observed prefix replaces those bursts and the rules re-run on
//!   the assembled profile's upcoming stage;
//! * **stage-end audit** (§2.3.1) — at each stage boundary, the measured
//!   energy of the chosen device is compared against the estimated cost
//!   of the alternative on the *observed* bursts; if the alternative was
//!   cheaper, the next stage uses it, disregarding the profile;
//! * **cache filtering** (§2.3.2) — profiled requests resident in the
//!   buffer cache are removed before estimation;
//! * **free riding** (§2.3.3) — while non-profiled programs keep the disk
//!   spinning (external request intervals below the spin-down timeout),
//!   requests ride the disk for free.
//!
//! With `adaptive = false` the policy is the paper's **FlexFetch-static**
//! strawman: it trusts the recorded profile stage by stage and never
//! corrects course.

use crate::rules::decide;
use crate::source::{AppRequest, FaultNotice, Policy, PolicyCtx, Source, StageReport};
use ff_base::{Bytes, Dur, SimTime};
use ff_device::ServiceOutcome;
use ff_profile::{
    burst::OnlineBurstBuilder, estimate::filter_resident, first_stage_len, BurstExtractor,
    Estimator, Profile, ProfiledBurst,
};

/// FlexFetch tuning.
#[derive(Debug, Clone)]
pub struct FlexFetchConfig {
    /// Maximum tolerable I/O performance loss (§2.2; experiments: 25 %).
    pub loss_rate: f64,
    /// Evaluation-stage length (§2.2; experiments: 40 s).
    pub stage_len: Dur,
    /// Enable the §2.3 run-time adaptation. `false` = FlexFetch-static.
    pub adaptive: bool,
    /// Hysteresis for the stage-end audit: the alternative must beat the
    /// measured cost by this relative margin before the decision flips.
    /// Damps flapping when the two options are within estimation noise
    /// (each flap costs a spin-up/spin-down round trip).
    pub audit_margin: f64,
    /// Burst extraction parameters for the on-line profiler.
    pub extractor: BurstExtractor,
}

impl Default for FlexFetchConfig {
    fn default() -> Self {
        FlexFetchConfig {
            loss_rate: 0.25,
            stage_len: Dur::from_secs(40),
            adaptive: true,
            audit_margin: 0.10,
            extractor: BurstExtractor::default(),
        }
    }
}

/// The history-aware, environment-adaptive data-source selector.
#[derive(Debug, Clone)]
pub struct FlexFetch {
    config: FlexFetchConfig,
    /// The profile recorded in a prior run (may be empty on first run).
    old_profile: Profile,
    /// On-line profiler for the current run.
    online: OnlineBurstBuilder,
    /// Closed bursts observed so far this run.
    observed: Vec<ProfiledBurst>,
    /// Bytes requested so far this run (the §2.3.1 splice trigger).
    seen: Bytes,
    /// Current stage decision.
    current: Source,
    /// Whether the initial decision has been made.
    decided: bool,
    /// Last re-evaluation's N (bursts of the old profile covered).
    last_n: usize,
    /// Stage ordinal.
    stage_index: usize,
    /// Set when the stage-end audit overrides the profile for one stage.
    forced: Option<Source>,
    /// Timestamps of the last two external (non-profiled) disk uses.
    last_external: Option<SimTime>,
    prev_external: Option<SimTime>,
    /// Decision history: `(when, what, why)` — inspection/report hook.
    log: Vec<(SimTime, Source, &'static str)>,
    /// Whether any decision was ever logged. Kept separate from
    /// `log.is_empty()` so draining the log mid-run (incremental
    /// observability export) cannot perturb decision behaviour.
    logged: bool,
    /// Instant the current decision took effect (audit stability gate).
    stable_since: SimTime,
    /// The wireless link is currently down (fault notice pending an up).
    link_down: bool,
    /// The remote server is currently unreachable.
    server_down: bool,
}

impl FlexFetch {
    /// Adaptive FlexFetch driven by `profile`.
    pub fn new(profile: Profile, config: FlexFetchConfig) -> Self {
        let online = OnlineBurstBuilder::new(config.extractor);
        FlexFetch {
            config,
            old_profile: profile,
            online,
            observed: Vec::new(),
            seen: Bytes::ZERO,
            current: Source::Disk,
            decided: false,
            last_n: 0,
            stage_index: 0,
            forced: None,
            last_external: None,
            prev_external: None,
            log: Vec::new(),
            logged: false,
            stable_since: SimTime::ZERO,
            link_down: false,
            server_down: false,
        }
    }

    /// The paper's FlexFetch-static baseline (§3.3.4): same profile-based
    /// decisions, no run-time adaptation.
    pub fn new_static(profile: Profile) -> Self {
        FlexFetch::new(
            profile,
            FlexFetchConfig {
                adaptive: false,
                ..Default::default()
            },
        )
    }

    /// Current stage decision (inspection hook).
    pub fn current_source(&self) -> Source {
        self.current
    }

    /// Decision history: every change of data source with its trigger.
    pub fn decision_log(&self) -> &[(SimTime, Source, &'static str)] {
        &self.log
    }

    fn set_current(&mut self, now: SimTime, src: Source, why: &'static str) {
        if self.current != src || !self.logged {
            self.log.push((now, src, why));
            self.logged = true;
            self.stable_since = now;
        }
        self.current = src;
    }

    /// Whether the network path is currently known-bad (link lost or
    /// server unreachable). While degraded, the adaptive policy pins
    /// itself to the disk — the least-bad reachable source.
    pub fn degraded(&self) -> bool {
        self.link_down || self.server_down
    }

    /// §2.3.3 free-rider check: the disk is being kept spinning by
    /// others iff the last two external uses are within the spin-down
    /// timeout of each other *and* of now.
    fn free_ride_active(&self, ctx: &PolicyCtx<'_>) -> bool {
        let timeout = ctx.disk.params().timeout;
        match (self.last_external, self.prev_external) {
            (Some(last), Some(prev)) => {
                ctx.now.saturating_since(last) < timeout && last.saturating_since(prev) < timeout
            }
            _ => false,
        }
    }

    /// Decide the source for the burst window `bursts`, starting from the
    /// live device states in `ctx`.
    fn decide_for(&self, ctx: &PolicyCtx<'_>, bursts: &[ProfiledBurst]) -> Source {
        let filtered;
        let bursts = if self.config.adaptive {
            filtered = filter_resident(bursts, |f, o, l| (ctx.resident)(f, o, l));
            filtered.as_slice()
        } else {
            bursts
        };
        let est = Estimator::new(ctx.layout);
        // The paper's literal (T_disk, E_disk) vs (T_network, E_network):
        // each device's own energy while it services the stage. E_disk
        // includes the disk idling at 1.6 W between bursts; E_network
        // includes the card's PSM dwell at 0.39 W — the asymmetry that
        // sends sparse workloads to the network.
        let disk = est.disk_cost(bursts, ctx.disk.clone());
        let wnic = est.wnic_cost(bursts, ctx.wnic.clone());
        decide(disk, wnic, self.config.loss_rate)
    }

    /// The stage of the profile that starts `skip` bursts in: after a
    /// §2.3.1 splice the observed prefix stands in for the first `skip`
    /// bursts, so only what follows it is still a prediction.
    fn upcoming_stage(&self, skip: usize) -> &[ProfiledBurst] {
        let rest = self.old_profile.bursts.get(skip..).unwrap_or_default();
        rest.get(..first_stage_len(rest, self.config.stage_len))
            .unwrap_or(rest)
    }

    /// Re-run the §2.2 rules on the stage `skip` bursts into the profile
    /// and adopt the result, logged as `why`. An exhausted profile leaves
    /// the current choice in place: nothing is known about the future.
    fn replan(&mut self, ctx: &PolicyCtx<'_>, skip: usize, why: &'static str) {
        let stage = self.upcoming_stage(skip);
        if !stage.is_empty() {
            let d = self.decide_for(ctx, stage);
            self.set_current(ctx.now, d, why);
        }
    }

    /// Pull newly closed bursts out of the on-line profiler.
    fn sync_observed(&mut self) {
        self.observed.extend(self.online.take_completed());
    }
}

impl Policy for FlexFetch {
    fn name(&self) -> &'static str {
        if self.config.adaptive {
            "FlexFetch"
        } else {
            "FlexFetch-static"
        }
    }

    fn select(&mut self, ctx: &PolicyCtx<'_>, req: &AppRequest) -> Source {
        if !self.decided {
            self.decided = true;
            if self.old_profile.is_empty() {
                // First-ever run: no history. Start from the disk and let
                // the stage-end audit steer (adaptive), or stay (static).
                self.set_current(ctx.now, Source::Disk, "initial:no-profile");
            } else {
                self.replan(ctx, 0, "initial:profile");
            }
        }
        let _ = req;
        if self.config.adaptive && self.degraded() {
            // §2.3 degradation: the network path is known-bad; the disk
            // is the least-bad reachable source until the fault clears.
            return Source::Disk;
        }
        if self.config.adaptive && self.current == Source::Wnic && self.free_ride_active(ctx) {
            // Someone else is paying for the spinning disk — ride along.
            return Source::Disk;
        }
        self.current
    }

    fn observe(
        &mut self,
        ctx: &PolicyCtx<'_>,
        req: &AppRequest,
        _source: Option<Source>,
        outcome: &ServiceOutcome,
    ) {
        let start = outcome.complete - outcome.service_time;
        self.online.observe(
            start,
            outcome.complete,
            req.file,
            req.op,
            req.offset,
            req.len,
        );
        self.seen += req.len;
        if !self.config.adaptive {
            return;
        }
        self.sync_observed();
        // §2.3.1 re-evaluation: observed bytes just passed the first N
        // profiled bursts → splice and re-run the rules. Suspended while
        // a stage-end audit override is active (the profile was proven
        // ineffective; measurements drive until it recovers).
        let n = self.old_profile.bursts_covering(self.seen);
        if n > self.last_n && !self.old_profile.is_empty() {
            self.last_n = n;
            if self.forced.is_none() && !self.degraded() {
                self.replan(ctx, n, "reeval:splice");
            }
        }
    }

    fn on_external_disk(&mut self, now: SimTime) {
        self.prev_external = self.last_external;
        self.last_external = Some(now);
    }

    fn on_stage_end(&mut self, ctx: &PolicyCtx<'_>, report: &StageReport) {
        self.stage_index = report.index + 1;
        if !self.config.adaptive {
            // Static: re-decide for the next stage purely from the
            // recorded profile position (by stage count).
            let mut skip = 0;
            for _ in 0..self.stage_index {
                skip += self.upcoming_stage(skip).len();
            }
            self.replan(ctx, skip, "static:stage");
            return;
        }
        self.sync_observed();
        if self.degraded() {
            // Mid-outage: measured evidence is dominated by the fault,
            // and the network is not a legal choice anyway. Stay pinned.
            return;
        }
        if report.observed.is_empty() {
            // Nothing reached a device this stage — no evidence to audit.
            return;
        }
        if self.stable_since > report.start {
            // The decision changed mid-stage: the observed mix belongs
            // partly to the previous choice, so judging the new one on it
            // would be unfair. Audit after a full stable stage.
            return;
        }

        // §2.3.1 stage-end audit: re-run the §2.2 rules over what was
        // *actually observed* this stage, with the devices' current
        // states (so a bandwidth change or a spun-up disk shows up). If
        // the stage's true winner differs from the device the profile
        // chose, the next stage uses the winner, "disregarding the
        // profile"; the profile resumes steering only once its advice
        // agrees with measured reality again.
        let est = Estimator::new(ctx.layout);
        let disk_est = est.disk_cost(&report.observed, ctx.disk.clone());
        let wnic_est = est.wnic_cost(&report.observed, ctx.wnic.clone());
        let winner = decide(disk_est, wnic_est, self.config.loss_rate);

        // Hysteresis: flipping costs a device transition, so require the
        // winner to either dominate outright or clear the energy margin.
        let (cur_est, win_est) = match (self.current, winner) {
            (Source::Disk, Source::Wnic) => (disk_est, wnic_est),
            (Source::Wnic, Source::Disk) => (wnic_est, disk_est),
            _ => (disk_est, disk_est), // same device — no flip below
        };
        let dominates = win_est.time <= cur_est.time && win_est.energy <= cur_est.energy;
        let energy_margin =
            win_est.energy.get() < cur_est.energy.get() * (1.0 - self.config.audit_margin);
        // The rules may prefer the winner on *time* (the loss-rate bound
        // rejects a slow-but-cheap device); gate that path on a time
        // margin instead.
        let time_margin = win_est.time.as_secs_f64()
            < cur_est.time.as_secs_f64() * (1.0 - self.config.audit_margin);
        let flip = winner != self.current && (dominates || energy_margin || time_margin);

        let stage = self.upcoming_stage(self.last_n);
        let profile_choice = (!stage.is_empty()).then(|| self.decide_for(ctx, stage));
        let new = if flip { winner } else { self.current };
        self.set_current(
            ctx.now,
            new,
            if flip { "audit:flip" } else { "audit:confirm" },
        );
        self.forced = match profile_choice {
            Some(pc) if pc == new => None,
            _ => Some(new),
        };
    }

    fn on_fault(&mut self, ctx: &PolicyCtx<'_>, notice: FaultNotice) {
        if !self.config.adaptive {
            // FlexFetch-static trusts the recorded profile and never
            // corrects course — faults included (the router still
            // refuses to use an unreachable device on its behalf).
            return;
        }
        match notice {
            FaultNotice::LinkDown => self.link_down = true,
            FaultNotice::ServerDown => self.server_down = true,
            FaultNotice::LinkUp => self.link_down = false,
            FaultNotice::ServerUp => self.server_down = false,
            FaultNotice::BandwidthChanged { .. } => {
                // The network's cost basis shifted: re-run the rules on
                // the upcoming stage against the new link rate, unless an
                // audit override says measurements are steering.
                if self.decided && !self.degraded() && self.forced.is_none() {
                    self.replan(ctx, self.last_n, "fault:bandwidth");
                }
                return;
            }
        }
        if self.degraded() {
            self.set_current(ctx.now, Source::Disk, "fault:degraded");
        } else {
            // The last network fault cleared. Any audit override was
            // earned under faulted conditions — drop it and let the
            // profile re-decide from the devices' current states.
            self.forced = None;
            if self.decided {
                self.replan(ctx, self.last_n, "fault:recovered");
            }
        }
    }

    fn inject_profile(&mut self, ctx: &PolicyCtx<'_>, profile: Profile) {
        // A replacement execution profile landed mid-run (stale or
        // corrupted history). Both variants adopt it — that is the point
        // of the fault — but only the adaptive variant can later audit
        // its way out of bad advice. Splice bookkeeping restarts: the
        // observed prefix means nothing against the new burst list.
        self.old_profile = profile;
        self.last_n = 0;
        self.forced = None;
        if self.config.adaptive && self.degraded() {
            return; // stay pinned to the disk until the outage clears
        }
        if self.decided {
            self.replan(ctx, 0, "fault:profile");
        }
    }

    fn take_decision_log(&mut self) -> Vec<(SimTime, Source, &'static str)> {
        std::mem::take(&mut self.log)
    }

    fn recorded_profile(&mut self) -> Option<Profile> {
        self.sync_observed();
        let mut bursts = std::mem::take(&mut self.observed);
        bursts.extend(self.online.flush());
        Some(Profile {
            app: self.old_profile.app.clone(),
            bursts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_base::Joules;
    use ff_device::{DiskModel, DiskParams, WnicModel, WnicParams};
    use ff_profile::{IoBurst, MergedRequest};
    use ff_trace::{DiskLayout, FileId, FileMeta, FileSet, IoOp};

    struct World {
        disk: DiskModel,
        wnic: WnicModel,
        layout: DiskLayout,
    }

    fn world() -> World {
        let mut fs = FileSet::new();
        fs.insert(FileMeta {
            id: FileId(1),
            name: "f".into(),
            size: Bytes::mib(400),
        });
        World {
            disk: DiskModel::new(DiskParams::hitachi_dk23da()),
            wnic: WnicModel::new(WnicParams::cisco_aironet350()),
            layout: DiskLayout::build(&fs, 1),
        }
    }

    fn ctx<'a>(
        w: &'a World,
        now: SimTime,
        resident: &'a dyn Fn(FileId, u64, Bytes) -> f64,
    ) -> PolicyCtx<'a> {
        PolicyCtx {
            now,
            disk: &w.disk,
            wnic: &w.wnic,
            layout: &w.layout,
            resident,
        }
    }

    fn pb(start_ms: u64, dur_ms: u64, gap_ms: u64, bytes: u64) -> ProfiledBurst {
        ProfiledBurst {
            burst: IoBurst {
                start: SimTime::from_millis(start_ms),
                end: SimTime::from_millis(start_ms + dur_ms),
                requests: vec![MergedRequest {
                    file: FileId(1),
                    op: IoOp::Read,
                    offset: 0,
                    len: Bytes(bytes),
                }],
            },
            gap_after: Dur::from_millis(gap_ms),
        }
    }

    /// A bursty profile: one dense multi-megabyte burst → disk territory.
    fn bursty_profile() -> Profile {
        Profile {
            app: "bursty".into(),
            bursts: vec![pb(0, 500, 0, 50_000_000)],
        }
    }

    /// An intermittent profile: small reads every 6 s → WNIC territory
    /// (long enough for the card to drop to PSM between refills, short
    /// enough that a disk would idle at 1.6 W the whole time — and the
    /// margin survives the first stage's disk drain-down, where the
    /// network option still pays 20 s of disk idle before the timeout).
    fn intermittent_profile() -> Profile {
        Profile {
            app: "stream".into(),
            bursts: refills(30, 6_000, false),
        }
    }

    /// `n` back-to-back 64 KiB refills, each followed by `gap_ms` of think
    /// time, then (with `dense_tail`) one 80 MB burst.
    fn refills(n: u64, gap_ms: u64, dense_tail: bool) -> Vec<ProfiledBurst> {
        let mut bursts: Vec<_> = (0..n)
            .map(|i| pb(i * (5 + gap_ms), 5, gap_ms, 65_536))
            .collect();
        if dense_tail {
            bursts.push(pb(n * (5 + gap_ms), 2_000, 0, 80_000_000));
        }
        bursts
    }

    /// A stage-end report as FlexFetch-static reads it: only the index.
    fn static_report(index: usize) -> StageReport {
        StageReport {
            index,
            start: SimTime::ZERO,
            end: SimTime::from_secs(40),
            observed: vec![],
            disk_energy: Joules(1.0),
            wnic_energy: Joules(1.0),
        }
    }

    fn nores(_: FileId, _: u64, _: Bytes) -> f64 {
        0.0
    }

    fn any_req() -> AppRequest {
        AppRequest {
            file: FileId(1),
            op: IoOp::Read,
            offset: 0,
            len: Bytes(65_536),
        }
    }

    #[test]
    fn bursty_profile_selects_disk() {
        let w = world();
        let mut p = FlexFetch::new(bursty_profile(), FlexFetchConfig::default());
        assert_eq!(
            p.select(&ctx(&w, SimTime::ZERO, &nores), &any_req()),
            Source::Disk
        );
    }

    #[test]
    fn intermittent_profile_selects_wnic() {
        let w = world();
        let mut p = FlexFetch::new(intermittent_profile(), FlexFetchConfig::default());
        assert_eq!(
            p.select(&ctx(&w, SimTime::ZERO, &nores), &any_req()),
            Source::Wnic
        );
    }

    #[test]
    fn static_and_adaptive_agree_on_initial_decision() {
        let w = world();
        let mut a = FlexFetch::new(intermittent_profile(), FlexFetchConfig::default());
        let mut s = FlexFetch::new_static(intermittent_profile());
        let c = ctx(&w, SimTime::ZERO, &nores);
        assert_eq!(a.select(&c, &any_req()), s.select(&c, &any_req()));
        assert_eq!(a.name(), "FlexFetch");
        assert_eq!(s.name(), "FlexFetch-static");
    }

    #[test]
    fn free_rider_overrides_wnic_choice() {
        let w = world();
        let mut p = FlexFetch::new(intermittent_profile(), FlexFetchConfig::default());
        let c = ctx(&w, SimTime::from_secs(10), &nores);
        assert_eq!(p.select(&c, &any_req()), Source::Wnic);
        // xmms hits the disk twice, 5 s apart — well inside the timeout.
        p.on_external_disk(SimTime::from_secs(4));
        p.on_external_disk(SimTime::from_secs(9));
        assert_eq!(p.select(&c, &any_req()), Source::Disk, "must free-ride");
        // Static version ignores it.
        let mut s = FlexFetch::new_static(intermittent_profile());
        s.select(&c, &any_req());
        s.on_external_disk(SimTime::from_secs(4));
        s.on_external_disk(SimTime::from_secs(9));
        assert_eq!(s.select(&c, &any_req()), Source::Wnic);
    }

    #[test]
    fn free_ride_expires_with_the_timeout() {
        let w = world();
        let mut p = FlexFetch::new(intermittent_profile(), FlexFetchConfig::default());
        let c0 = ctx(&w, SimTime::from_secs(10), &nores);
        p.select(&c0, &any_req());
        p.on_external_disk(SimTime::from_secs(4));
        p.on_external_disk(SimTime::from_secs(9));
        // 30 s later the external activity is stale (> 20 s timeout).
        let c1 = ctx(&w, SimTime::from_secs(39), &nores);
        assert_eq!(p.select(&c1, &any_req()), Source::Wnic);
    }

    #[test]
    fn stage_audit_flips_a_wrong_decision() {
        let w = world();
        // Profile says intermittent (→ WNIC), but the observed stage was
        // one huge burst that the disk would have served far cheaper.
        let mut p = FlexFetch::new(intermittent_profile(), FlexFetchConfig::default());
        let c = ctx(&w, SimTime::ZERO, &nores);
        assert_eq!(p.select(&c, &any_req()), Source::Wnic);
        let report = StageReport {
            index: 0,
            start: SimTime::ZERO,
            end: SimTime::from_secs(42),
            observed: vec![pb(0, 2_000, 0, 60_000_000)],
            disk_energy: Joules::ZERO,
            wnic_energy: Joules(400.0), // measured: WNIC was expensive
        };
        p.on_stage_end(&c, &report);
        assert_eq!(
            p.current_source(),
            Source::Disk,
            "audit must switch to the disk"
        );
    }

    #[test]
    fn stage_audit_keeps_a_good_decision() {
        let w = world();
        let mut p = FlexFetch::new(intermittent_profile(), FlexFetchConfig::default());
        let c = ctx(&w, SimTime::ZERO, &nores);
        p.select(&c, &any_req());
        // Observed matches the profile; WNIC really was cheap.
        let report = StageReport {
            index: 0,
            start: SimTime::ZERO,
            end: SimTime::from_secs(42),
            observed: intermittent_profile().bursts[..20].to_vec(),
            disk_energy: Joules::ZERO,
            wnic_energy: Joules(30.0),
        };
        p.on_stage_end(&c, &report);
        assert_eq!(p.current_source(), Source::Wnic);
    }

    #[test]
    fn reevaluation_splices_observed_prefix() {
        let w = world();
        // Old profile: small first burst (100 KB), then a huge tail the
        // rules would send to the disk.
        let mut bursts = vec![pb(0, 10, 1_000, 100_000)];
        bursts.push(pb(2_000, 500, 0, 80_000_000));
        let profile = Profile {
            app: "x".into(),
            bursts,
        };
        let mut p = FlexFetch::new(profile, FlexFetchConfig::default());
        let c = ctx(&w, SimTime::ZERO, &nores);
        let initial = p.select(&c, &any_req());
        assert_eq!(initial, Source::Disk, "tail dominates the estimate");
        // Observe > 100 KB: crosses burst 1's bytes → re-evaluation runs
        // against the remaining profile (still the huge burst → disk).
        let out = ServiceOutcome {
            complete: SimTime::from_millis(10),
            service_time: Dur::from_millis(10),
            energy: Joules(0.1),
        };
        let req = AppRequest {
            file: FileId(1),
            op: IoOp::Read,
            offset: 0,
            len: Bytes(200_000),
        };
        p.observe(&c, &req, Some(Source::Disk), &out);
        assert_eq!(p.current_source(), Source::Disk);
    }

    #[test]
    fn empty_profile_defaults_to_disk_until_audited() {
        let w = world();
        let mut p = FlexFetch::new(Profile::empty("new-app"), FlexFetchConfig::default());
        let c = ctx(&w, SimTime::ZERO, &nores);
        assert_eq!(p.select(&c, &any_req()), Source::Disk);
    }

    #[test]
    fn recorded_profile_contains_observed_run() {
        let w = world();
        let mut p = FlexFetch::new(Profile::empty("app"), FlexFetchConfig::default());
        let c = ctx(&w, SimTime::ZERO, &nores);
        p.select(&c, &any_req());
        let out = ServiceOutcome {
            complete: SimTime::from_millis(5),
            service_time: Dur::from_millis(5),
            energy: Joules(0.01),
        };
        p.observe(&c, &any_req(), Some(Source::Disk), &out);
        let recorded = p.recorded_profile().unwrap();
        assert_eq!(recorded.app, "app");
        assert_eq!(recorded.len(), 1);
        assert_eq!(recorded.total_bytes(), Bytes(65_536));
    }

    #[test]
    fn forced_override_suspends_splice_reevaluation() {
        let w = world();
        // Profile says WNIC; force an audit flip to disk, then feed
        // observations that would normally trigger a splice re-eval back
        // to WNIC — it must be suppressed while forced.
        let mut p = FlexFetch::new(intermittent_profile(), FlexFetchConfig::default());
        let c = ctx(&w, SimTime::ZERO, &nores);
        assert_eq!(p.select(&c, &any_req()), Source::Wnic);
        let report = StageReport {
            index: 0,
            start: SimTime::ZERO,
            end: SimTime::from_secs(42),
            observed: vec![pb(0, 2_000, 0, 60_000_000)],
            disk_energy: Joules::ZERO,
            wnic_energy: Joules(400.0),
        };
        p.on_stage_end(&c, &report);
        assert_eq!(p.current_source(), Source::Disk, "audit flips to disk");
        // Observe enough bytes to cross several profile bursts.
        let out = ServiceOutcome {
            complete: SimTime::from_secs(43),
            service_time: Dur::from_millis(10),
            energy: Joules(0.1),
        };
        let big = AppRequest {
            file: FileId(1),
            op: IoOp::Read,
            offset: 0,
            len: Bytes(1_000_000),
        };
        p.observe(&c, &big, Some(Source::Disk), &out);
        assert_eq!(
            p.current_source(),
            Source::Disk,
            "splice re-eval must stay suspended while the audit override holds"
        );
    }

    #[test]
    fn static_variant_advances_stage_by_stage() {
        let w = world();
        // Profile: a WNIC-ish first stage (sparse) then a disk-ish second
        // stage (one huge burst). Static FlexFetch must switch at the
        // stage boundary purely from the profile.
        let profile = Profile {
            app: "two-phase".into(),
            bursts: refills(8, 6_000, true), // sparse ~48 s, dense tail
        };
        let mut p = FlexFetch::new_static(profile);
        let c = ctx(&w, SimTime::ZERO, &nores);
        assert_eq!(p.select(&c, &any_req()), Source::Wnic, "stage 1 is sparse");
        p.on_stage_end(&c, &static_report(0));
        assert_eq!(
            p.current_source(),
            Source::Disk,
            "stage 2 of the profile is the dense burst"
        );
    }

    #[test]
    fn static_variant_indexes_an_injected_profile_by_stage_count() {
        let w = world();
        // Replacement profile: two sparse stages of four 10 s refills
        // each, then one dense burst as stage 2. The original profile's
        // stages hold seven bursts each, so stepping its windows instead
        // would run past the new profile's end.
        let injected = Profile {
            app: "injected".into(),
            bursts: refills(8, 10_000, true),
        };
        let mut p = FlexFetch::new_static(intermittent_profile());
        let c = ctx(&w, SimTime::ZERO, &nores);
        assert_eq!(p.select(&c, &any_req()), Source::Wnic);
        p.on_stage_end(&c, &static_report(0));
        assert_eq!(p.current_source(), Source::Wnic);
        p.inject_profile(&c, injected);
        assert_eq!(p.current_source(), Source::Wnic, "new stage 0 is sparse");
        p.on_stage_end(&c, &static_report(1));
        assert_eq!(
            p.current_source(),
            Source::Disk,
            "stage 2 of the injected profile is the dense burst"
        );
        assert_eq!(p.decision_log().last().map(|d| d.2), Some("static:stage"));
    }

    #[test]
    fn free_ride_needs_two_external_touches() {
        let w = world();
        let mut p = FlexFetch::new(intermittent_profile(), FlexFetchConfig::default());
        let c = ctx(&w, SimTime::from_secs(10), &nores);
        assert_eq!(p.select(&c, &any_req()), Source::Wnic);
        // A single external touch is not an interval — no free ride yet.
        p.on_external_disk(SimTime::from_secs(9));
        assert_eq!(p.select(&c, &any_req()), Source::Wnic);
        p.on_external_disk(SimTime::from_secs(9) + Dur::from_secs(1));
        assert_eq!(p.select(&c, &any_req()), Source::Disk);
    }

    #[test]
    fn link_outage_degrades_to_disk_and_recovers() {
        let w = world();
        let mut p = FlexFetch::new(intermittent_profile(), FlexFetchConfig::default());
        let c = ctx(&w, SimTime::ZERO, &nores);
        assert_eq!(p.select(&c, &any_req()), Source::Wnic);
        p.on_fault(&c, FaultNotice::LinkDown);
        assert!(p.degraded());
        assert_eq!(p.select(&c, &any_req()), Source::Disk, "must degrade");
        let c1 = ctx(&w, SimTime::from_secs(5), &nores);
        p.on_fault(&c1, FaultNotice::LinkUp);
        assert!(!p.degraded());
        assert_eq!(
            p.select(&c1, &any_req()),
            Source::Wnic,
            "profile steers again once the fault clears"
        );
        let triggers: Vec<&str> = p.decision_log().iter().map(|d| d.2).collect();
        assert!(triggers.contains(&"fault:degraded"), "{triggers:?}");
        assert!(triggers.contains(&"fault:recovered"), "{triggers:?}");
    }

    #[test]
    fn overlapping_faults_recover_only_when_all_clear() {
        let w = world();
        let mut p = FlexFetch::new(intermittent_profile(), FlexFetchConfig::default());
        let c = ctx(&w, SimTime::ZERO, &nores);
        p.select(&c, &any_req());
        p.on_fault(&c, FaultNotice::LinkDown);
        p.on_fault(&c, FaultNotice::ServerDown);
        p.on_fault(&c, FaultNotice::LinkUp);
        assert!(p.degraded(), "server is still down");
        assert_eq!(p.select(&c, &any_req()), Source::Disk);
        p.on_fault(&c, FaultNotice::ServerUp);
        assert!(!p.degraded());
        assert_eq!(p.select(&c, &any_req()), Source::Wnic);
    }

    #[test]
    fn static_variant_ignores_fault_notices() {
        let w = world();
        let mut p = FlexFetch::new_static(intermittent_profile());
        let c = ctx(&w, SimTime::ZERO, &nores);
        assert_eq!(p.select(&c, &any_req()), Source::Wnic);
        p.on_fault(&c, FaultNotice::LinkDown);
        assert!(!p.degraded());
        assert_eq!(
            p.select(&c, &any_req()),
            Source::Wnic,
            "static never corrects course; the router shields it"
        );
    }

    #[test]
    fn injected_profile_redecides() {
        let w = world();
        // Start on a sparse (WNIC) profile, then inject a dense one: the
        // policy must adopt it and flip to the disk with a fault trigger.
        let mut p = FlexFetch::new(intermittent_profile(), FlexFetchConfig::default());
        let c = ctx(&w, SimTime::ZERO, &nores);
        assert_eq!(p.select(&c, &any_req()), Source::Wnic);
        p.inject_profile(&c, bursty_profile());
        assert_eq!(p.current_source(), Source::Disk);
        assert_eq!(p.decision_log().last().map(|d| d.2), Some("fault:profile"));
    }

    #[test]
    fn bandwidth_change_triggers_reevaluation() {
        let mut w = world();
        let mut p = FlexFetch::new(intermittent_profile(), FlexFetchConfig::default());
        {
            let c = ctx(&w, SimTime::ZERO, &nores);
            assert_eq!(p.select(&c, &any_req()), Source::Wnic);
        }
        // The link collapses to a crawl: the same sparse stage is now far
        // slower over the network, so the re-decision flips to the disk.
        w.wnic
            .set_bandwidth(ff_base::BytesPerSec::from_mbit_per_sec(0.1));
        let c = ctx(&w, SimTime::ZERO, &nores);
        p.on_fault(&c, FaultNotice::BandwidthChanged { mbps: 0.1 });
        assert_eq!(
            p.decision_log().last().map(|d| d.2),
            Some("fault:bandwidth")
        );
    }

    #[test]
    fn decision_log_records_triggers() {
        let w = world();
        let mut p = FlexFetch::new(intermittent_profile(), FlexFetchConfig::default());
        let c = ctx(&w, SimTime::ZERO, &nores);
        p.select(&c, &any_req());
        let log = p.decision_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].2, "initial:profile");
        let drained = p.take_decision_log();
        assert_eq!(drained.len(), 1);
        assert!(p.decision_log().is_empty());
    }

    #[test]
    fn cache_filter_changes_the_decision() {
        let w = world();
        // Profile: one modest burst. If it is fully cached, the disk cost
        // collapses to idle-only and the decision may differ; here we
        // check that a fully-resident profile yields no device work, so
        // the previous (default disk) choice is kept rather than computed.
        let allres = |_: FileId, _: u64, _: Bytes| 1.0;
        let profile = Profile {
            app: "c".into(),
            bursts: vec![pb(0, 5, 0, 1_000_000)],
        };
        let mut p = FlexFetch::new(profile, FlexFetchConfig::default());
        let c = ctx(&w, SimTime::ZERO, &allres);
        // Fully resident single burst with zero gap → filtered to nothing
        // → keeps the default current source (disk).
        assert_eq!(p.select(&c, &any_req()), Source::Disk);
    }
}
