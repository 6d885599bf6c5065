//! Deterministic fault injection (§2.3's hostile environment, scripted).
//!
//! The paper's adaptation machinery exists because the mobile
//! environment misbehaves: wireless bandwidth fades with location, the
//! remote server drops off the network, other programs spin the disk up,
//! and the recorded profile can be stale or plain wrong. A [`FaultPlan`]
//! scripts exactly those perturbations against a simulation run:
//!
//! * [`Fault::BandwidthFade`] — the link rate drops to `mbps` for a
//!   window, then restores to whatever it was before the fade;
//! * [`Fault::BandwidthStep`] — the link rate changes to `mbps` for
//!   good (the user walking away from the access point); the policy is
//!   not told and must discover it in its §2.3.1 stage-end audit;
//! * [`Fault::LinkOutage`] — the card loses association entirely; the
//!   router fails hoarded requests over to the disk and stalls
//!   network-only ones until the link returns;
//! * [`Fault::ServerOutage`] — the link is up but the server stops
//!   answering; each network request walks the [`RetryPolicy`] ladder
//!   (timeout → bounded exponential backoff → failover to disk);
//! * [`Fault::DiskStorm`] — a non-profiled background process issues a
//!   train of disk reads (`on_external_disk` from the policies' point of
//!   view), enabling §2.3.3 free-riding;
//! * [`Fault::ProfileFault`] — a stale or corrupted execution profile is
//!   handed to the policy mid-run.
//!
//! Plans are plain data: the same plan against the same seed and trace
//! replays to a byte-identical event log. [`FaultPlan::seeded`] derives a
//! random-but-reproducible plan from a seed for chaos testing.

use ff_base::{seeded_rng, split_seed, Bytes, Dur, Error, Result, SimTime};
use ff_profile::{IoBurst, MergedRequest, Profile, ProfiledBurst};
use ff_trace::{IoOp, Trace};
use rand::Rng;

/// How an injected profile is wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileFaultMode {
    /// The profile no longer exists or no longer matches the program —
    /// modelled as an *empty* history (the first-run situation, §2.3.1).
    Stale,
    /// The profile actively lies: it describes a sparse network-friendly
    /// trickle regardless of what the program really does.
    Corrupt,
}

impl ProfileFaultMode {
    /// Stable tag used in event streams and reports.
    pub fn label(self) -> &'static str {
        match self {
            ProfileFaultMode::Stale => "stale",
            ProfileFaultMode::Corrupt => "corrupt",
        }
    }
}

/// One scripted perturbation, anchored at `at` after simulation start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// The link rate drops to `mbps` for `dur`, then restores.
    BandwidthFade {
        /// Onset, relative to simulation start.
        at: Dur,
        /// How long the fade lasts.
        dur: Dur,
        /// Faded link bandwidth in Mbit/s.
        mbps: f64,
    },
    /// The link rate changes to `mbps` for the rest of the run. Unlike a
    /// fade, the policy gets no notice.
    BandwidthStep {
        /// Onset, relative to simulation start.
        at: Dur,
        /// New link bandwidth in Mbit/s.
        mbps: f64,
    },
    /// The wireless link loses association for `dur`.
    LinkOutage {
        /// Onset, relative to simulation start.
        at: Dur,
        /// How long the link stays down.
        dur: Dur,
    },
    /// The remote server stops answering for `dur` (the link stays up,
    /// so requests time out instead of failing fast).
    ServerOutage {
        /// Onset, relative to simulation start.
        at: Dur,
        /// How long the server stays unreachable.
        dur: Dur,
    },
    /// A background process reads from the disk `touches` times, `gap`
    /// apart, `bytes` per touch — keeping the disk spinning.
    DiskStorm {
        /// First touch, relative to simulation start.
        at: Dur,
        /// Number of touches.
        touches: u32,
        /// Interval between touches.
        gap: Dur,
        /// Bytes read per touch.
        bytes: u64,
    },
    /// A stale or corrupted profile is injected into the policy.
    ProfileFault {
        /// Injection instant, relative to simulation start.
        at: Dur,
        /// What is wrong with the injected profile.
        mode: ProfileFaultMode,
    },
}

impl Fault {
    /// Onset of the fault, relative to simulation start.
    pub fn at(&self) -> Dur {
        match *self {
            Fault::BandwidthFade { at, .. }
            | Fault::BandwidthStep { at, .. }
            | Fault::LinkOutage { at, .. }
            | Fault::ServerOutage { at, .. }
            | Fault::DiskStorm { at, .. }
            | Fault::ProfileFault { at, .. } => at,
        }
    }

    /// Stable tag naming the fault kind.
    pub fn label(&self) -> &'static str {
        match self {
            Fault::BandwidthFade { .. } => "bandwidth_fade",
            Fault::BandwidthStep { .. } => "bandwidth_step",
            Fault::LinkOutage { .. } => "link_outage",
            Fault::ServerOutage { .. } => "server_outage",
            Fault::DiskStorm { .. } => "disk_storm",
            Fault::ProfileFault { .. } => "profile_fault",
        }
    }

    fn validate(&self) -> Result<()> {
        match *self {
            Fault::BandwidthFade { dur, mbps, .. } => {
                if dur.is_zero() {
                    return Err(Error::Fault("bandwidth fade with zero duration".into()));
                }
                positive_rate("fade", mbps)?;
            }
            Fault::BandwidthStep { mbps, .. } => positive_rate("step", mbps)?,
            Fault::LinkOutage { dur, .. } => {
                if dur.is_zero() {
                    return Err(Error::Fault("link outage with zero duration".into()));
                }
            }
            Fault::ServerOutage { dur, .. } => {
                if dur.is_zero() {
                    return Err(Error::Fault("server outage with zero duration".into()));
                }
            }
            Fault::DiskStorm { touches, bytes, .. } => {
                if touches == 0 {
                    return Err(Error::Fault("disk storm with zero touches".into()));
                }
                if touches > 100_000 {
                    return Err(Error::Fault(format!(
                        "disk storm with {touches} touches (max 100000)"
                    )));
                }
                if bytes == 0 {
                    return Err(Error::Fault("disk storm reading zero bytes".into()));
                }
            }
            Fault::ProfileFault { .. } => {}
        }
        Ok(())
    }
}

/// Reject a bandwidth fault whose target rate is zero, negative or not
/// a number.
fn positive_rate(kind: &str, mbps: f64) -> Result<()> {
    if !mbps.is_finite() || mbps <= 0.0 {
        return Err(Error::Fault(format!(
            "bandwidth {kind} to a non-positive rate ({mbps} Mbit/s)"
        )));
    }
    Ok(())
}

/// Per-request behaviour against an unresponsive server: a request times
/// out after [`RetryPolicy::timeout`], then retries after an
/// exponentially growing backoff (`backoff`, `2·backoff`, `4·backoff`,
/// …) up to [`RetryPolicy::max_retries`] attempts, after which the
/// router fails over to the disk (or, for network-only data, stalls
/// until the server returns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// How long a request waits on the wire before giving up.
    pub timeout: Dur,
    /// Base backoff between attempts; doubles each retry.
    pub backoff: Dur,
    /// Attempts before failing over (1–16).
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: Dur::from_secs(2),
            backoff: Dur::from_millis(500),
            max_retries: 4,
        }
    }
}

impl RetryPolicy {
    /// Reject nonsensical ladders (zero timeout, zero attempts, or a
    /// retry count whose doubling backoff overflows).
    pub fn validate(&self) -> Result<()> {
        if self.timeout.is_zero() {
            return Err(Error::Fault("retry policy with zero timeout".into()));
        }
        if self.max_retries == 0 || self.max_retries > 16 {
            return Err(Error::Fault(format!(
                "retry policy with {} attempts (want 1..=16)",
                self.max_retries
            )));
        }
        Ok(())
    }

    /// Worst-case wall-clock cost of one exhausted ladder: every timeout
    /// plus every backoff interval.
    pub fn max_ladder(&self) -> Dur {
        let mut total = Dur::ZERO;
        for attempt in 0..self.max_retries {
            total += self.timeout;
            total += self.backoff * (1u64 << attempt.min(16));
        }
        total
    }
}

/// A scripted set of faults, applied deterministically to one run.
///
/// Build a plan with the `with_*` combinators, attach it via
/// [`crate::SimConfig::with_faults`], and the simulator injects each
/// fault at its scripted onset — same seed, same plan, same run,
/// byte-for-byte:
///
/// ```
/// use ff_base::Dur;
/// use ff_policy::PolicyKind;
/// use ff_sim::{FaultPlan, SimConfig, Simulation};
/// use ff_trace::{Grep, Workload};
///
/// let plan = FaultPlan::none()
///     .with_link_outage(Dur::from_millis(10), Dur::from_millis(500));
/// assert!(plan.validate().is_ok());
///
/// let trace = Grep { files: 20, total_bytes: 800_000, ..Default::default() }.build(1);
/// let report = Simulation::new(SimConfig::default().with_faults(plan), &trace)
///     .policy(PolicyKind::WnicOnly)
///     .run()
///     .unwrap();
/// // The outage was injected and survived (retries and/or failover).
/// assert_eq!(report.faults_injected, 1);
/// assert_eq!(report.app_requests, trace.len() as u64);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The faults, in no particular order (the simulator sorts by onset).
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan with no faults (the default — every existing configuration
    /// keeps its exact behaviour).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True iff the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Add a link outage: no association from `at` for `dur`.
    pub fn with_link_outage(mut self, at: Dur, dur: Dur) -> Self {
        self.faults.push(Fault::LinkOutage { at, dur });
        self
    }

    /// Add a bandwidth fade to `mbps` from `at` for `dur`.
    pub fn with_bandwidth_fade(mut self, at: Dur, dur: Dur, mbps: f64) -> Self {
        self.faults.push(Fault::BandwidthFade { at, dur, mbps });
        self
    }

    /// Add a permanent bandwidth change to `mbps` at `at`.
    pub fn with_bandwidth_step(mut self, at: Dur, mbps: f64) -> Self {
        self.faults.push(Fault::BandwidthStep { at, mbps });
        self
    }

    /// Add a server outage: no responses from `at` for `dur`.
    pub fn with_server_outage(mut self, at: Dur, dur: Dur) -> Self {
        self.faults.push(Fault::ServerOutage { at, dur });
        self
    }

    /// Add a background disk storm: `touches` reads of `bytes` bytes,
    /// `gap` apart, starting at `at`.
    pub fn with_disk_storm(mut self, at: Dur, touches: u32, gap: Dur, bytes: u64) -> Self {
        self.faults.push(Fault::DiskStorm {
            at,
            touches,
            gap,
            bytes,
        });
        self
    }

    /// Add a profile injection at `at`.
    pub fn with_profile_fault(mut self, at: Dur, mode: ProfileFaultMode) -> Self {
        self.faults.push(Fault::ProfileFault { at, mode });
        self
    }

    /// Validate every fault in the plan.
    pub fn validate(&self) -> Result<()> {
        for f in &self.faults {
            f.validate()?;
        }
        Ok(())
    }

    /// A random-but-reproducible plan: 2–5 faults of mixed kinds spread
    /// over `span`. The same `(seed, span)` always yields the same plan.
    /// Every kind but [`Fault::BandwidthStep`] can be drawn.
    pub fn seeded(seed: u64, span: Dur) -> Self {
        let span_us = span.as_micros().max(1_000_000);
        let mut plan = FaultPlan::none();
        let mut rng = seeded_rng(split_seed(seed, 0xFA17));
        let n = rng.gen_range(2..=5u32);
        for _ in 0..n {
            let at = Dur::from_micros(rng.gen_range(0..span_us));
            // 0.5–20 s of trouble per fault.
            let dur = Dur::from_micros(rng.gen_range(500_000..=20_000_000u64));
            let fault = match rng.gen_range(0..5u32) {
                0 => Fault::LinkOutage { at, dur },
                1 => Fault::BandwidthFade {
                    at,
                    dur,
                    mbps: rng.gen_range(0.5..5.5f64),
                },
                2 => Fault::ServerOutage { at, dur },
                3 => Fault::DiskStorm {
                    at,
                    touches: rng.gen_range(2..=12u32),
                    gap: Dur::from_micros(rng.gen_range(1_000_000..=8_000_000u64)),
                    bytes: rng.gen_range(4_096..=1_048_576u64),
                },
                _ => Fault::ProfileFault {
                    at,
                    mode: if rng.gen_range(0..2u32) == 0 {
                        ProfileFaultMode::Stale
                    } else {
                        ProfileFaultMode::Corrupt
                    },
                },
            };
            plan.faults.push(fault);
        }
        plan
    }
}

/// Build the profile a [`Fault::ProfileFault`] hands to the policy.
///
/// *Stale* is an empty history — the recorded profile was lost or
/// belongs to a different program version, so the policy is back in the
/// first-run situation. *Corrupt* is adversarial: it claims the program
/// does a sparse 64 KiB trickle every 6 seconds (textbook network-
/// friendly), no matter what the trace actually holds — bad advice for
/// any dense workload that trusts it.
pub fn injected_profile(mode: ProfileFaultMode, trace: &Trace) -> Profile {
    match mode {
        ProfileFaultMode::Stale => Profile::empty(trace.name.clone()),
        ProfileFaultMode::Corrupt => {
            // Pick the largest traced file so the fake requests stay in
            // bounds; fall back to an empty profile for a fileless trace.
            let Some(victim) = trace.files.iter().max_by_key(|m| m.size) else {
                return Profile::empty(trace.name.clone());
            };
            let len = Bytes(victim.size.get().clamp(1, 65_536));
            let stats = trace.stats();
            let n = (stats.span.as_micros() / 6_000_000).clamp(10, 120);
            let mut bursts = Vec::new();
            let mut t = SimTime::ZERO;
            for _ in 0..n {
                let end = t + Dur::from_millis(5);
                bursts.push(ProfiledBurst {
                    burst: IoBurst {
                        start: t,
                        end,
                        requests: vec![MergedRequest {
                            file: victim.id,
                            op: IoOp::Read,
                            offset: 0,
                            len,
                        }],
                    },
                    gap_after: Dur::from_secs(6),
                });
                t = end + Dur::from_secs(6);
            }
            Profile {
                app: trace.name.clone(),
                bursts,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_collect_faults_in_order() {
        let plan = FaultPlan::none()
            .with_link_outage(Dur::from_secs(10), Dur::from_secs(5))
            .with_bandwidth_fade(Dur::from_secs(20), Dur::from_secs(5), 1.0)
            .with_bandwidth_step(Dur::from_secs(25), 2.0)
            .with_server_outage(Dur::from_secs(30), Dur::from_secs(5))
            .with_disk_storm(Dur::from_secs(40), 4, Dur::from_secs(2), 65_536)
            .with_profile_fault(Dur::from_secs(50), ProfileFaultMode::Corrupt);
        assert_eq!(plan.faults.len(), 6);
        assert!(plan.validate().is_ok());
        let labels: Vec<&str> = plan.faults.iter().map(|f| f.label()).collect();
        assert_eq!(
            labels,
            [
                "link_outage",
                "bandwidth_fade",
                "bandwidth_step",
                "server_outage",
                "disk_storm",
                "profile_fault"
            ]
        );
    }

    #[test]
    fn validation_rejects_degenerate_faults() {
        for bad in [
            Fault::LinkOutage {
                at: Dur::ZERO,
                dur: Dur::ZERO,
            },
            Fault::ServerOutage {
                at: Dur::ZERO,
                dur: Dur::ZERO,
            },
            Fault::BandwidthFade {
                at: Dur::ZERO,
                dur: Dur::from_secs(1),
                mbps: 0.0,
            },
            Fault::BandwidthFade {
                at: Dur::ZERO,
                dur: Dur::from_secs(1),
                mbps: f64::NAN,
            },
            Fault::BandwidthStep {
                at: Dur::ZERO,
                mbps: 0.0,
            },
            Fault::BandwidthStep {
                at: Dur::ZERO,
                mbps: -1.0,
            },
            Fault::BandwidthStep {
                at: Dur::ZERO,
                mbps: f64::INFINITY,
            },
            Fault::DiskStorm {
                at: Dur::ZERO,
                touches: 0,
                gap: Dur::ZERO,
                bytes: 1,
            },
            Fault::DiskStorm {
                at: Dur::ZERO,
                touches: 1,
                gap: Dur::ZERO,
                bytes: 0,
            },
        ] {
            let plan = FaultPlan { faults: vec![bad] };
            assert!(
                matches!(plan.validate(), Err(Error::Fault(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn retry_policy_validates_and_bounds_the_ladder() {
        assert!(RetryPolicy::default().validate().is_ok());
        assert!(RetryPolicy {
            timeout: Dur::ZERO,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            max_retries: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            max_retries: 17,
            ..Default::default()
        }
        .validate()
        .is_err());
        // Default ladder: 4×2 s timeouts + 0.5+1+2+4 s backoffs = 15.5 s.
        assert_eq!(
            RetryPolicy::default().max_ladder(),
            Dur::from_millis(15_500)
        );
    }

    #[test]
    fn seeded_plans_are_reproducible_and_valid() {
        let span = Dur::from_secs(120);
        for seed in 0..50 {
            let a = FaultPlan::seeded(seed, span);
            let b = FaultPlan::seeded(seed, span);
            assert_eq!(a, b, "seed {seed} must reproduce");
            assert!(a.validate().is_ok(), "seed {seed} must be valid");
            assert!((2..=5).contains(&a.faults.len()), "seed {seed}");
            for f in &a.faults {
                assert!(f.at() <= span, "seed {seed}: fault after span");
            }
        }
        assert_ne!(
            FaultPlan::seeded(1, span),
            FaultPlan::seeded(2, span),
            "different seeds should differ"
        );
    }

    #[test]
    fn stale_profile_is_empty_and_corrupt_is_sparse() {
        let mut trace = ff_trace::Trace::new("t");
        trace.files.insert(ff_trace::FileMeta {
            id: ff_trace::FileId(7),
            name: "big".into(),
            size: Bytes::mib(10),
        });
        trace.records.push(ff_trace::TraceRecord {
            pid: 1,
            pgid: 1,
            file: ff_trace::FileId(7),
            op: IoOp::Read,
            offset: 0,
            len: Bytes(4096),
            ts: SimTime::ZERO,
            dur: Dur::from_millis(1),
        });
        let stale = injected_profile(ProfileFaultMode::Stale, &trace);
        assert!(stale.is_empty());
        let corrupt = injected_profile(ProfileFaultMode::Corrupt, &trace);
        assert!(corrupt.len() >= 10, "corrupt profile must claim a trickle");
        for b in &corrupt.bursts {
            assert_eq!(b.burst.requests[0].file, ff_trace::FileId(7));
            assert!(b.burst.requests[0].len <= Bytes(65_536));
            assert_eq!(b.gap_after, Dur::from_secs(6));
        }
        // An empty trace degrades to an empty profile, not a panic.
        let none = injected_profile(ProfileFaultMode::Corrupt, &ff_trace::Trace::new("e"));
        assert!(none.is_empty());
    }
}
