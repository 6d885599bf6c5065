//! # ff-profile — execution profiles and cost estimation
//!
//! The FlexFetch profiling layer (§2.1–2.2):
//!
//! * [`burst`] — turns a raw system-call trace into **I/O bursts**:
//!   sequences of calls whose think gaps are below the burst threshold
//!   (the disk access time, 20 ms), with sequential same-file requests
//!   merged up to the 128 KiB Linux prefetch window.
//! * [`stage`] — groups consecutive bursts (and the think times between
//!   them) into **evaluation stages** of just over 40 s.
//! * [`profile`] — the per-application [`Profile`]: the recorded burst
//!   sequence, serialisable to JSON so it persists across runs, plus the
//!   §2.3.1 covered-prefix count and the §2.3.3 concurrent-merge.
//! * [`estimate`] — the on-line simulator (§2.2): walks a burst sequence
//!   over cloned device models to produce `(T_disk, E_disk)` and
//!   `(T_network, E_network)` for a stage.
//! * [`hoard`] — extension: pick which files to hoard locally from the
//!   recorded history under a disk-space budget (the paper delegates
//!   this to Kuenning-style automated hoarding).

//! ```
//! use ff_base::Dur;
//! use ff_profile::Profiler;
//! use ff_trace::{Xmms, Workload};
//!
//! // Profile a paced streaming run: every refill is its own burst.
//! let trace = Xmms { play_limit: Some(Dur::from_secs(60)), ..Default::default() }
//!     .build(7);
//! let profile = Profiler::standard().profile(&trace);
//! assert!(profile.len() > 5);
//! assert_eq!(profile.total_bytes(), trace.total_bytes());
//! // It persists as JSON and round-trips losslessly.
//! let back = ff_profile::Profile::from_json(&profile.to_json()).unwrap();
//! assert_eq!(profile, back);
//! ```

pub mod burst;
pub mod estimate;
pub mod hoard;
pub mod profile;
pub mod stage;

pub use burst::{BurstExtractor, IoBurst, MergedRequest, ProfiledBurst};
pub use estimate::{Estimate, Estimator};
pub use hoard::{HoardPlan, HoardPlanner};
pub use profile::{Profile, Profiler};
pub use stage::{first_stage_len, stages_of, Stage};
