//! # ff-device — storage-device power and performance models
//!
//! Implements the two I/O devices the paper simulates, with the exact
//! constants of Tables 1 and 2:
//!
//! * [`DiskModel`] — the Hitachi DK23DA 2.5" hard disk: Active / Idle /
//!   Standby states plus spin-up/-down transients, a 20 s idle timeout
//!   (Linux laptop-mode default), 13 ms average seek + 7 ms average
//!   rotation, 35 MB/s peak transfer, and sequential-access detection so
//!   contiguous requests skip head positioning (§2.1).
//! * [`WnicModel`] — the Cisco Aironet 350 802.11b card: CAM / PSM modes
//!   plus mode-switch transients, an 800 ms CAM→PSM idle timeout, the
//!   card's *adaptive dynamic power management* (traffic beyond one
//!   packet forces CAM; a single-packet request can be served during a
//!   PSM beacon wake-up), and configurable latency/bandwidth for the
//!   §3.3 sweeps.
//!
//! Both devices implement [`PowerModel`]; models are plain `Clone` data,
//! so the FlexFetch estimator can run them as the paper's cheap "on-line
//! simulators" (§2.2), and BlueFS can ask *what would this request cost*
//! without disturbing the live device.

//! ```
//! use ff_base::{Bytes, SimTime};
//! use ff_device::{DeviceRequest, DiskModel, DiskParams, PowerModel, Transition};
//!
//! // Service one 64 KiB read on an idle DK23DA and meter it.
//! let mut disk = DiskModel::new(DiskParams::hitachi_dk23da());
//! let out = disk.service(SimTime::ZERO, &DeviceRequest::read(Bytes::kib(64), Some(0)));
//! // 20 ms positioning + ~1.9 ms transfer at 2 W.
//! assert!(out.service_time.as_secs_f64() < 0.025);
//! assert!(out.energy.get() < 0.05);
//!
//! // Left alone past the 20 s timeout, it spins down to standby.
//! disk.advance_to(SimTime::from_secs(60));
//! assert!(!disk.is_ready());
//! assert_eq!(disk.meter().transition_count(Transition::SpinDown), 1);
//! ```

#![warn(missing_docs)]

pub mod consts;
pub mod disk;
pub mod flash;
pub mod meter;
pub mod model;
pub mod spindown;
pub mod wnic;

pub use disk::{DiskModel, DiskParams, DiskState};
pub use flash::{FlashModel, FlashParams};
pub use meter::{PowerState, StateChange, StateMeter, Transition};
pub use model::{DeviceRequest, Dir, PowerModel, ServiceOutcome};
pub use spindown::ShareSpindown;
pub use wnic::{WnicModel, WnicParams, WnicState};
