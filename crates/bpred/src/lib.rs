//! # mim-bpred — branch predictors and their branch counts
//!
//! Branch-direction predictors used by the MIM toolkit, covering the two
//! configurations of the paper's design space (Table 2):
//!
//! * a 1 KB **gshare** predictor with global history, and
//! * a 3.5 KB **hybrid** predictor combining a 10-bit local-history
//!   component with a 12-bit global-history component via a chooser.
//!
//! [`PredictorConfig`] is the one description of a predictor: its name,
//! its storage budget and the predictor it [`build`](PredictorConfig::build)s.
//! [`BranchStats`] is the one branch count, recorded by
//! [`BranchStats::record`] wherever a prediction meets its outcome: the
//! profiler, which runs every candidate over one branch stream (§2.1:
//! "we also collect branch misprediction rates for multiple branch
//! predictors in a single run"), and the detailed simulator.
//!
//! ## Example
//!
//! ```
//! use mim_bpred::{BranchStats, PredictorConfig};
//!
//! let mut p = PredictorConfig::gshare_1k().build();
//! let mut stats = BranchStats::default();
//! // An always-taken branch becomes predictable once the global history
//! // register saturates (12 history bits -> all-ones after 12 outcomes).
//! for _ in 0..20 {
//!     stats.record(p.predict(0x40), true);
//!     p.update(0x40, true);
//! }
//! assert!(p.predict(0x40));
//! assert_eq!(stats.branches, 20);
//! assert_eq!(stats.mispredicts + stats.taken_correct, 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod gshare;
mod hybrid;
mod local;
mod predictor;

pub use predictor::{BranchPredictor, BranchStats, PredictorConfig};
