//! # mim-profile — the single-pass workload profiler
//!
//! The mechanistic modeling framework (paper §2.1, Figure 2) requires one
//! profiling run per program binary that collects:
//!
//! * **program statistics** — dynamic instruction mix and dependency-
//!   distance profiles (machine-independent, collected once);
//! * **mixed program–machine statistics** — cache/TLB miss counts for
//!   *every* cache configuration of interest (via single-pass multi-
//!   configuration cache simulation) and misprediction counts for *every*
//!   branch predictor of interest (each one predicting the same branch
//!   stream).
//!
//! [`SweepProfiler`] implements exactly that: one functional-simulation
//! pass produces a [`WorkloadProfile`] from which
//! [`ModelInputs`](mim_core::ModelInputs) for any design point of the
//! Table 2 space can be extracted instantly with
//! [`WorkloadProfile::inputs_for`]. [`Profiler`] is the single-machine
//! convenience wrapper.
//!
//! ## Example
//!
//! ```
//! use mim_core::{MachineConfig, MechanisticModel};
//! use mim_profile::Profiler;
//! use mim_workloads::{mibench, WorkloadSize};
//!
//! # fn main() -> Result<(), mim_isa::VmError> {
//! let machine = MachineConfig::default_config();
//! let program = mibench::sha().program(WorkloadSize::Tiny);
//! let inputs = Profiler::new(&machine).profile(&program)?;
//! let cpi = MechanisticModel::new(&machine).predict(&inputs).cpi();
//! assert!(cpi >= 0.25); // at least N/W on a 4-wide machine
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deps;
mod mlp;
mod sweep;

pub use deps::DepTracker;
pub use mlp::{estimate_mlp, estimate_mlp_source, MlpEstimate};
pub use sweep::{PredictorStats, Profiler, SweepProfiler, WorkloadProfile};
