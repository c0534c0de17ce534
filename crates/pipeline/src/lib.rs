//! # mim-pipeline — cycle-accurate superscalar in-order simulation
//!
//! The "detailed simulation" baseline of the reproduction (the paper's role
//! for M5): a cycle-accurate timing model of the W-wide in-order pipeline
//! described in paper §2.2, sharing its cache, TLB and branch-predictor
//! components with the profiler so that miss counts agree exactly and only
//! *timing* differs between model and simulation.
//!
//! The simulator models:
//!
//! * a `D`-stage front end feeding a W-wide execute stage, with front-end
//!   capacity backpressure;
//! * full forwarding and **stall-on-use** in-order issue (issue stops at
//!   the first instruction with an unavailable operand);
//! * non-pipelined multi-cycle multiply/divide that block all younger
//!   instructions (in-order commit, §2.2);
//! * loads/stores resolving in the memory stage (load-use bubble), with
//!   blocking L1 misses that stall the memory stage for the L2 hit or
//!   memory latency, plus TLB walks;
//! * I-cache misses that stall fetch; the taken-branch fetch bubble; and
//!   branch mispredictions that squash the front end (resolution in EX,
//!   refill of `D` stages).
//!
//! ## Drivers
//!
//! [`PipelineSim::simulate_source`] is the simulator: a `BlockHooks` set
//! (`mim-isa`'s one observer protocol) driven by any `mim-trace` source,
//! live or replayed, full or sampled. The source fires the hooks; the
//! simulator sends each instruction's fetch to the caches at
//! `before_instruction`, its data access at `mem_access`, takes the
//! branch direction at `cond_branch`, and runs the timing kernel at the
//! after-hooks. Inside a whole block (`begin_block`) only the first fetch
//! of each static fetch run reaches the caches, and a sampling plan is
//! walked one phase run at a time.
//! [`PipelineSim::simulate_events`] is its oracle: the event-walking loop
//! over `TraceSource::drive_phased`, every fetch and every phase per
//! event. The two share the timing kernel and give byte-equal
//! [`SimResult`]s.
//!
//! ## Example
//!
//! ```
//! use mim_core::MachineConfig;
//! use mim_pipeline::PipelineSim;
//! use mim_workloads::{mibench, WorkloadSize};
//!
//! # fn main() -> Result<(), mim_isa::VmError> {
//! let machine = MachineConfig::default_config();
//! let program = mibench::sha().program(WorkloadSize::Tiny);
//! let result = PipelineSim::new(&machine).simulate(&program)?;
//! assert!(result.cpi() >= 0.25); // cannot beat N/W on a 4-wide core
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sim;

pub use sim::{PipelineSim, SimIdealization, SimResult};
