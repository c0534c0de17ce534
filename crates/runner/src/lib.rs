//! # mim-runner — the unified evaluation API
//!
//! The paper's headline claim (§5) is that the mechanistic model turns
//! design-space exploration into microseconds per point. This crate is
//! that claim's API surface: instead of hand-wiring
//! `Profiler` → `MechanisticModel` / `PipelineSim` / `OooModel` in every
//! experiment, callers compose two layers:
//!
//! * [`Evaluator`] — an object-safe trait mapping `(workload, size)` to a
//!   unified, serializable [`EvalResult`] (CPI, cycles, CPI-stack
//!   components, miss/branch counters, optional energy). The built-in
//!   evaluators are one builder, [`Evaluation`], with three methods:
//!   [`ModelEvaluator`] (mechanistic model over a cached
//!   [`WorkloadProfile`](mim_profile::WorkloadProfile)), [`SimEvaluator`]
//!   (cycle-accurate pipeline; with a sampling plan, statistically
//!   sampled simulation with functional warming, reporting a CLT 95%
//!   confidence interval in [`SamplingSummary`]), and [`OooEvaluator`]
//!   (out-of-order interval model). [`EvalOptions::build`] is the one
//!   place an [`EvalKind`] becomes an evaluator.
//! * [`Experiment`] — a builder running the (workload × design-point ×
//!   evaluator) grid: each workload is functionally executed **once**
//!   (recorded into a [`Trace`](mim_trace::Trace) held by the shared
//!   [`WorkloadStore`]) and every consumer — the
//!   [`SweepProfiler`](mim_profile::SweepProfiler) pass, every
//!   cycle-accurate simulation cell, the MLP estimator — replays that
//!   recording (the §2.1 framework applied to the whole stack). The grid
//!   runs across `threads(n)` workers with deterministic result ordering
//!   and a JSON-serializable [`ExperimentReport`] whose bytes are
//!   identical for any thread count.
//!
//! ## Example: model-vs-simulation validation in six lines
//!
//! ```
//! use mim_runner::{EvalKind, Experiment};
//! use mim_workloads::{mibench, WorkloadSize};
//!
//! let report = Experiment::new()
//!     .workloads([mibench::sha(), mibench::qsort()])
//!     .size(WorkloadSize::Tiny)
//!     .evaluators([EvalKind::Model, EvalKind::Sim])
//!     .run()
//!     .unwrap();
//! let rows = report.compare("model", "sim");
//! assert!(rows.iter().all(|r| r.error_percent.abs() < 25.0));
//! ```
//!
//! ## Example: a 192-point design-space sweep
//!
//! ```no_run
//! use mim_core::DesignSpace;
//! use mim_runner::{EvalKind, Experiment};
//! use mim_workloads::mibench;
//!
//! let report = Experiment::new()
//!     .workloads(mibench::all())
//!     .design_space(DesignSpace::paper_table2())
//!     .evaluators([EvalKind::Model])
//!     .energy(true)
//!     .threads(0) // all cores
//!     .run()
//!     .unwrap();
//! assert_eq!(report.machines.len(), 192);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cells;
mod disk;
mod evaluator;
mod experiment;
mod memo;
mod result;
mod spec;
mod store;

pub use cells::{CellMemo, CellStats};
pub use disk::{DiskStore, StoreError};
pub use evaluator::{
    EvalOptions, Evaluation, Evaluator, ModelEvaluator, OooEvaluator, SampledSimEvaluator,
    SimEvaluator,
};
pub use experiment::{
    parallel_map, print_comparison, resolve_threads, CpiComparison, Experiment, ExperimentReport,
    ExperimentTiming,
};
pub use result::{EvalError, EvalKind, EvalResult, SamplingSummary};
pub use spec::WorkloadSpec;
pub use store::{StoreStats, WorkloadStore};

/// The sampling plan [`SimEvaluator::with_sampling`] and
/// [`Experiment::sampling`] take.
pub use mim_trace::Sampling;
