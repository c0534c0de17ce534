//! # mim — Mechanistic In-order Model
//!
//! A full reproduction of *"A Mechanistic Performance Model for Superscalar
//! In-Order Processors"* (Breughe, Eyerman & Eeckhout, ISPASS 2012) as a
//! Rust workspace. This facade crate re-exports every subsystem:
//!
//! * [`isa`] — virtual RISC-style ISA, program builder, functional VM
//! * [`cache`] — set-associative caches, TLBs, single-pass multi-config sweeps
//! * [`bpred`] — branch predictors, their configurations and branch counts
//! * [`core`] — **the paper's mechanistic model**: Eq. 1–16, CPI stacks,
//!   machine configurations, design spaces, and the out-of-order interval
//!   model used as a comparator (paper §6.1)
//! * [`workloads`] — MiBench-like and SPEC-like kernels plus compiler passes
//! * [`trace`] — **record-once dynamic traces**: each `(workload, size)` is
//!   functionally executed exactly once ([`Trace`](mim_trace::Trace)), and
//!   the profiler, simulator, and MLP estimator replay the recording
//! * [`profile`] — one-pass profiler producing the model's inputs (Table 1)
//! * [`pipeline`] — cycle-accurate in-order pipeline simulator (the "M5")
//! * [`runner`] — **the unified evaluation API**: the object-safe
//!   [`Evaluator`](mim_runner::Evaluator) trait over model / simulator /
//!   out-of-order comparator, and the [`Experiment`](mim_runner::Experiment)
//!   builder for parallel design-space sweeps with deterministic,
//!   JSON-serializable reports
//! * [`power`] — McPAT-like energy model and EDP evaluation
//! * [`explore`] — **design-space exploration**: minimized
//!   [`Objective`](mim_explore::Objective)s over evaluation results, exact
//!   Pareto [`Frontier`](mim_explore::Frontier)s, pluggable
//!   [`SearchStrategy`](mim_explore::SearchStrategy)s (exhaustive, greedy,
//!   annealing), and the paper's hybrid model→sim workflow
//!   ([`Exploration::sim_verify`](mim_explore::Exploration::sim_verify))
//! * [`validate`] — **behavior-space differential validation**: a
//!   [`BehaviorSpace`](mim_validate::BehaviorSpace) grid over synthetic-
//!   recipe axes, [`DifferentialRun`](mim_validate::DifferentialRun)s of
//!   model vs detailed simulation over every (behaviour × design) cell,
//!   and per-term error attribution that names the model term responsible
//!   for each disagreement
//! * [`select`] — **workload characterization and representative-input
//!   selection**: microarchitecture-independent
//!   [`Signature`](mim_select::Signature)s, deterministic clustering
//!   (seeded k-medoids with silhouette auto-`k`), weighted
//!   [`RepresentativeSet`](mim_select::RepresentativeSet)s, and
//!   [`SubsetRun`](mim_select::SubsetRun)s that sweep a design space on
//!   the medoids only and report extrapolated metrics with a
//!   sim-verified error bound
//! * [`serve`] — **the concurrent evaluation service**: a persistent,
//!   sharded, content-addressed on-disk workload store
//!   ([`DiskStore`](mim_serve::DiskStore)) under the shared
//!   [`WorkloadStore`](mim_runner::WorkloadStore), a job
//!   [`Engine`](mim_serve::Engine) (bounded queue, worker pool, job- and
//!   cell-level dedup of overlapping sweeps), and a line-delimited JSON
//!   protocol over TCP/unix sockets served by the `mim-serve` binary —
//!   repeated and overlapping requests never re-execute anything, even
//!   across process restarts
//!
//! ## Quickstart
//!
//! Declare what to evaluate; the `Experiment` owns profiling (one pass per
//! workload, paper §2.1), evaluator wiring, parallelism, and reporting:
//!
//! ```
//! use mim::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. One experiment: a workload, the default machine, two evaluators.
//! let report = Experiment::new()
//!     .workload(mim::workloads::mibench::sha())
//!     .size(WorkloadSize::Tiny)
//!     .evaluators([EvalKind::Model, EvalKind::Sim])
//!     .run()?;
//!
//! // 2. Every cell is a unified, serializable record.
//! let model = report.get("sha", 0, "model").expect("model cell");
//! assert!(model.cpi >= 1.0 / 4.0); // at least N/W on a 4-wide machine
//! assert!(model.stack.is_some());  // analytical rows carry CPI stacks
//!
//! // 3. Model-vs-simulation comparison is a generic two-evaluator diff.
//! let diff = report.compare("model", "sim");
//! assert!(diff[0].error_percent.abs() < 15.0, "model within 15% of sim");
//! # Ok(())
//! # }
//! ```
//!
//! Design-space exploration is the same declaration plus a space and a
//! thread count — the paper's 192-point Table 2 sweep:
//!
//! ```no_run
//! use mim::prelude::*;
//! use mim::core::DesignSpace;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let report = Experiment::new()
//!     .workloads(mim::workloads::mibench::all())
//!     .design_space(DesignSpace::paper_table2())
//!     .evaluators([EvalKind::Model])
//!     .energy(true)   // §6.3: EDP per design point
//!     .threads(0)     // all cores; any thread count → identical bytes
//!     .run()?;
//! assert_eq!(report.machines.len(), 192);
//! std::fs::write("sweep.json", report.to_json())?;
//! # Ok(())
//! # }
//! ```
//!
//! The underlying subsystems remain directly usable (see
//! [`profile::Profiler`], [`core::MechanisticModel`],
//! [`pipeline::PipelineSim`]) — the runner is
//! composition, not a wall.

pub use mim_bpred as bpred;
pub use mim_cache as cache;
pub use mim_core as core;
pub use mim_explore as explore;
pub use mim_isa as isa;
pub use mim_pipeline as pipeline;
pub use mim_power as power;
pub use mim_profile as profile;
pub use mim_runner as runner;
pub use mim_select as select;
pub use mim_serve as serve;
pub use mim_trace as trace;
pub use mim_validate as validate;
pub use mim_workloads as workloads;

/// Convenient glob-import surface for applications.
pub mod prelude {
    pub use mim_core::{CpiStack, DesignSpace, MachineConfig, MechanisticModel, OooModel};
    pub use mim_explore::{
        Anneal, Exhaustive, Exploration, ExplorationReport, Frontier, GreedyAscent, Objective,
        SearchStrategy,
    };
    pub use mim_isa::{Program, ProgramBuilder, Reg, Vm};
    pub use mim_pipeline::PipelineSim;
    pub use mim_power::{EnergyModel, EnergyReport};
    pub use mim_profile::Profiler;
    pub use mim_runner::{
        CellMemo, EvalKind, EvalResult, Evaluator, Experiment, ExperimentReport, ModelEvaluator,
        OooEvaluator, SimEvaluator, StoreStats, WorkloadSpec, WorkloadStore,
    };
    pub use mim_select::{RepresentativeSet, Selection, Signature, SubsetReport, SubsetRun};
    pub use mim_serve::{Client, Engine, JobSpec, Server};
    pub use mim_trace::{LiveVm, Sampling, Trace, TraceSource};
    pub use mim_validate::{BehaviorSpace, DifferentialRun, ErrorTerm, ValidationReport};
    pub use mim_workloads::WorkloadSize;
}
