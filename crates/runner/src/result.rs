//! The unified evaluation record every [`Evaluator`](crate::Evaluator)
//! produces.

use std::error::Error;
use std::fmt;

use mim_bpred::BranchStats;
use mim_cache::MissCounts;
use mim_core::{CpiStack, CpiTimeline};
use mim_isa::VmError;
use mim_power::EnergyReport;
use serde::{Deserialize, Serialize};

/// Which family of evaluator produced a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EvalKind {
    /// The paper's mechanistic in-order model (profile once, then
    /// closed-form evaluation per design point).
    Model,
    /// The cycle-accurate in-order pipeline simulator (the "detailed
    /// simulation" reference).
    Sim,
    /// The first-order out-of-order interval model (the §6.1 comparator).
    Ooo,
    /// The sampled pipeline simulator: detailed timing on periodic sample
    /// units with functional warming between them, reporting a CLT 95%
    /// confidence interval alongside the scaled estimate.
    Sampled,
}

impl EvalKind {
    /// Canonical lower-case label (also the default evaluator name).
    pub fn label(self) -> &'static str {
        match self {
            EvalKind::Model => "model",
            EvalKind::Sim => "sim",
            EvalKind::Ooo => "ooo",
            EvalKind::Sampled => "sampled",
        }
    }
}

impl fmt::Display for EvalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Sampling statistics attached to results from the sampled simulator.
///
/// Mirrors [`SimResult::sampling`](mim_pipeline::SimResult::sampling) in
/// serializable form: how much
/// of the stream was measured in detail and how tight the CLT interval
/// around the reported CPI is.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplingSummary {
    /// Number of sample units the estimate aggregates.
    pub units: u64,
    /// Instructions simulated in detail (measured windows only).
    pub measured_instructions: u64,
    /// Fraction of the walked stream measured in detail.
    pub fraction: f64,
    /// CLT 95% confidence half-width (±ε) on the reported CPI.
    pub cpi_ci95: f64,
}

/// One evaluation outcome: a (workload, machine, evaluator) cell.
///
/// This is the unified record the whole harness traffics in — comparing a
/// model against detailed simulation is a generic diff of two
/// `EvalResult`s (see [`ExperimentReport::compare`]) instead of bespoke
/// per-binary glue.
///
/// Serialization is deterministic: `wall_seconds` (which varies run to
/// run) is `#[serde(skip)]`, so reports serialized from a parallel run are
/// byte-identical to a serial run's.
///
/// [`ExperimentReport::compare`]: crate::ExperimentReport::compare
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalResult {
    /// Workload name.
    pub workload: String,
    /// Evaluator name (defaults to the kind's label; ablation or custom
    /// evaluators override it).
    pub evaluator: String,
    /// Evaluator family.
    pub kind: EvalKind,
    /// Identifier of the machine configuration evaluated.
    pub machine_id: String,
    /// Index of the design point within the experiment's machine list.
    pub machine_index: usize,
    /// Dynamic instructions evaluated.
    pub instructions: u64,
    /// Predicted or simulated execution cycles.
    pub cycles: f64,
    /// Cycles per instruction.
    pub cpi: f64,
    /// CPI stack components (analytical evaluators only).
    pub stack: Option<CpiStack>,
    /// Cache/TLB miss counters, when the evaluator observes them.
    pub misses: Option<MissCounts>,
    /// Branch counters, when the evaluator observes them.
    pub branch: Option<BranchStats>,
    /// Energy/EDP evaluation, when the experiment enables it.
    pub energy: Option<EnergyReport>,
    /// Sampling statistics (sampled simulator only).
    pub sampling: Option<SamplingSummary>,
    /// Per-interval CPI-stack timeline (simulator evaluators with
    /// [`Experiment::timeline`](crate::Experiment::timeline) enabled).
    /// Excluded from serialization — like `wall_seconds` it is
    /// out-of-band, so report payloads are byte-identical whether
    /// timelines are captured or not; export it explicitly via
    /// [`CpiTimeline`]'s own serialization when needed.
    #[serde(skip)]
    pub timeline: Option<CpiTimeline>,
    /// Wall-clock seconds this evaluation took. Excluded from
    /// serialization so reports stay deterministic.
    #[serde(skip)]
    pub wall_seconds: f64,
}

impl EvalResult {
    /// Execution time in seconds at `frequency_ghz`.
    pub fn time_seconds(&self, frequency_ghz: f64) -> f64 {
        mim_core::cycles_to_seconds(self.cycles, frequency_ghz)
    }

    /// The energy-delay product, if energy evaluation was enabled.
    pub fn edp(&self) -> Option<f64> {
        self.energy.as_ref().map(EnergyReport::edp)
    }

    /// The energy-delay-squared product, if energy evaluation was enabled.
    pub fn ed2p(&self) -> Option<f64> {
        self.energy.as_ref().map(EnergyReport::ed2p)
    }

    /// Total energy in joules, if energy evaluation was enabled.
    pub fn total_joules(&self) -> Option<f64> {
        self.energy.as_ref().map(EnergyReport::total_joules)
    }

    /// Execution time in seconds as the energy model accounted it (cycles
    /// at the design point's own frequency), if energy evaluation was
    /// enabled. Objectives read delay here instead of recomputing activity.
    pub fn delay_seconds(&self) -> Option<f64> {
        self.energy.as_ref().map(|e| e.time_seconds)
    }
}

/// Error produced by an evaluator (program fault during profiling or
/// simulation, or an invalid experiment configuration).
#[derive(Debug, Clone, PartialEq)]
pub struct EvalError {
    /// Workload being evaluated, if known.
    pub workload: String,
    /// Evaluator that failed.
    pub evaluator: String,
    /// Human-readable cause.
    pub message: String,
}

impl EvalError {
    /// Creates an error with full context.
    pub fn new(
        workload: impl Into<String>,
        evaluator: impl Into<String>,
        message: impl fmt::Display,
    ) -> EvalError {
        EvalError {
            workload: workload.into(),
            evaluator: evaluator.into(),
            message: message.to_string(),
        }
    }

    /// Wraps a VM fault.
    pub fn vm(workload: &str, evaluator: &str, error: &VmError) -> EvalError {
        EvalError::new(workload, evaluator, error)
    }

    /// Wraps a trace-layer error (recording fault or corrupt replay).
    pub fn trace(workload: &str, evaluator: &str, error: &mim_trace::TraceError) -> EvalError {
        EvalError::new(workload, evaluator, error)
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "evaluating `{}` with `{}`: {}",
            self.workload, self.evaluator, self.message
        )
    }
}

impl Error for EvalError {}
