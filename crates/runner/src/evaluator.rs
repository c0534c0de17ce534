//! The object-safe [`Evaluator`] trait and its three implementations.
//!
//! Every evaluator maps `(workload, size)` to a unified [`EvalResult`];
//! model-vs-simulation comparison is a generic diff of two results rather
//! than bespoke per-binary wiring. All three implementations share a
//! [`WorkloadStore`], so a workload is functionally executed exactly once
//! per sweep — recorded into a trace that is replayed for profiling,
//! simulation, and MLP estimation alike, no matter how many evaluators
//! and design points consume it (the paper's §2.1 framework applied to
//! the whole stack).

use std::sync::Arc;
use std::time::Instant;

use mim_bpred::PredictorConfig;
use mim_cache::{CacheConfig, HierarchyConfig};
use mim_core::{
    CpiStack, DesignPoint, DesignSpace, MachineConfig, MechanisticModel, ModelInputs, OooConfig,
    OooModel, StackComponent,
};
use mim_pipeline::{PipelineSim, SimResult};
use mim_power::{Activity, EnergyModel};
use mim_workloads::WorkloadSize;

use mim_trace::{Sampling, TraceError};

use crate::result::{BranchSummary, EvalError, EvalKind, EvalResult, SamplingSummary};
use crate::spec::WorkloadSpec;
use crate::store::WorkloadStore;

/// An object-safe performance evaluator: anything that can score a
/// workload on its machine configuration.
///
/// Implementations are [`ModelEvaluator`] (the mechanistic model),
/// [`SimEvaluator`] (cycle-accurate simulation) and [`OooEvaluator`] (the
/// out-of-order interval model); downstream code can add its own.
///
/// # Example
///
/// ```
/// use mim_core::MachineConfig;
/// use mim_runner::{Evaluator, ModelEvaluator, SimEvaluator, WorkloadSpec};
/// use mim_workloads::{mibench, WorkloadSize};
///
/// let machine = MachineConfig::default_config();
/// let evaluators: Vec<Box<dyn Evaluator>> = vec![
///     Box::new(ModelEvaluator::new(&machine)),
///     Box::new(SimEvaluator::new(&machine)),
/// ];
/// let spec = WorkloadSpec::from(mibench::sha());
/// for e in &evaluators {
///     let r = e.evaluate(&spec, WorkloadSize::Tiny).unwrap();
///     assert!(r.cpi >= 0.25); // cannot beat N/W on a 4-wide machine
/// }
/// ```
pub trait Evaluator: Send + Sync {
    /// Display name (unique within an experiment).
    fn name(&self) -> &str;

    /// Which evaluator family this is.
    fn kind(&self) -> EvalKind;

    /// Evaluates one workload at one size.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] if the program faults while profiling or
    /// simulating.
    fn evaluate(
        &self,
        workload: &WorkloadSpec,
        size: WorkloadSize,
    ) -> Result<EvalResult, EvalError>;
}

/// The (hierarchy, candidate-lists, selected-indices) context that lets an
/// evaluator share one profiling pass across an entire design space.
#[derive(Clone)]
struct SweepContext {
    hierarchy: HierarchyConfig,
    l2s: Vec<CacheConfig>,
    predictors: Vec<PredictorConfig>,
    l2_index: usize,
    predictor_index: usize,
}

impl SweepContext {
    /// Degenerate context: profile exactly this machine's L2/predictor.
    fn single(machine: &MachineConfig) -> SweepContext {
        SweepContext {
            hierarchy: machine.hierarchy.clone(),
            l2s: vec![machine.hierarchy.l2.clone()],
            predictors: vec![machine.predictor.clone()],
            l2_index: 0,
            predictor_index: 0,
        }
    }

    /// Context for one point of a design space: profile all candidates
    /// once, select this point's.
    fn for_point(space: &DesignSpace, point: &DesignPoint) -> SweepContext {
        SweepContext {
            hierarchy: space.base().hierarchy.clone(),
            l2s: space.l2_configs().to_vec(),
            predictors: space.predictor_configs().to_vec(),
            l2_index: point.l2_index,
            predictor_index: point.predictor_index,
        }
    }

    fn inputs(
        &self,
        store: &WorkloadStore,
        spec: &WorkloadSpec,
        size: WorkloadSize,
        limit: Option<u64>,
    ) -> Result<ModelInputs, EvalError> {
        let profile = store.profile(
            spec,
            size,
            limit,
            &self.hierarchy,
            &self.l2s,
            &self.predictors,
        )?;
        Ok(profile.inputs_for(self.l2_index, self.predictor_index))
    }
}

#[allow(clippy::too_many_arguments)]
fn result_from_stack(
    spec: &WorkloadSpec,
    name: &str,
    kind: EvalKind,
    machine: &MachineConfig,
    machine_index: usize,
    inputs: &ModelInputs,
    stack: CpiStack,
    energy: bool,
    wall_seconds: f64,
) -> EvalResult {
    let energy = energy.then(|| {
        EnergyModel::new(machine).evaluate(&Activity::from_model(inputs, stack.total_cycles()))
    });
    EvalResult {
        workload: spec.name().to_string(),
        evaluator: name.to_string(),
        kind,
        machine_id: machine.id(),
        machine_index,
        instructions: inputs.num_insts,
        cycles: stack.total_cycles(),
        cpi: stack.cpi(),
        misses: Some(inputs.misses),
        branch: Some(BranchSummary {
            branches: inputs.branch.branches,
            mispredicts: inputs.branch.mispredicts,
            taken_correct: inputs.branch.taken_correct,
        }),
        stack: Some(stack),
        energy,
        sampling: None,
        timeline: None,
        wall_seconds,
    }
}

/// Transformation applied to the profiled [`ModelInputs`] before the model
/// evaluates them — the per-term *profile swap hook*.
///
/// Differential validation uses it to substitute externally measured
/// statistics (e.g. the simulator's miss counts) into the profile one term
/// at a time, isolating how much of a model-vs-simulation disagreement is
/// a *measurement* difference versus an *approximation* difference.
pub type InputsMap = Arc<dyn Fn(ModelInputs) -> ModelInputs + Send + Sync>;

/// Evaluates workloads with the paper's mechanistic in-order model: one
/// cached profiling pass, then closed-form prediction per design point.
#[derive(Clone)]
pub struct ModelEvaluator {
    machine: MachineConfig,
    sweep: SweepContext,
    store: WorkloadStore,
    limit: Option<u64>,
    name: String,
    ablated: Vec<StackComponent>,
    energy: bool,
    inputs_map: Option<InputsMap>,
}

impl ModelEvaluator {
    /// Model evaluator for a single machine configuration.
    pub fn new(machine: &MachineConfig) -> ModelEvaluator {
        ModelEvaluator {
            machine: machine.clone(),
            sweep: SweepContext::single(machine),
            store: WorkloadStore::new(),
            limit: None,
            name: EvalKind::Model.label().to_string(),
            ablated: Vec::new(),
            energy: false,
            inputs_map: None,
        }
    }

    /// Model evaluator for one point of a design space. All points of the
    /// same space share a single recording + profiling pass per workload
    /// (provided they share a [`WorkloadStore`], see [`with_cache`]).
    ///
    /// [`with_cache`]: ModelEvaluator::with_cache
    pub fn for_point(space: &DesignSpace, point: &DesignPoint) -> ModelEvaluator {
        ModelEvaluator {
            machine: point.machine.clone(),
            sweep: SweepContext::for_point(space, point),
            store: WorkloadStore::new(),
            limit: None,
            name: EvalKind::Model.label().to_string(),
            ablated: Vec::new(),
            energy: false,
            inputs_map: None,
        }
    }

    /// Shares a workload store (recordings + profiles) with other
    /// evaluators.
    pub fn with_cache(mut self, store: WorkloadStore) -> ModelEvaluator {
        self.store = store;
        self
    }

    /// Truncates profiling to `limit` retired instructions.
    pub fn with_limit(mut self, limit: Option<u64>) -> ModelEvaluator {
        self.limit = limit;
        self
    }

    /// Overrides the evaluator's display name.
    pub fn with_name(mut self, name: impl Into<String>) -> ModelEvaluator {
        self.name = name.into();
        self
    }

    /// Zeroes the given penalty terms before summing the stack (the
    /// ablation study's knob).
    pub fn with_ablation(mut self, ablated: Vec<StackComponent>) -> ModelEvaluator {
        self.ablated = ablated;
        self
    }

    /// Also evaluates the energy model, populating
    /// [`EvalResult::energy`].
    pub fn with_energy(mut self, energy: bool) -> ModelEvaluator {
        self.energy = energy;
        self
    }

    /// Installs a profile-swap hook: the profiled [`ModelInputs`] pass
    /// through `map` before the model evaluates them.
    ///
    /// This is the substitution point for differential validation — swap
    /// simulator-measured miss or branch statistics into the profile one
    /// term at a time and re-predict, attributing disagreement to the
    /// specific input term that moved the prediction.
    ///
    /// # Example
    ///
    /// ```
    /// use mim_core::MachineConfig;
    /// use mim_runner::{Evaluator, ModelEvaluator, WorkloadSpec};
    /// use mim_workloads::{mibench, WorkloadSize};
    ///
    /// let machine = MachineConfig::default_config();
    /// let pessimist = ModelEvaluator::new(&machine)
    ///     .with_name("model+10%misses")
    ///     .with_inputs_map(|mut inputs| {
    ///         inputs.misses.l1d_misses += inputs.misses.l1d_misses / 10;
    ///         inputs
    ///     });
    /// let spec = WorkloadSpec::from(mibench::sha());
    /// let base = ModelEvaluator::new(&machine)
    ///     .evaluate(&spec, WorkloadSize::Tiny)
    ///     .unwrap();
    /// let swapped = pessimist.evaluate(&spec, WorkloadSize::Tiny).unwrap();
    /// assert!(swapped.cpi >= base.cpi);
    /// ```
    pub fn with_inputs_map(
        mut self,
        map: impl Fn(ModelInputs) -> ModelInputs + Send + Sync + 'static,
    ) -> ModelEvaluator {
        self.inputs_map = Some(Arc::new(map));
        self
    }
}

impl Evaluator for ModelEvaluator {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> EvalKind {
        EvalKind::Model
    }

    fn evaluate(
        &self,
        workload: &WorkloadSpec,
        size: WorkloadSize,
    ) -> Result<EvalResult, EvalError> {
        let t0 = Instant::now();
        let mut inputs = self.sweep.inputs(&self.store, workload, size, self.limit)?;
        if let Some(map) = &self.inputs_map {
            inputs = map(inputs);
        }
        let model = MechanisticModel::new(&self.machine);
        let stack = if self.ablated.is_empty() {
            model.predict(&inputs)
        } else {
            model.predict_ablated(&inputs, &self.ablated)
        };
        Ok(result_from_stack(
            workload,
            &self.name,
            EvalKind::Model,
            &self.machine,
            0,
            &inputs,
            stack,
            self.energy,
            t0.elapsed().as_secs_f64(),
        ))
    }
}

/// Evaluates workloads with the cycle-accurate in-order pipeline
/// simulator — the "detailed simulation" reference the model is validated
/// against — in full, or sampled under a plan
/// ([`with_sampling`](SimEvaluator::with_sampling)).
///
/// A sampled evaluator runs detailed timing on the plan's periodic
/// windows, functionally warms caches and the branch predictor between
/// them, and reports a CLT 95% confidence interval over per-unit CPIs in
/// [`EvalResult::sampling`]. When the shared [`WorkloadStore`] has a
/// persistent [`DiskStore`] attached, a sampled evaluator replays the
/// trace **incrementally from disk** ([`DiskStore::stream_trace`]) so
/// evaluation memory stays bounded by the stream's fixed windows — the
/// path for streams too long to materialize. Otherwise it replays the
/// store's in-memory recording; both paths walk byte-identical event
/// streams.
///
/// [`DiskStore`]: crate::DiskStore
/// [`DiskStore::stream_trace`]: crate::DiskStore::stream_trace
#[derive(Clone)]
pub struct SimEvaluator {
    machine: MachineConfig,
    sweep: SweepContext,
    store: WorkloadStore,
    limit: Option<u64>,
    name: String,
    sampling: Option<Sampling>,
    energy: bool,
    timeline: Option<u64>,
}

impl SimEvaluator {
    /// Full-simulation evaluator for a single machine configuration.
    pub fn new(machine: &MachineConfig) -> SimEvaluator {
        SimEvaluator {
            machine: machine.clone(),
            sweep: SweepContext::single(machine),
            store: WorkloadStore::new(),
            limit: None,
            name: SimEvaluator::default_name(None),
            sampling: None,
            energy: false,
            timeline: None,
        }
    }

    /// Full-simulation evaluator for one point of a design space.
    pub fn for_point(space: &DesignSpace, point: &DesignPoint) -> SimEvaluator {
        SimEvaluator {
            machine: point.machine.clone(),
            sweep: SweepContext::for_point(space, point),
            ..SimEvaluator::new(&point.machine)
        }
    }

    /// The display name an evaluator has until
    /// [`with_name`](SimEvaluator::with_name) overrides it: `sim`, or for a
    /// sampled one its plan's geometry (`sampled-p1000-l100-w900-o100`),
    /// so results from different plans never collide in memoized
    /// experiment cells.
    fn default_name(sampling: Option<Sampling>) -> String {
        match sampling {
            None => EvalKind::Sim.label().to_string(),
            Some(s) => format!(
                "sampled-p{}-l{}-w{}-o{}",
                s.period(),
                s.length(),
                s.warmup(),
                s.offset()
            ),
        }
    }

    /// Shares a workload store: the simulator replays the store's one
    /// recorded execution per workload (and reads the profile from it when
    /// energy evaluation needs the instruction mix).
    pub fn with_cache(mut self, store: WorkloadStore) -> SimEvaluator {
        self.store = store;
        self
    }

    /// Truncates the walked stream to `limit` retired instructions.
    pub fn with_limit(mut self, limit: Option<u64>) -> SimEvaluator {
        self.limit = limit;
        self
    }

    /// Overrides the evaluator's display name.
    pub fn with_name(mut self, name: impl Into<String>) -> SimEvaluator {
        self.name = name.into();
        self
    }

    /// Sets (or, with `None`, clears) the sampling plan. A planned
    /// evaluator reports [`EvalKind::Sampled`]; if its name is still the
    /// default one, it is renamed to match the plan.
    pub fn with_sampling(mut self, sampling: Option<Sampling>) -> SimEvaluator {
        if self.name == SimEvaluator::default_name(self.sampling) {
            self.name = SimEvaluator::default_name(sampling);
        }
        self.sampling = sampling;
        self
    }

    /// Also evaluates the energy model (profiles the workload for the
    /// instruction mix the energy model needs).
    pub fn with_energy(mut self, energy: bool) -> SimEvaluator {
        self.energy = energy;
        self
    }

    /// Also captures a per-interval [`mim_core::CpiTimeline`] at the given
    /// instruction-interval width, populating [`EvalResult::timeline`].
    /// A sampled run's timeline covers the measured windows,
    /// walked-position-aligned with a full run's timeline at the same
    /// width (see [`PipelineSim::with_timeline`]). `None` (the default)
    /// keeps the simulator timeline-free.
    pub fn with_timeline(mut self, interval: Option<u64>) -> SimEvaluator {
        self.timeline = interval;
        self
    }

    fn simulate(
        &self,
        workload: &WorkloadSpec,
        size: WorkloadSize,
    ) -> Result<SimResult, EvalError> {
        let trace_error = |e: TraceError| EvalError::trace(workload.name(), &self.name, &e);
        let program = self.store.program(workload, size);
        let mut pipeline = PipelineSim::new(&self.machine);
        if let Some(interval) = self.timeline {
            pipeline = pipeline.with_timeline(interval);
        }
        // A sampled run prefers the persistent store's incremental read
        // path: O(chunk) memory instead of O(trace). A damaged entry
        // degrades to the in-memory path, like every other DiskStore read
        // — also when the damage only shows during the walk (bytes after
        // the recording are found at its end). The in-memory path then
        // rejects the entry, re-records and rewrites it.
        if let Some(plan) = self.sampling {
            if let Some(stream) = self
                .store
                .disk()
                .and_then(|disk| disk.stream_trace(&program, self.limit).ok().flatten())
            {
                if let Ok(sim) = pipeline.simulate_source(&mut stream.with_sampling(plan)) {
                    return Ok(sim);
                }
            }
        }
        // Pure timing pass: replay the store's one recorded functional
        // execution instead of re-interpreting the program per design
        // point.
        let trace = self.store.trace(workload, size, self.limit)?;
        let mut replay = trace.replay(&program).map_err(trace_error)?;
        if let Some(plan) = self.sampling {
            replay = replay.with_sampling(plan);
        }
        pipeline.simulate_source(&mut replay).map_err(trace_error)
    }
}

impl Evaluator for SimEvaluator {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> EvalKind {
        if self.sampling.is_some() {
            EvalKind::Sampled
        } else {
            EvalKind::Sim
        }
    }

    fn evaluate(
        &self,
        workload: &WorkloadSpec,
        size: WorkloadSize,
    ) -> Result<EvalResult, EvalError> {
        let t0 = Instant::now();
        let sim = self.simulate(workload, size)?;
        let inputs = if self.energy {
            Some(self.sweep.inputs(&self.store, workload, size, self.limit)?)
        } else {
            None
        };
        let energy = inputs.as_ref().map(|inputs| {
            EnergyModel::new(&self.machine).evaluate(&Activity::from_sim(&sim, inputs))
        });
        Ok(EvalResult {
            workload: workload.name().to_string(),
            evaluator: self.name.clone(),
            kind: self.kind(),
            machine_id: self.machine.id(),
            machine_index: 0,
            instructions: sim.instructions,
            cycles: sim.cycles as f64,
            // A sampled run reports the estimator's mean per-unit CPI,
            // not the rounded cycles/instructions quotient.
            cpi: sim.sampling.as_ref().map_or(sim.cpi(), |stats| stats.cpi),
            stack: None,
            misses: Some(sim.misses),
            branch: Some(BranchSummary {
                branches: sim.branches,
                mispredicts: sim.mispredicts,
                taken_correct: sim.taken_correct,
            }),
            energy,
            sampling: sim.sampling.as_ref().map(|stats| SamplingSummary {
                units: stats.units,
                measured_instructions: stats.measured_instructions,
                fraction: stats.fraction,
                cpi_ci95: stats.ci_half_width,
            }),
            timeline: sim.timeline,
            wall_seconds: t0.elapsed().as_secs_f64(),
        })
    }
}

/// Constructors for a [`SimEvaluator`] sampled under the default 1-in-10
/// plan ([`Sampling::default_plan`]). New code calls
/// [`SimEvaluator::with_sampling`]; these remain only because the
/// `perfbench` benchmark package names them.
pub enum SampledSimEvaluator {}

impl SampledSimEvaluator {
    /// A sampled evaluator for a single machine configuration.
    #[allow(clippy::new_ret_no_self)] // a constructor namespace, not a type
    pub fn new(machine: &MachineConfig) -> SimEvaluator {
        SimEvaluator::new(machine).with_sampling(Some(Sampling::default_plan()))
    }

    /// A sampled evaluator for one point of a design space.
    pub fn for_point(space: &DesignSpace, point: &DesignPoint) -> SimEvaluator {
        SimEvaluator::for_point(space, point).with_sampling(Some(Sampling::default_plan()))
    }
}

/// Evaluates workloads with the first-order out-of-order interval model
/// (Eyerman et al.), the paper's §6.1 comparator. Memory-level
/// parallelism is estimated per workload from the program itself unless
/// fixed with [`with_mlp`](OooEvaluator::with_mlp).
#[derive(Clone)]
pub struct OooEvaluator {
    machine: MachineConfig,
    sweep: SweepContext,
    store: WorkloadStore,
    limit: Option<u64>,
    name: String,
    rob_size: u32,
    fixed_mlp: Option<f64>,
    energy: bool,
}

impl OooEvaluator {
    /// Out-of-order evaluator sharing the machine's front end, caches and
    /// predictor, with the paper's 128-entry window.
    pub fn new(machine: &MachineConfig) -> OooEvaluator {
        OooEvaluator {
            machine: machine.clone(),
            sweep: SweepContext::single(machine),
            store: WorkloadStore::new(),
            limit: None,
            name: EvalKind::Ooo.label().to_string(),
            rob_size: 128,
            fixed_mlp: None,
            energy: false,
        }
    }

    /// Out-of-order evaluator for one point of a design space.
    pub fn for_point(space: &DesignSpace, point: &DesignPoint) -> OooEvaluator {
        OooEvaluator {
            machine: point.machine.clone(),
            sweep: SweepContext::for_point(space, point),
            ..OooEvaluator::new(&point.machine)
        }
    }

    /// Shares a workload store (recordings + profiles) with other
    /// evaluators.
    pub fn with_cache(mut self, store: WorkloadStore) -> OooEvaluator {
        self.store = store;
        self
    }

    /// Truncates profiling to `limit` retired instructions.
    pub fn with_limit(mut self, limit: Option<u64>) -> OooEvaluator {
        self.limit = limit;
        self
    }

    /// Overrides the evaluator's display name.
    pub fn with_name(mut self, name: impl Into<String>) -> OooEvaluator {
        self.name = name.into();
        self
    }

    /// Sets the reorder-buffer size (default 128).
    pub fn with_rob_size(mut self, rob_size: u32) -> OooEvaluator {
        self.rob_size = rob_size;
        self
    }

    /// Fixes the memory-level parallelism instead of estimating it per
    /// workload.
    pub fn with_mlp(mut self, mlp: f64) -> OooEvaluator {
        self.fixed_mlp = Some(mlp);
        self
    }

    /// Also evaluates the energy model.
    pub fn with_energy(mut self, energy: bool) -> OooEvaluator {
        self.energy = energy;
        self
    }
}

impl Evaluator for OooEvaluator {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> EvalKind {
        EvalKind::Ooo
    }

    fn evaluate(
        &self,
        workload: &WorkloadSpec,
        size: WorkloadSize,
    ) -> Result<EvalResult, EvalError> {
        let t0 = Instant::now();
        let inputs = self.sweep.inputs(&self.store, workload, size, self.limit)?;
        let mlp = match self.fixed_mlp {
            Some(mlp) => mlp,
            None => {
                let program = self.store.program(workload, size);
                let trace = self.store.trace(workload, size, self.limit)?;
                let mut replay = trace
                    .replay(&program)
                    .map_err(|e| EvalError::trace(workload.name(), &self.name, &e))?;
                mim_profile::estimate_mlp_source(
                    &mut replay,
                    &self.machine.hierarchy,
                    self.rob_size,
                )
                .map_err(|e| EvalError::trace(workload.name(), &self.name, &e))?
                .mlp
            }
        };
        let model = OooModel::new(OooConfig {
            machine: self.machine.clone(),
            rob_size: self.rob_size,
            mlp,
        });
        let stack = model.predict(&inputs);
        Ok(result_from_stack(
            workload,
            &self.name,
            EvalKind::Ooo,
            &self.machine,
            0,
            &inputs,
            stack,
            self.energy,
            t0.elapsed().as_secs_f64(),
        ))
    }
}
