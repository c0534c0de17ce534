//! The object-safe [`Evaluator`] trait and its one built-in
//! implementation, the evaluator builder [`Evaluation`].
//!
//! Every evaluator maps `(workload, size)` to a unified [`EvalResult`];
//! model-vs-simulation comparison is a generic diff of two results rather
//! than bespoke per-binary wiring. [`ModelEvaluator`], [`SimEvaluator`]
//! and [`OooEvaluator`] are [`Evaluation`] with different methods, each
//! scoring one point of a design space (a single machine is the
//! one-point space [`DesignSpace::new`]); [`EvalOptions::build`] turns an
//! [`EvalKind`] into one. All share a [`WorkloadStore`], so a workload is
//! functionally executed exactly once per sweep — recorded into a trace
//! that is replayed for profiling, simulation, and MLP estimation alike,
//! no matter how many evaluators and design points consume it (the
//! paper's §2.1 framework applied to the whole stack).

use std::sync::Arc;
use std::time::Instant;

use mim_bpred::{BranchStats, PredictorConfig};
use mim_cache::{CacheConfig, HierarchyConfig, MissCounts};
use mim_core::{
    CpiStack, CpiTimeline, DesignPoint, DesignSpace, MachineConfig, MechanisticModel, ModelInputs,
    OooConfig, OooModel, StackComponent,
};
use mim_pipeline::{PipelineSim, SimResult};
use mim_power::{Activity, EnergyModel};
use mim_workloads::WorkloadSize;

use mim_trace::{Sampling, TraceError};

use crate::result::{EvalError, EvalKind, EvalResult, SamplingSummary};
use crate::spec::WorkloadSpec;
use crate::store::WorkloadStore;

/// An object-safe performance evaluator: anything that can score a
/// workload on its machine configuration.
///
/// The built-in implementations are [`ModelEvaluator`] (the mechanistic
/// model), [`SimEvaluator`] (cycle-accurate simulation, full or sampled)
/// and [`OooEvaluator`] (the out-of-order interval model); downstream
/// code can add its own.
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
/// evaluator share one profiling pass across an entire design space: all
/// candidates are profiled once, and this point's are selected.
#[derive(Clone)]
struct SweepContext {
    hierarchy: HierarchyConfig,
    l2s: Vec<CacheConfig>,
    predictors: Vec<PredictorConfig>,
    l2_index: usize,
    predictor_index: usize,
}

/// The options every built-in evaluator of one run shares. An
/// [`Experiment`](crate::Experiment) holds one, and so does a design-space
/// search; both turn an [`EvalKind`] into an evaluator through
/// [`build`](EvalOptions::build).
#[derive(Clone)]
pub struct EvalOptions {
    /// The shared recordings and profiles.
    pub store: WorkloadStore,
    /// Retired-instruction budget per evaluation (`None`: run to the end).
    pub limit: Option<u64>,
    /// Also evaluate the energy model, populating [`EvalResult::energy`].
    pub energy: bool,
    /// The plan of [`EvalKind::Sampled`] evaluators.
    pub sampling: Sampling,
    /// CPI-timeline interval of the two simulator kinds (`None`: no
    /// timeline).
    pub timeline: Option<u64>,
}

impl Default for EvalOptions {
    /// A fresh store, no limit, no energy, no timeline, and the default
    /// 1-in-10 sampling plan ([`Sampling::default_plan`]).
    fn default() -> EvalOptions {
        EvalOptions {
            store: WorkloadStore::new(),
            limit: None,
            energy: false,
            sampling: Sampling::default_plan(),
            timeline: None,
        }
    }
}

impl EvalOptions {
    /// Builds the built-in evaluator of `kind` for one point of `space`.
    pub fn build(
        &self,
        kind: EvalKind,
        space: &DesignSpace,
        point: &DesignPoint,
    ) -> Arc<dyn Evaluator> {
        match kind {
            EvalKind::Model => Arc::new(self.share(ModelEvaluator::for_point(space, point))),
            EvalKind::Sim | EvalKind::Sampled => Arc::new(
                self.share(SimEvaluator::for_point(space, point))
                    .with_sampling((kind == EvalKind::Sampled).then_some(self.sampling))
                    .with_timeline(self.timeline),
            ),
            EvalKind::Ooo => Arc::new(self.share(OooEvaluator::for_point(space, point))),
        }
    }

    fn share<M: Method>(&self, evaluation: Evaluation<M>) -> Evaluation<M> {
        evaluation
            .with_cache(self.store.clone())
            .with_limit(self.limit)
            .with_energy(self.energy)
    }
}

/// How an [`Evaluation`] measures a workload: the part of an evaluator
/// that differs between the model, the simulator and the out-of-order
/// model.
pub trait Method: Clone + Default + Send + Sync + 'static {
    /// The evaluator family this method reports; its label is the
    /// evaluator's name until [`with_name`](Evaluation::with_name) (or a
    /// sampling plan) overrides it.
    fn kind(&self) -> EvalKind;

    /// Measures one workload at one size on `evaluation`'s machine.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] if the program faults while profiling or
    /// simulating.
    fn measure(
        evaluation: &Evaluation<Self>,
        workload: &WorkloadSpec,
        size: WorkloadSize,
    ) -> Result<Measurement, EvalError>;
}

/// The method-specific part of an [`EvalResult`], which [`Evaluation`]
/// completes with the workload, evaluator and machine it names.
pub struct Measurement {
    instructions: u64,
    cycles: f64,
    cpi: f64,
    stack: Option<CpiStack>,
    misses: MissCounts,
    branch: BranchStats,
    /// The activity the energy model charges, when energy is on.
    activity: Option<Activity>,
    sampling: Option<SamplingSummary>,
    timeline: Option<CpiTimeline>,
}

impl Measurement {
    /// An analytical model's prediction over profiled inputs.
    fn from_stack(inputs: &ModelInputs, stack: CpiStack, energy: bool) -> Measurement {
        Measurement {
            instructions: inputs.num_insts,
            cycles: stack.total_cycles(),
            cpi: stack.cpi(),
            misses: inputs.misses,
            branch: inputs.branch,
            activity: energy.then(|| Activity::from_model(inputs, stack.total_cycles())),
            stack: Some(stack),
            sampling: None,
            timeline: None,
        }
    }
}

/// An evaluator: one machine (a point of a design space) scored by
/// method `M`. [`ModelEvaluator`], [`SimEvaluator`] and [`OooEvaluator`]
/// name its three methods.
#[derive(Clone)]
pub struct Evaluation<M> {
    machine: MachineConfig,
    sweep: SweepContext,
    store: WorkloadStore,
    limit: Option<u64>,
    name: String,
    energy: bool,
    method: M,
}

/// Evaluates workloads with the paper's mechanistic in-order model: one
/// cached profiling pass, then closed-form prediction per design point.
pub type ModelEvaluator = Evaluation<Model>;

/// Evaluates workloads with the cycle-accurate in-order pipeline
/// simulator — the "detailed simulation" reference the model is validated
/// against — in full, or sampled under a plan
/// ([`with_sampling`](Evaluation::with_sampling)).
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
pub type SimEvaluator = Evaluation<Sim>;

/// Evaluates workloads with the first-order out-of-order interval model
/// (Eyerman et al.), the paper's §6.1 comparator, with the paper's
/// 128-entry window ([`OooConfig::default_config`]). Memory-level
/// parallelism is estimated per workload from the program itself.
pub type OooEvaluator = Evaluation<Ooo>;

impl<M: Method> Evaluation<M> {
    /// Evaluator for a single machine configuration: the one point of
    /// [`DesignSpace::new(machine)`](DesignSpace::new).
    pub fn new(machine: &MachineConfig) -> Evaluation<M> {
        let space = DesignSpace::new(machine.clone());
        let point = space.point_at(0).expect("a one-point space has point 0");
        Evaluation::for_point(&space, &point)
    }

    /// Evaluator for one point of a design space. All points of the same
    /// space share a single recording + profiling pass per workload
    /// (provided they share a [`WorkloadStore`], see
    /// [`with_cache`](Evaluation::with_cache)).
    pub fn for_point(space: &DesignSpace, point: &DesignPoint) -> Evaluation<M> {
        let method = M::default();
        Evaluation {
            machine: point.machine.clone(),
            sweep: SweepContext {
                hierarchy: space.base().hierarchy.clone(),
                l2s: space.l2_configs().to_vec(),
                predictors: space.predictor_configs().to_vec(),
                l2_index: point.l2_index,
                predictor_index: point.predictor_index,
            },
            store: WorkloadStore::new(),
            limit: None,
            name: method.kind().label().to_string(),
            energy: false,
            method,
        }
    }

    /// Shares a workload store (recordings + profiles) with other
    /// evaluators.
    pub fn with_cache(mut self, store: WorkloadStore) -> Evaluation<M> {
        self.store = store;
        self
    }

    /// Truncates profiling and the simulated stream to `limit` retired
    /// instructions.
    pub fn with_limit(mut self, limit: Option<u64>) -> Evaluation<M> {
        self.limit = limit;
        self
    }

    /// Overrides the evaluator's display name.
    pub fn with_name(mut self, name: impl Into<String>) -> Evaluation<M> {
        self.name = name.into();
        self
    }

    /// Also evaluates the energy model, populating
    /// [`EvalResult::energy`] (a simulator profiles the workload for the
    /// instruction mix the energy model needs).
    pub fn with_energy(mut self, energy: bool) -> Evaluation<M> {
        self.energy = energy;
        self
    }

    /// This point's profiled model inputs, from the store's one profiling
    /// pass over every candidate of the space.
    fn inputs(&self, spec: &WorkloadSpec, size: WorkloadSize) -> Result<ModelInputs, EvalError> {
        let sweep = &self.sweep;
        let profile = self.store.profile(
            spec,
            size,
            self.limit,
            &sweep.hierarchy,
            &sweep.l2s,
            &sweep.predictors,
        )?;
        Ok(profile.inputs_for(sweep.l2_index, sweep.predictor_index))
    }
}

impl<M: Method> Evaluator for Evaluation<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> EvalKind {
        self.method.kind()
    }

    fn evaluate(
        &self,
        workload: &WorkloadSpec,
        size: WorkloadSize,
    ) -> Result<EvalResult, EvalError> {
        let t0 = Instant::now();
        let measured = M::measure(self, workload, size)?;
        Ok(EvalResult {
            workload: workload.name().to_string(),
            evaluator: self.name.clone(),
            kind: self.kind(),
            machine_id: self.machine.id(),
            machine_index: 0,
            instructions: measured.instructions,
            cycles: measured.cycles,
            cpi: measured.cpi,
            stack: measured.stack,
            misses: Some(measured.misses),
            branch: Some(measured.branch),
            energy: measured
                .activity
                .map(|activity| EnergyModel::new(&self.machine).evaluate(&activity)),
            sampling: measured.sampling,
            timeline: measured.timeline,
            wall_seconds: t0.elapsed().as_secs_f64(),
        })
    }
}

/// The mechanistic model method of [`ModelEvaluator`]: the ablated
/// penalty terms and the profile-swap hook
/// ([`with_inputs_map`](Evaluation::with_inputs_map)).
#[derive(Clone, Default)]
pub struct Model {
    ablated: Vec<StackComponent>,
    inputs_map: Option<Arc<dyn Fn(ModelInputs) -> ModelInputs + Send + Sync>>,
}

impl Method for Model {
    fn kind(&self) -> EvalKind {
        EvalKind::Model
    }

    fn measure(
        evaluation: &ModelEvaluator,
        workload: &WorkloadSpec,
        size: WorkloadSize,
    ) -> Result<Measurement, EvalError> {
        let mut inputs = evaluation.inputs(workload, size)?;
        let method = &evaluation.method;
        if let Some(map) = &method.inputs_map {
            inputs = map(inputs);
        }
        let model = MechanisticModel::new(&evaluation.machine);
        let stack = if method.ablated.is_empty() {
            model.predict(&inputs)
        } else {
            model.predict_ablated(&inputs, &method.ablated)
        };
        Ok(Measurement::from_stack(&inputs, stack, evaluation.energy))
    }
}

impl ModelEvaluator {
    /// Zeroes the given penalty terms before summing the stack (the
    /// ablation study's knob).
    pub fn with_ablation(mut self, ablated: Vec<StackComponent>) -> ModelEvaluator {
        self.method.ablated = ablated;
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
        self.method.inputs_map = Some(Arc::new(map));
        self
    }
}

/// The simulator method of [`SimEvaluator`]: the sampling plan (`None`
/// simulates in full) and the CPI-timeline interval.
#[derive(Clone, Copy, Default)]
pub struct Sim {
    sampling: Option<Sampling>,
    timeline: Option<u64>,
}

impl Sim {
    /// The display name of an evaluator whose name was not overridden:
    /// `sim`, or for a sampled evaluator its plan's geometry
    /// (`sampled-p1000-l100-w900-o100`), so results from different plans
    /// never collide in memoized experiment cells.
    fn default_name(&self) -> String {
        match self.sampling {
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
}

impl Method for Sim {
    fn kind(&self) -> EvalKind {
        if self.sampling.is_some() {
            EvalKind::Sampled
        } else {
            EvalKind::Sim
        }
    }

    fn measure(
        evaluation: &SimEvaluator,
        workload: &WorkloadSpec,
        size: WorkloadSize,
    ) -> Result<Measurement, EvalError> {
        let sim = evaluation.simulate(workload, size)?;
        let inputs = evaluation
            .energy
            .then(|| evaluation.inputs(workload, size))
            .transpose()?;
        Ok(Measurement {
            instructions: sim.instructions,
            cycles: sim.cycles as f64,
            // A sampled run reports the estimator's mean per-unit CPI,
            // not the rounded cycles/instructions quotient.
            cpi: sim.sampling.as_ref().map_or(sim.cpi(), |stats| stats.cpi),
            stack: None,
            misses: sim.misses,
            branch: sim.branch,
            activity: inputs.map(|inputs| Activity::from_sim(&sim, &inputs)),
            sampling: sim.sampling.as_ref().map(|stats| SamplingSummary {
                units: stats.units,
                measured_instructions: stats.measured_instructions,
                fraction: stats.fraction,
                cpi_ci95: stats.ci_half_width,
            }),
            timeline: sim.timeline,
        })
    }
}

impl SimEvaluator {
    /// Sets (or, with `None`, clears) the sampling plan. A planned
    /// evaluator reports [`EvalKind::Sampled`]; if its name is still the
    /// default one, it is renamed to match the plan.
    pub fn with_sampling(mut self, sampling: Option<Sampling>) -> SimEvaluator {
        let default_name = self.name == self.method.default_name();
        self.method.sampling = sampling;
        if default_name {
            self.name = self.method.default_name();
        }
        self
    }

    /// Also captures a per-interval [`mim_core::CpiTimeline`] at the given
    /// instruction-interval width, populating [`EvalResult::timeline`].
    /// A sampled run's timeline covers the measured windows,
    /// walked-position-aligned with a full run's timeline at the same
    /// width (see [`PipelineSim::with_timeline`]). `None` (the default)
    /// keeps the simulator timeline-free.
    pub fn with_timeline(mut self, interval: Option<u64>) -> SimEvaluator {
        self.method.timeline = interval;
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
        if let Some(interval) = self.method.timeline {
            pipeline = pipeline.with_timeline(interval);
        }
        // A sampled run prefers the persistent store's incremental read
        // path: O(chunk) memory instead of O(trace). A damaged entry
        // degrades to the in-memory path, like every other DiskStore read
        // — also when the damage only shows during the walk (bytes after
        // the recording are found at its end). The in-memory path then
        // rejects the entry, re-records and rewrites it.
        if let Some(plan) = self.method.sampling {
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
        if let Some(plan) = self.method.sampling {
            replay = replay.with_sampling(plan);
        }
        pipeline.simulate_source(&mut replay).map_err(trace_error)
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

/// The out-of-order interval-model method of [`OooEvaluator`]; it has no
/// settings of its own.
#[derive(Clone, Copy, Default)]
pub struct Ooo;

impl Method for Ooo {
    fn kind(&self) -> EvalKind {
        EvalKind::Ooo
    }

    fn measure(
        evaluation: &OooEvaluator,
        workload: &WorkloadSpec,
        size: WorkloadSize,
    ) -> Result<Measurement, EvalError> {
        let trace_error = |e: TraceError| EvalError::trace(workload.name(), &evaluation.name, &e);
        let inputs = evaluation.inputs(workload, size)?;
        let rob_size = OooConfig::default_config().rob_size;
        let store = &evaluation.store;
        let program = store.program(workload, size);
        let trace = store.trace(workload, size, evaluation.limit)?;
        let mut replay = trace.replay(&program).map_err(trace_error)?;
        let mlp =
            mim_profile::estimate_mlp_source(&mut replay, &evaluation.machine.hierarchy, rob_size)
                .map_err(trace_error)?
                .mlp;
        let model = OooModel::new(OooConfig {
            machine: evaluation.machine.clone(),
            rob_size,
            mlp,
        });
        let stack = model.predict(&inputs);
        Ok(Measurement::from_stack(&inputs, stack, evaluation.energy))
    }
}
