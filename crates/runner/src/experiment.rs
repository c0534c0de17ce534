//! The [`Experiment`] builder: declarative (workload × design-point ×
//! evaluator) sweeps with one profiling pass per workload, parallel
//! execution, deterministic ordering, and a serializable
//! [`ExperimentReport`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mim_core::{DesignPoint, DesignSpace, MachineConfig};
use mim_obs::{clock, Span};
use mim_workloads::WorkloadSize;
use serde::{Deserialize, Serialize};

use crate::cells::CellMemo;
use crate::evaluator::{EvalOptions, Evaluator};
use crate::result::{EvalError, EvalKind, EvalResult};
use crate::spec::WorkloadSpec;
use crate::store::WorkloadStore;

/// The workspace's worker-count rule: `threads` itself, or every
/// available core when it is `0`.
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// Runs `f(index, item)` over `items` on up to `threads` worker threads,
/// preserving input order in the returned vector — the per-cell iteration
/// primitive behind [`Experiment::run`], exposed so downstream drivers
/// (e.g. `mim-explore`'s hybrid sim-verification pass) can fan out over
/// arbitrary point sets with the same ordering guarantee.
pub fn parallel_map<T: Sync, R: Send, F: Fn(usize, &T) -> R + Sync>(
    threads: usize,
    items: &[T],
    f: F,
) -> Vec<R> {
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(i, &items[i]);
                slots.lock().expect("result slots poisoned")[i] = Some(result);
            });
        }
    });
    slots
        .into_inner()
        .expect("result slots poisoned")
        .into_iter()
        .map(|slot| slot.expect("every slot filled"))
        .collect()
}

/// Wall-clock breakdown of an experiment run. Not serialized (it varies
/// run to run, and reports must be byte-deterministic).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExperimentTiming {
    /// Worker threads used.
    pub threads: usize,
    /// Wall seconds spent in the profiling phase (once per workload).
    pub profile_seconds: f64,
    /// Wall seconds spent in the evaluation grid.
    pub eval_seconds: f64,
    /// End-to-end wall seconds.
    pub total_seconds: f64,
}

/// A generic two-evaluator diff for one (workload, machine) cell —
/// the shape every model-vs-simulation comparison reduces to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpiComparison {
    /// Workload name.
    pub workload: String,
    /// Machine id of the design point.
    pub machine_id: String,
    /// Index of the design point within the report's machine list.
    pub machine_index: usize,
    /// Subject evaluator name (e.g. `"model"`).
    pub subject: String,
    /// Baseline evaluator name (e.g. `"sim"`).
    pub baseline: String,
    /// Subject CPI.
    pub subject_cpi: f64,
    /// Baseline CPI.
    pub baseline_cpi: f64,
    /// Signed relative error of subject vs baseline, percent.
    pub error_percent: f64,
}

/// Prints a comparison table and returns `(average |error|, max |error|)`.
pub fn print_comparison(title: &str, rows: &[CpiComparison]) -> (f64, f64) {
    println!("\n=== {title} ===");
    if rows.is_empty() {
        println!("(no rows)");
        return (0.0, 0.0);
    }
    let subject = format!("{} CPI", rows[0].subject);
    let baseline = format!("{} CPI", rows[0].baseline);
    println!(
        "{:<18} {subject:>10} {baseline:>10} {:>9}",
        "benchmark", "error"
    );
    for r in rows {
        println!(
            "{:<18} {:>10.4} {:>10.4} {:>+8.2}%",
            r.workload, r.subject_cpi, r.baseline_cpi, r.error_percent
        );
    }
    let abs: Vec<f64> = rows.iter().map(|r| r.error_percent.abs()).collect();
    let avg = abs.iter().sum::<f64>() / abs.len() as f64;
    let max = abs.iter().cloned().fold(0.0, f64::max);
    println!("{:<18} avg |error| = {avg:.2}%   max = {max:.2}%", "");
    (avg, max)
}

/// The outcome of [`Experiment::run`]: every evaluation cell in
/// deterministic (workload-major, then design point, then evaluator)
/// order, plus the lookup/diff helpers that replace per-binary glue.
///
/// Serialization is deterministic: running the same experiment with any
/// thread count produces byte-identical JSON (timing lives outside the
/// serialized fields).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Experiment title.
    pub title: String,
    /// Workload size label (`tiny`/`small`/`large`).
    pub size: String,
    /// Instruction budget per evaluation, if truncated.
    pub limit: Option<u64>,
    /// Workload names, in evaluation order.
    pub workloads: Vec<String>,
    /// Machine ids, one per design point, in evaluation order.
    pub machines: Vec<String>,
    /// Evaluator names, in evaluation order.
    pub evaluators: Vec<String>,
    /// All evaluation cells.
    pub rows: Vec<EvalResult>,
    /// Wall-clock breakdown (not serialized).
    #[serde(skip)]
    pub timing: ExperimentTiming,
}

impl ExperimentReport {
    /// Looks up one cell.
    pub fn get(
        &self,
        workload: &str,
        machine_index: usize,
        evaluator: &str,
    ) -> Option<&EvalResult> {
        self.rows.iter().find(|r| {
            r.workload == workload && r.machine_index == machine_index && r.evaluator == evaluator
        })
    }

    /// All cells produced by the named evaluator, in order.
    pub fn rows_for<'a>(&'a self, evaluator: &'a str) -> impl Iterator<Item = &'a EvalResult> {
        self.rows.iter().filter(move |r| r.evaluator == evaluator)
    }

    /// Sum of per-cell wall seconds for the named evaluator — the serial
    /// cost of that evaluator's share of the grid.
    pub fn evaluator_seconds(&self, evaluator: &str) -> f64 {
        self.rows_for(evaluator).map(|r| r.wall_seconds).sum()
    }

    /// Diffs two evaluators cell-by-cell: the generic replacement for
    /// bespoke model-vs-simulation comparison code.
    ///
    /// Cells are paired by (workload, machine); rows come back in
    /// evaluation order. Pairing is index-backed, so the cost is linear
    /// in the number of rows even for full design-space grids.
    pub fn compare(&self, subject: &str, baseline: &str) -> Vec<CpiComparison> {
        let baselines: std::collections::HashMap<(&str, usize), &EvalResult> = self
            .rows_for(baseline)
            .map(|r| ((r.workload.as_str(), r.machine_index), r))
            .collect();
        self.rows_for(subject)
            .filter_map(|s| {
                let b = baselines.get(&(s.workload.as_str(), s.machine_index))?;
                Some(CpiComparison {
                    workload: s.workload.clone(),
                    machine_id: s.machine_id.clone(),
                    machine_index: s.machine_index,
                    subject: s.evaluator.clone(),
                    baseline: b.evaluator.clone(),
                    subject_cpi: s.cpi,
                    baseline_cpi: b.cpi,
                    error_percent: 100.0 * (s.cpi - b.cpi) / b.cpi,
                })
            })
            .collect()
    }

    /// Serializes the report as pretty JSON (deterministic bytes).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the parse error on malformed input.
    pub fn from_json(text: &str) -> Result<ExperimentReport, serde_json::Error> {
        serde_json::from_str(text)
    }
}

/// Declarative builder for a (workload × design-point × evaluator) sweep.
///
/// Owns the paper's §2.1 framework: each workload is profiled **once**
/// (a single [`SweepProfiler`](mim_profile::SweepProfiler) pass covering
/// every L2 and predictor candidate of the design space), after which
/// analytical evaluators score every design point from the cached profile.
/// The grid runs on `threads(n)` worker threads with deterministic result
/// ordering.
///
/// # Example
///
/// ```
/// use mim_runner::{EvalKind, Experiment};
/// use mim_workloads::{mibench, WorkloadSize};
///
/// let report = Experiment::new()
///     .title("quick validation")
///     .workloads(vec![mibench::sha()])
///     .size(WorkloadSize::Tiny)
///     .evaluators([EvalKind::Model, EvalKind::Sim])
///     .threads(2)
///     .run()
///     .unwrap();
/// let diff = report.compare("model", "sim");
/// assert_eq!(diff.len(), 1);
/// assert!(diff[0].error_percent.abs() < 25.0);
/// ```
pub struct Experiment {
    title: String,
    workloads: Vec<WorkloadSpec>,
    size: WorkloadSize,
    machine: MachineConfig,
    space: Option<DesignSpace>,
    stride: usize,
    kinds: Vec<EvalKind>,
    custom: Vec<Arc<dyn Evaluator>>,
    options: EvalOptions,
    threads: usize,
    cells: Option<CellMemo>,
}

impl Default for Experiment {
    fn default() -> Experiment {
        Experiment::new()
    }
}

impl Experiment {
    /// Creates an empty experiment on the paper's default machine.
    pub fn new() -> Experiment {
        Experiment {
            title: String::new(),
            workloads: Vec::new(),
            size: WorkloadSize::Small,
            machine: MachineConfig::default_config(),
            space: None,
            stride: 1,
            kinds: Vec::new(),
            custom: Vec::new(),
            options: EvalOptions::default(),
            threads: 0,
            cells: None,
        }
    }

    /// Sets the report title.
    pub fn title(mut self, title: impl Into<String>) -> Experiment {
        self.title = title.into();
        self
    }

    /// Adds workloads (anything convertible to [`WorkloadSpec`], e.g.
    /// `mim_workloads::Workload` kernels).
    pub fn workloads<I, W>(mut self, workloads: I) -> Experiment
    where
        I: IntoIterator<Item = W>,
        W: Into<WorkloadSpec>,
    {
        self.workloads.extend(workloads.into_iter().map(Into::into));
        self
    }

    /// Adds one workload.
    pub fn workload(mut self, workload: impl Into<WorkloadSpec>) -> Experiment {
        self.workloads.push(workload.into());
        self
    }

    /// Sets the workload size (default [`WorkloadSize::Small`]).
    pub fn size(mut self, size: WorkloadSize) -> Experiment {
        self.size = size;
        self
    }

    /// Truncates every profile/simulation to `limit` retired instructions
    /// (a number, or an `Option` where `None` runs to the end).
    pub fn limit(mut self, limit: impl Into<Option<u64>>) -> Experiment {
        self.options.limit = limit.into();
        self
    }

    /// Sets the single machine configuration to evaluate: the one-point
    /// space [`DesignSpace::new(machine)`](DesignSpace::new) (ignored once
    /// [`design_space`](Experiment::design_space) is set).
    pub fn machine(mut self, machine: MachineConfig) -> Experiment {
        self.machine = machine;
        self
    }

    /// Sweeps a whole design space instead of a single machine.
    pub fn design_space(mut self, space: DesignSpace) -> Experiment {
        self.space = Some(space);
        self
    }

    /// Evaluates only every `stride`-th design point (subsampling knob for
    /// quick runs).
    pub fn stride(mut self, stride: usize) -> Experiment {
        self.stride = stride.max(1);
        self
    }

    /// Selects the built-in evaluator families to run.
    pub fn evaluators(mut self, kinds: impl IntoIterator<Item = EvalKind>) -> Experiment {
        self.kinds.extend(kinds);
        self
    }

    /// Adds a custom evaluator (an [`Evaluator`] trait object). Custom
    /// evaluators carry their own machine configuration, so they are only
    /// accepted on single-machine experiments.
    pub fn evaluator(mut self, evaluator: impl Evaluator + 'static) -> Experiment {
        self.custom.push(Arc::new(evaluator));
        self
    }

    /// Sampling plan for [`EvalKind::Sampled`] evaluators (default
    /// [`Sampling::default_plan`](mim_trace::Sampling::default_plan), the
    /// 1-in-10 plan with full functional warming).
    pub fn sampling(mut self, sampling: mim_trace::Sampling) -> Experiment {
        self.options.sampling = sampling;
        self
    }

    /// Also runs the energy model, populating [`EvalResult::energy`] (the
    /// §6.3 EDP studies).
    pub fn energy(mut self, energy: bool) -> Experiment {
        self.options.energy = energy;
        self
    }

    /// Captures a per-interval CPI-stack timeline on [`EvalKind::Sim`] and
    /// [`EvalKind::Sampled`] cells, sampled every `interval` retired
    /// instructions, populating [`EvalResult::timeline`]. Off by default;
    /// the timeline is strictly out-of-band, so serialized reports are
    /// byte-identical with or without it.
    pub fn timeline(mut self, interval: u64) -> Experiment {
        self.options.timeline = Some(interval.max(1));
        self
    }

    /// Number of worker threads; `0` (the default) uses all available
    /// cores, `1` runs serially. Any value produces byte-identical
    /// reports.
    pub fn threads(mut self, threads: usize) -> Experiment {
        self.threads = threads;
        self
    }

    /// The experiment's shared workload store. Hand this to custom
    /// evaluators (`with_cache`) so they reuse the experiment's one
    /// recording + profiling pass per workload.
    pub fn profile_cache(&self) -> WorkloadStore {
        self.options.store.clone()
    }

    /// Replaces the experiment's workload store with a shared one, so
    /// several experiments (or an outer driver like `mim-explore`) reuse a
    /// single recording + profiling pass per workload across runs.
    pub fn with_cache(mut self, cache: WorkloadStore) -> Experiment {
        self.options.store = cache;
        self
    }

    /// Attaches a shared [`CellMemo`]: every grid cell is answered from
    /// (or published to) the memo, so concurrent or repeated experiments
    /// with overlapping (workload, machine, evaluator) cells coalesce
    /// onto one evaluation each. Built-in evaluators only — custom
    /// evaluators carry state the memo key cannot see, so they bypass it.
    pub fn with_cells(mut self, cells: CellMemo) -> Experiment {
        self.cells = Some(cells);
        self
    }

    /// Builds the per-point evaluator matrix: the built-in kinds, then the
    /// custom evaluators.
    fn build_evaluators(
        &self,
        space: &DesignSpace,
        points: &[DesignPoint],
    ) -> Vec<Vec<Arc<dyn Evaluator>>> {
        points
            .iter()
            .map(|point| {
                self.kinds
                    .iter()
                    .map(|&kind| self.options.build(kind, space, point))
                    .chain(self.custom.iter().cloned())
                    .collect()
            })
            .collect()
    }

    /// Runs the full grid and returns the report.
    ///
    /// # Errors
    ///
    /// Returns the first [`EvalError`] (in deterministic grid order) if
    /// any cell fails, or a configuration error for an empty/inconsistent
    /// experiment.
    pub fn run(self) -> Result<ExperimentReport, EvalError> {
        let t_start = Instant::now();
        if self.workloads.is_empty() {
            return Err(EvalError::new("-", "experiment", "no workloads configured"));
        }
        if self.kinds.is_empty() && self.custom.is_empty() {
            return Err(EvalError::new(
                "-",
                "experiment",
                "no evaluators configured",
            ));
        }
        if self.space.is_some() && !self.custom.is_empty() {
            return Err(EvalError::new(
                "-",
                "experiment",
                "custom evaluators carry their own machine and cannot sweep a design space",
            ));
        }
        // Names are the report's lookup keys (and the program cache's):
        // duplicates would silently alias, so reject them up front.
        let mut seen_workloads = std::collections::HashSet::new();
        for spec in &self.workloads {
            if !seen_workloads.insert(spec.name()) {
                return Err(EvalError::new(
                    spec.name(),
                    "experiment",
                    "duplicate workload name (names key the report and profile cache)",
                ));
            }
        }
        let mut seen_evaluators = std::collections::HashSet::new();
        for kind in &self.kinds {
            if !seen_evaluators.insert(kind.label().to_string()) {
                return Err(EvalError::new(
                    "-",
                    "experiment",
                    format!("evaluator kind `{kind}` configured twice"),
                ));
            }
        }
        for custom in &self.custom {
            if !seen_evaluators.insert(custom.name().to_string()) {
                return Err(EvalError::new(
                    "-",
                    "experiment",
                    format!("duplicate evaluator name `{}`", custom.name()),
                ));
            }
        }
        let threads = resolve_threads(self.threads);

        // Resolve the design points: a single machine is the one-point
        // space.
        let space = self
            .space
            .clone()
            .unwrap_or_else(|| DesignSpace::new(self.machine.clone()));
        let points: Vec<DesignPoint> = space.points().step_by(self.stride).collect();
        let (store, limit) = (&self.options.store, self.options.limit);

        // Phase 1 — one recording (and, where needed, one replayed
        // profiling pass) per workload (§2.1), parallel over workloads.
        // Simulation-only experiments without energy skip the profile but
        // still record the trace their simulations replay.
        let _span = Span::enter("experiment.run")
            .field("title", self.title.clone())
            .field_u64("workloads", self.workloads.len() as u64)
            .field_u64("points", points.len() as u64);
        let t_profile = Instant::now();
        let warm_span = Span::enter("experiment.warm");
        let needs_profile = self.options.energy
            || self
                .kinds
                .iter()
                .any(|k| matches!(k, EvalKind::Model | EvalKind::Ooo))
            || !self.custom.is_empty();
        // Record a trace only when a grid cell will replay it repeatedly
        // (simulation per design point, MLP estimation). Model-only
        // experiments keep the O(1)-memory streaming profile pass — still
        // exactly one functional execution per workload either way.
        let needs_trace = self
            .kinds
            .iter()
            .any(|k| matches!(k, EvalKind::Sim | EvalKind::Ooo | EvalKind::Sampled));
        let warm: Vec<Result<(), EvalError>> = parallel_map(threads, &self.workloads, |_, spec| {
            store.program(spec, self.size);
            if needs_trace {
                // The one functional execution per workload: every grid
                // cell below (profile, simulation, MLP) replays this
                // recording.
                store.trace(spec, self.size, limit)?;
            }
            if needs_profile {
                store.profile(
                    spec,
                    self.size,
                    limit,
                    &space.base().hierarchy,
                    space.l2_configs(),
                    space.predictor_configs(),
                )?;
            }
            Ok(())
        });
        drop(warm_span);
        for outcome in warm {
            outcome?;
        }
        let profile_seconds = t_profile.elapsed().as_secs_f64();

        // Phase 2 — the evaluation grid, workload-major then point then
        // evaluator, executed in parallel with order-preserving slots.
        let evaluators = self.build_evaluators(&space, &points);
        let mut cells: Vec<(usize, usize, usize)> = Vec::new();
        for wi in 0..self.workloads.len() {
            for (pi, evals) in evaluators.iter().enumerate() {
                for ei in 0..evals.len() {
                    cells.push((wi, pi, ei));
                }
            }
        }
        let t_eval = Instant::now();
        let grid_span = Span::enter("experiment.grid").field_u64("cells", cells.len() as u64);
        let n_builtin = self.kinds.len();
        // Per-cell evaluate latency lands in the shared store's registry,
        // so a server merging store metrics sees the grid's distribution.
        let cell_ns = store.registry().histogram("experiment.cell_ns");
        let outcomes: Vec<Result<EvalResult, EvalError>> =
            parallel_map(threads, &cells, |_, &(wi, pi, ei)| {
                let cell_started = clock();
                let spec = &self.workloads[wi];
                let evaluator = &evaluators[pi][ei];
                let _cell_span = Span::enter("experiment.cell")
                    .field("workload", spec.name().to_string())
                    .field("evaluator", evaluator.name().to_string())
                    .field_u64("point", pi as u64);
                // The timeline knob only reaches (and only changes) the
                // two simulator evaluators, so model/OOO cells keep their
                // timeline-free keys.
                let cell_timeline = match self.kinds.get(ei) {
                    Some(EvalKind::Sim | EvalKind::Sampled) => self.options.timeline,
                    _ => None,
                };
                // Memoize built-in cells only: custom evaluators may close
                // over state the content key cannot capture.
                let mut result = match (&self.cells, ei < n_builtin) {
                    (Some(memo), true) => {
                        let key = CellMemo::key(
                            spec.name(),
                            self.size,
                            limit,
                            &points[pi].machine,
                            evaluator.name(),
                            self.options.energy,
                            cell_timeline,
                        );
                        memo.get_or_compute(key, || evaluator.evaluate(spec, self.size))?
                    }
                    _ => evaluator.evaluate(spec, self.size)?,
                };
                result.machine_index = pi;
                cell_ns.observe_since(cell_started);
                Ok(result)
            });
        drop(grid_span);
        let eval_seconds = t_eval.elapsed().as_secs_f64();
        let mut rows = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            rows.push(outcome?);
        }

        Ok(ExperimentReport {
            title: self.title,
            size: self.size.to_string(),
            limit,
            workloads: self
                .workloads
                .iter()
                .map(|w| w.name().to_string())
                .collect(),
            machines: points.iter().map(|p| p.machine.id()).collect(),
            evaluators: evaluators
                .first()
                .map(|evals| evals.iter().map(|e| e.name().to_string()).collect())
                .unwrap_or_default(),
            rows,
            timing: ExperimentTiming {
                threads,
                profile_seconds,
                eval_seconds,
                total_seconds: t_start.elapsed().as_secs_f64(),
            },
        })
    }
}
