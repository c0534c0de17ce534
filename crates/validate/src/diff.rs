//! The [`DifferentialRun`] builder and its deterministic
//! [`ValidationReport`], plus the recipe shrinker.

use mim_core::{DesignPoint, DesignSpace, MachineConfig};
use mim_pipeline::PipelineSim;
use mim_runner::{
    parallel_map, resolve_threads, EvalError, EvalKind, EvalResult, Evaluator, Experiment,
    ModelEvaluator, SimEvaluator, WorkloadSpec, WorkloadStore,
};
use mim_workloads::synth::SyntheticRecipe;
use mim_workloads::WorkloadSize;
use serde::{Deserialize, Serialize};

use crate::attribution::{attribute, ErrorTerm, TermError};
use crate::error::ValidateError;
use crate::space::BehaviorSpace;

/// One (behaviour point × design point) comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellDiff {
    /// Behaviour-point name (the workload name in the underlying
    /// experiment).
    pub workload: String,
    /// Flat index of the behaviour point in the behavior space.
    pub behavior_index: usize,
    /// Machine id of the design point.
    pub machine_id: String,
    /// Index of the design point.
    pub machine_index: usize,
    /// Dynamic instructions evaluated.
    pub instructions: u64,
    /// Model-predicted CPI.
    pub model_cpi: f64,
    /// Detailed-simulation CPI.
    pub sim_cpi: f64,
    /// Signed relative CPI error, percent.
    pub error_percent: f64,
    /// Per-term attribution.
    pub terms: Vec<TermError>,
    /// Interaction residual in CPI (error not separable by any single
    /// counterfactual).
    pub residual_cpi: f64,
    /// The term that dominates the disagreement.
    pub dominant: Option<ErrorTerm>,
}

/// Per-term aggregate over all cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TermSummary {
    /// Which term.
    pub term: ErrorTerm,
    /// Mean |delta CPI| across cells.
    pub mean_abs_delta_cpi: f64,
    /// Largest |delta CPI| across cells.
    pub max_abs_delta_cpi: f64,
    /// Largest |profile-swap shift| across cells (measurement
    /// disagreement; ~0 certifies shared functional models).
    pub max_abs_swap_cpi: f64,
    /// Number of cells this term dominates.
    pub dominated: usize,
}

/// Aggregate statistics of a differential run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationSummary {
    /// Total number of (behaviour × design) cells.
    pub cells: usize,
    /// Mean |CPI error| over all cells, percent.
    pub mean_abs_error_percent: f64,
    /// Largest |CPI error| over all cells, percent.
    pub max_abs_error_percent: f64,
    /// Cells whose |error| exceeds the run's budget.
    pub over_budget: usize,
    /// Per-term aggregates in canonical order (plus the residual row).
    pub terms: Vec<TermSummary>,
    /// Cells whose disagreement the interaction residual dominates.
    pub residual_dominated: usize,
}

/// One worst-offending cell, self-contained for reproduction: the full
/// recipe regenerates the exact program, the machine id names the design
/// point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Offender {
    /// Behaviour-point name.
    pub workload: String,
    /// Machine id of the design point.
    pub machine_id: String,
    /// Signed relative CPI error, percent.
    pub error_percent: f64,
    /// Dominant term of the disagreement.
    pub dominant: Option<ErrorTerm>,
    /// Human-readable recipe summary.
    pub describe: String,
    /// The full recipe (regenerates the identical program).
    pub recipe: SyntheticRecipe,
}

/// The outcome of [`DifferentialRun::run`]: every cell in deterministic
/// (behaviour-major, then design point) order, per-term aggregates, and
/// the worst offenders with their recipes.
///
/// Serialization is deterministic: the same run produces byte-identical
/// JSON for any thread count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Run title.
    pub title: String,
    /// Behaviour points evaluated.
    pub behavior_points: usize,
    /// Design points evaluated.
    pub design_points: usize,
    /// Error budget used to flag offenders, percent.
    pub budget_percent: f64,
    /// Behaviour-point names, in flat-index order.
    pub workloads: Vec<String>,
    /// Machine ids, in design-space order.
    pub machines: Vec<String>,
    /// The behavior space (regenerates every recipe).
    pub space: BehaviorSpace,
    /// All cells, behaviour-major then design point.
    pub cells: Vec<CellDiff>,
    /// Aggregate statistics.
    pub summary: ValidationSummary,
    /// The worst offenders by |error|, with reproducible recipes.
    pub worst: Vec<Offender>,
}

impl ValidationReport {
    /// Serializes the report as pretty JSON (deterministic bytes).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the parse error on malformed input.
    pub fn from_json(text: &str) -> Result<ValidationReport, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Looks up one cell.
    pub fn get(&self, workload: &str, machine_index: usize) -> Option<&CellDiff> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.machine_index == machine_index)
    }
}

/// Prints a compact human-readable summary of a report.
pub fn print_summary(report: &ValidationReport) {
    println!(
        "\n=== {} ===\n{} behaviour points x {} design points = {} cells",
        report.title, report.behavior_points, report.design_points, report.summary.cells
    );
    println!(
        "mean |CPI error| = {:.2}%   max = {:.2}%   over {:.0}% budget: {}",
        report.summary.mean_abs_error_percent,
        report.summary.max_abs_error_percent,
        report.budget_percent,
        report.summary.over_budget
    );
    if !report.summary.terms.is_empty() {
        println!(
            "{:<12} {:>14} {:>14} {:>12} {:>9}",
            "term", "mean |d CPI|", "max |d CPI|", "max |swap|", "dominates"
        );
        for t in &report.summary.terms {
            println!(
                "{:<12} {:>14.4} {:>14.4} {:>12.4} {:>9}",
                t.term.label(),
                t.mean_abs_delta_cpi,
                t.max_abs_delta_cpi,
                t.max_abs_swap_cpi,
                t.dominated
            );
        }
        println!(
            "{:<12} {:>51} {:>9}",
            "residual", "", report.summary.residual_dominated
        );
    }
    for o in &report.worst {
        println!(
            "worst {:+7.2}%  {} on {}  [{}]\n      {}",
            o.error_percent,
            o.workload,
            o.machine_id,
            o.dominant.map_or("-", ErrorTerm::label),
            o.describe
        );
    }
}

/// Declarative builder for a behaviour-space differential validation run:
/// every behaviour point crossed with every design point, evaluated by the
/// mechanistic model *and* the detailed simulator through the shared
/// [`Experiment`]/[`WorkloadStore`] machinery (one recorded trace per
/// behaviour point, replayed everywhere), then attributed per term.
///
/// # Example
///
/// ```
/// use mim_core::{DesignSpace, MachineConfig};
/// use mim_validate::{BehaviorSpace, DifferentialRun};
/// use mim_workloads::synth::SyntheticRecipe;
///
/// let recipe = SyntheticRecipe {
///     iterations: 120,
///     ..SyntheticRecipe::codec_like()
/// };
/// let report = DifferentialRun::new(
///     BehaviorSpace::new(recipe),
///     DesignSpace::new(MachineConfig::default_config()),
/// )
/// .title("doc example")
/// .threads(1)
/// .run()
/// .unwrap();
/// assert_eq!(report.cells.len(), 1);
/// assert!(report.cells[0].error_percent.abs() < 50.0);
/// ```
pub struct DifferentialRun {
    title: String,
    space: BehaviorSpace,
    designs: DesignSpace,
    threads: usize,
    limit: Option<u64>,
    budget_percent: f64,
    worst: usize,
}

impl DifferentialRun {
    /// Creates a run over the full cross product of behaviour and design
    /// points.
    pub fn new(space: BehaviorSpace, designs: DesignSpace) -> DifferentialRun {
        DifferentialRun {
            title: "behavior-space differential validation".to_string(),
            space,
            designs,
            threads: 0,
            limit: None,
            budget_percent: 10.0,
            worst: 5,
        }
    }

    /// Sets the report title.
    pub fn title(mut self, title: impl Into<String>) -> DifferentialRun {
        self.title = title.into();
        self
    }

    /// Number of worker threads; `0` (the default) uses all cores. Any
    /// value produces byte-identical reports.
    pub fn threads(mut self, threads: usize) -> DifferentialRun {
        self.threads = threads;
        self
    }

    /// Truncates every evaluation to `limit` retired instructions.
    pub fn limit(mut self, limit: u64) -> DifferentialRun {
        self.limit = Some(limit);
        self
    }

    /// Error budget (percent) above which a cell counts as an offender
    /// (default 10%).
    pub fn budget_percent(mut self, budget: f64) -> DifferentialRun {
        self.budget_percent = budget;
        self
    }

    /// How many worst offenders the report lists with full recipes
    /// (default 5).
    pub fn worst(mut self, n: usize) -> DifferentialRun {
        self.worst = n;
        self
    }

    /// Runs the grid and assembles the report.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateError`] if any evaluation or replay fails.
    pub fn run(self) -> Result<ValidationReport, ValidateError> {
        let size = WorkloadSize::Small; // fixed programs: size is nominal
        let specs: Vec<WorkloadSpec> = self.space.workload_specs();
        let store = WorkloadStore::new();
        let report = Experiment::new()
            .title(self.title.clone())
            .workloads(specs.iter().cloned())
            .size(size)
            .limit(self.limit)
            .design_space(self.designs.clone())
            .evaluators([EvalKind::Model, EvalKind::Sim])
            .threads(self.threads)
            .with_cache(store.clone())
            .run()
            .map_err(ValidateError::Eval)?;

        let points: Vec<DesignPoint> = self.designs.points().collect();
        let n_behaviors = self.space.len();
        let n_points = points.len();

        // Counterfactual timing passes: every (behaviour, design, term)
        // replays the cell's recording under the term's idealization.
        // Flat task list, deterministic slot order, parallel execution.
        let mut tasks = Vec::with_capacity(n_behaviors * n_points * 6);
        for wi in 0..n_behaviors {
            for pi in 0..n_points {
                for term in ErrorTerm::MEASURED {
                    tasks.push((wi, pi, term));
                }
            }
        }
        let cycles: Vec<Result<u64, EvalError>> = parallel_map(
            resolve_threads(self.threads),
            &tasks,
            |_, &(wi, pi, term)| {
                let spec = &specs[wi];
                let program = store.program(spec, size);
                let trace = store.trace(spec, size, self.limit)?;
                let mut replay = trace
                    .replay(&program)
                    .map_err(|e| EvalError::trace(spec.name(), "counterfactual", &e))?;
                let ideal = term.idealization().expect("measured term");
                let sim = PipelineSim::new(&points[pi].machine)
                    .with_idealization(ideal)
                    .simulate_source(&mut replay)
                    .map_err(|e| EvalError::trace(spec.name(), "counterfactual", &e))?;
                Ok(sim.cycles)
            },
        );
        let mut counterfactuals: Vec<[u64; 6]> = Vec::with_capacity(n_behaviors * n_points);
        for chunk in cycles.chunks(6) {
            let mut arr = [0u64; 6];
            for (slot, outcome) in arr.iter_mut().zip(chunk) {
                *slot = outcome.clone()?;
            }
            counterfactuals.push(arr);
        }

        // Assemble cells, behaviour-major then design point.
        let mut cells = Vec::with_capacity(n_behaviors * n_points);
        for (wi, spec) in specs.iter().enumerate() {
            for (pi, point) in points.iter().enumerate() {
                let model_row = report
                    .get(spec.name(), pi, "model")
                    .expect("model cell present");
                let sim_row = report
                    .get(spec.name(), pi, "sim")
                    .expect("sim cell present");
                let error_percent = 100.0 * (model_row.cpi - sim_row.cpi) / sim_row.cpi;
                let swaps = self.swap_shifts(&store, spec, size, point, model_row, sim_row)?;
                let (terms, residual_cpi, dominant) = attribute(
                    &point.machine,
                    model_row,
                    sim_row,
                    &counterfactuals[wi * n_points + pi],
                    &swaps,
                );
                cells.push(CellDiff {
                    workload: spec.name().to_string(),
                    behavior_index: wi,
                    machine_id: point.machine.id(),
                    machine_index: pi,
                    instructions: sim_row.instructions,
                    model_cpi: model_row.cpi,
                    sim_cpi: sim_row.cpi,
                    error_percent,
                    terms,
                    residual_cpi,
                    dominant: Some(dominant),
                });
            }
        }

        let summary = summarize(&cells, self.budget_percent);
        let worst = worst_offenders(&cells, &self.space, self.worst);
        Ok(ValidationReport {
            title: self.title,
            behavior_points: n_behaviors,
            design_points: n_points,
            budget_percent: self.budget_percent,
            workloads: (0..n_behaviors)
                .map(|i| self.space.name_at(i).expect("in range"))
                .collect(),
            machines: points.iter().map(|p| p.machine.id()).collect(),
            space: self.space,
            cells,
            summary,
            worst,
        })
    }

    /// Per-term profile-swap shifts: re-predict the model with the
    /// simulator's measured counts substituted for one term's inputs at a
    /// time (via the runner's [`ModelEvaluator::with_inputs_map`] hook)
    /// and report the CPI movement. Base/long-lat/deps carry no externally
    /// measured counts, so their shift is zero by definition.
    fn swap_shifts(
        &self,
        store: &WorkloadStore,
        spec: &WorkloadSpec,
        size: WorkloadSize,
        point: &DesignPoint,
        model_row: &EvalResult,
        sim_row: &EvalResult,
    ) -> Result<[f64; 6], ValidateError> {
        let sim_misses = sim_row.misses.expect("sim rows carry miss counts");
        let sim_branch = sim_row.branch.expect("sim rows carry branch counts");
        let mut shifts = [0.0; 6];
        for (i, term) in ErrorTerm::MEASURED.into_iter().enumerate() {
            let evaluator = ModelEvaluator::for_point(&self.designs, point)
                .with_cache(store.clone())
                .with_limit(self.limit)
                .with_name(format!("model+swap:{}", term.label()));
            let swapping = match term {
                ErrorTerm::ICache => evaluator.with_inputs_map(move |mut inputs| {
                    inputs.misses.l1i_misses = sim_misses.l1i_misses;
                    inputs.misses.l2i_misses = sim_misses.l2i_misses;
                    inputs.misses.itlb_misses = sim_misses.itlb_misses;
                    inputs
                }),
                ErrorTerm::DCacheMlp => evaluator.with_inputs_map(move |mut inputs| {
                    inputs.misses.l1d_misses = sim_misses.l1d_misses;
                    inputs.misses.l2d_misses = sim_misses.l2d_misses;
                    inputs.misses.dtlb_misses = sim_misses.dtlb_misses;
                    inputs
                }),
                ErrorTerm::Branch => evaluator.with_inputs_map(move |mut inputs| {
                    inputs.branch = sim_branch;
                    inputs
                }),
                // Base/long-lat/deps carry no externally measured counts.
                _ => continue,
            };
            let swapped = swapping.evaluate(spec, size).map_err(ValidateError::Eval)?;
            shifts[i] = swapped.cpi - model_row.cpi;
        }
        Ok(shifts)
    }
}

fn summarize(cells: &[CellDiff], budget_percent: f64) -> ValidationSummary {
    let n = cells.len().max(1) as f64;
    let mean_abs_error_percent = cells.iter().map(|c| c.error_percent.abs()).sum::<f64>() / n;
    let max_abs_error_percent = cells
        .iter()
        .map(|c| c.error_percent.abs())
        .fold(0.0, f64::max);
    let over_budget = cells
        .iter()
        .filter(|c| c.error_percent.abs() > budget_percent)
        .count();
    let has_terms = cells.iter().any(|c| !c.terms.is_empty());
    let terms = if has_terms {
        ErrorTerm::MEASURED
            .into_iter()
            .enumerate()
            .map(|(i, term)| {
                let deltas: Vec<f64> = cells
                    .iter()
                    .filter_map(|c| c.terms.get(i))
                    .map(|t| t.delta_cpi)
                    .collect();
                let swaps: Vec<f64> = cells
                    .iter()
                    .filter_map(|c| c.terms.get(i))
                    .map(|t| t.swap_cpi)
                    .collect();
                TermSummary {
                    term,
                    mean_abs_delta_cpi: deltas.iter().map(|d| d.abs()).sum::<f64>()
                        / deltas.len().max(1) as f64,
                    max_abs_delta_cpi: deltas.iter().map(|d| d.abs()).fold(0.0, f64::max),
                    max_abs_swap_cpi: swaps.iter().map(|s| s.abs()).fold(0.0, f64::max),
                    dominated: cells.iter().filter(|c| c.dominant == Some(term)).count(),
                }
            })
            .collect()
    } else {
        Vec::new()
    };
    ValidationSummary {
        cells: cells.len(),
        mean_abs_error_percent,
        max_abs_error_percent,
        over_budget,
        terms,
        residual_dominated: cells
            .iter()
            .filter(|c| c.dominant == Some(ErrorTerm::Residual))
            .count(),
    }
}

fn worst_offenders(cells: &[CellDiff], space: &BehaviorSpace, n: usize) -> Vec<Offender> {
    let mut order: Vec<&CellDiff> = cells.iter().collect();
    // Deterministic: |error| descending, then (workload, machine) as the
    // tie-break.
    order.sort_by(|a, b| {
        b.error_percent
            .abs()
            .partial_cmp(&a.error_percent.abs())
            .expect("finite errors")
            .then_with(|| a.workload.cmp(&b.workload))
            .then_with(|| a.machine_index.cmp(&b.machine_index))
    });
    order
        .into_iter()
        .take(n)
        .map(|c| {
            let recipe = space.recipe_at(c.behavior_index).expect("index in range");
            Offender {
                workload: c.workload.clone(),
                machine_id: c.machine_id.clone(),
                error_percent: c.error_percent,
                dominant: c.dominant,
                describe: recipe.describe(),
                recipe,
            }
        })
        .collect()
}

/// Signed model-vs-simulation CPI error (percent) of one recipe on one
/// machine — the scalar the shrinker minimizes against its budget.
///
/// # Errors
///
/// Returns an [`EvalError`] if the generated program faults.
pub fn cpi_error_percent(
    recipe: &SyntheticRecipe,
    machine: &MachineConfig,
    limit: Option<u64>,
) -> Result<f64, EvalError> {
    let store = WorkloadStore::new();
    let spec = WorkloadSpec::program("shrink-probe", recipe.generate());
    // Simulate first so the recording exists and the profile replays it:
    // one functional execution for the pair.
    let sim = SimEvaluator::new(machine)
        .with_cache(store.clone())
        .with_limit(limit)
        .evaluate(&spec, WorkloadSize::Small)?;
    let model = ModelEvaluator::new(machine)
        .with_cache(store)
        .with_limit(limit)
        .evaluate(&spec, WorkloadSize::Small)?;
    Ok(100.0 * (model.cpi - sim.cpi) / sim.cpi)
}

/// Shrinks a recipe that exceeds the error budget to a minimal recipe
/// that still exceeds it — the failure-minimization step of the proptest
/// driver (the vendored proptest stand-in does not shrink, so the domain
/// shrinker lives here).
///
/// Candidate reductions are tried in a fixed order (halve the iteration
/// count, halve the block, drop dependency/branch/memory features, shrink
/// the footprint, simplify the mix); any reduction that still exceeds the
/// budget is accepted and the search restarts, so the result is a local
/// minimum: no single candidate reduction keeps it over budget.
///
/// # Errors
///
/// Returns an [`EvalError`] if a candidate program faults.
pub fn shrink_recipe(
    recipe: &SyntheticRecipe,
    machine: &MachineConfig,
    budget_percent: f64,
    limit: Option<u64>,
) -> Result<SyntheticRecipe, EvalError> {
    let exceeds = |r: &SyntheticRecipe| -> Result<bool, EvalError> {
        Ok(cpi_error_percent(r, machine, limit)?.abs() > budget_percent)
    };
    let mut current = recipe.clone();
    if !exceeds(&current)? {
        return Ok(current);
    }
    loop {
        let mut advanced = false;
        for candidate in shrink_candidates(&current) {
            if exceeds(&candidate)? {
                current = candidate;
                advanced = true;
                break;
            }
        }
        if !advanced {
            return Ok(current);
        }
    }
}

/// Strictly smaller/simpler variants of a recipe, in preference order.
fn shrink_candidates(r: &SyntheticRecipe) -> Vec<SyntheticRecipe> {
    let mut out = Vec::new();
    let mut push = |candidate: SyntheticRecipe| {
        if candidate != *r {
            out.push(candidate);
        }
    };
    if r.iterations > 50 {
        push(SyntheticRecipe {
            iterations: (r.iterations / 2).max(50),
            ..r.clone()
        });
    }
    if r.block_size > 8 {
        push(SyntheticRecipe {
            block_size: (r.block_size / 2).max(8),
            ..r.clone()
        });
    }
    if !r.dep_distances.is_empty() {
        push(SyntheticRecipe {
            dep_distances: Vec::new(),
            ..r.clone()
        });
    }
    if r.branch_random_percent > 0 {
        push(SyntheticRecipe {
            branch_random_percent: 0,
            ..r.clone()
        });
    }
    if r.branch_percent > 0 {
        push(SyntheticRecipe {
            branch_percent: 0,
            ..r.clone()
        });
    }
    if r.random_addresses {
        push(SyntheticRecipe {
            random_addresses: false,
            ..r.clone()
        });
    }
    if r.stride_words > 0 {
        push(SyntheticRecipe {
            stride_words: 0,
            ..r.clone()
        });
    }
    if r.footprint_words > 64 {
        push(SyntheticRecipe {
            footprint_words: (r.footprint_words / 4).max(64),
            ..r.clone()
        });
    }
    let (alu, mul, div, load, store) = r.mix;
    if mul > 0 || div > 0 {
        push(SyntheticRecipe {
            mix: (alu.max(1), 0, 0, load, store),
            ..r.clone()
        });
    }
    if load > 0 || store > 0 {
        push(SyntheticRecipe {
            mix: (alu.max(1), mul, div, 0, 0),
            ..r.clone()
        });
    }
    out
}
