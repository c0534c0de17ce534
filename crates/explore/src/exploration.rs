//! The [`Exploration`] builder and its deterministic
//! [`ExplorationReport`], including the paper's headline hybrid
//! model→sim workflow.

use std::time::Instant;

use mim_core::DesignSpace;
use mim_runner::{
    parallel_map, resolve_threads, EvalKind, EvalOptions, WorkloadSpec, WorkloadStore,
};
use mim_workloads::WorkloadSize;
use serde::{Deserialize, Serialize};

use crate::error::ExploreError;
use crate::objective::Objective;
use crate::pareto::{kendall_tau, pruned_indices, Frontier};
use crate::strategy::{scalarize, Exhaustive, PointScorer, SearchSpace, SearchStrategy};

/// Wall-clock breakdown of an exploration run. Not serialized (it varies
/// run to run, and reports must be byte-deterministic).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExplorationTiming {
    /// Worker threads used for grid and sim-verification phases.
    pub threads: usize,
    /// Wall seconds spent in the search phase (model-guided).
    pub search_seconds: f64,
    /// Wall seconds spent sim-verifying frontier survivors.
    pub sim_seconds: f64,
    /// End-to-end wall seconds.
    pub total_seconds: f64,
}

/// One evaluated design point: its flat index, machine id, and objective
/// scores (aggregated across the exploration's workloads).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluatedPoint {
    /// Flat index of the point within the design space.
    pub point_index: usize,
    /// Machine id of the design point.
    pub machine_id: String,
    /// Objective scores, in the exploration's objective order.
    pub scores: Vec<f64>,
}

/// One pruning survivor in the hybrid workflow, carrying both its model
/// scores and its simulator-verified scores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HybridPoint {
    /// Flat index of the point within the design space.
    pub point_index: usize,
    /// Machine id of the design point.
    pub machine_id: String,
    /// Model-predicted objective scores.
    pub model_scores: Vec<f64>,
    /// Detailed-simulation objective scores.
    pub sim_scores: Vec<f64>,
}

/// Outcome of the hybrid model→sim workflow (§6 of the paper made
/// operational): the model scores every candidate, margin-relaxed
/// dominance prunes the space down to frontier contenders, and only those
/// survivors are re-evaluated with detailed simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HybridReport {
    /// Pruning margin: a candidate survives unless something beats it by
    /// more than this relative slack in every objective.
    pub margin: f64,
    /// Survivors of model pruning, ascending by point index, with model
    /// and simulation scores side by side.
    pub survivors: Vec<HybridPoint>,
    /// Number of design points evaluated with the simulator.
    pub sim_points: usize,
    /// Simulated fraction of the whole space (the exploration-cost
    /// headline: how little simulation the hybrid spent).
    pub sim_fraction: f64,
    /// The sim-verified frontier over the survivors.
    pub frontier: Frontier,
    /// Kendall rank correlation between model and simulation scalarized
    /// scores over the survivors: `1.0` means the model ranks every
    /// contender pair exactly as the simulator does.
    pub rank_fidelity: f64,
}

/// The outcome of [`Exploration::run`]: every point the strategy
/// evaluated (ascending by point index), the model frontier, and — for
/// hybrid runs — the sim-verified frontier.
///
/// Serialization is deterministic: the same exploration produces
/// byte-identical JSON for any thread count (timing lives outside the
/// serialized fields), matching the `ExperimentReport` guarantee.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExplorationReport {
    /// Exploration title.
    pub title: String,
    /// Strategy name.
    pub strategy: String,
    /// Evaluator family used for the search phase.
    pub evaluator: String,
    /// Objective names, in score order.
    pub objectives: Vec<String>,
    /// Workload names.
    pub workloads: Vec<String>,
    /// Workload size label.
    pub size: String,
    /// Instruction budget per evaluation, if truncated.
    pub limit: Option<u64>,
    /// Total number of points in the design space.
    pub space_points: usize,
    /// Every evaluated point, ascending by point index.
    pub evaluated: Vec<EvaluatedPoint>,
    /// The exact Pareto frontier over the evaluated points.
    pub frontier: Frontier,
    /// Hybrid model→sim verification, when enabled.
    pub hybrid: Option<HybridReport>,
    /// Wall-clock breakdown (not serialized).
    #[serde(skip)]
    pub timing: ExplorationTiming,
}

impl ExplorationReport {
    /// Fraction of the space the search evaluated.
    pub fn evaluated_fraction(&self) -> f64 {
        if self.space_points == 0 {
            return 0.0;
        }
        self.evaluated.len() as f64 / self.space_points as f64
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
    pub fn from_json(text: &str) -> Result<ExplorationReport, serde_json::Error> {
        serde_json::from_str(text)
    }
}

/// Declarative builder for a design-space exploration: workloads × a
/// design space × objectives, searched by a pluggable
/// [`SearchStrategy`] and optionally sim-verified (the hybrid workflow).
///
/// Like [`Experiment`](mim_runner::Experiment), each workload is profiled
/// **once** per exploration — the strategy, the exhaustive grid, and the
/// hybrid sim-verification pass all share one [`WorkloadStore`].
///
/// # Example
///
/// ```
/// use mim_core::{DesignSpace, MachineConfig};
/// use mim_explore::{Exploration, GreedyAscent, Objective};
/// use mim_workloads::{mibench, WorkloadSize};
///
/// let space = DesignSpace::new(MachineConfig::default_config())
///     .with_widths(vec![1, 2, 3, 4])
///     .expect("distinct widths");
/// let report = Exploration::new(space)
///     .workload(mibench::sha())
///     .size(WorkloadSize::Tiny)
///     .objectives([Objective::delay(), Objective::energy()])
///     .strategy(GreedyAscent::new().restarts(2))
///     .run()
///     .expect("exploration");
/// assert!(!report.frontier.is_empty());
/// ```
pub struct Exploration {
    title: String,
    space: DesignSpace,
    workloads: Vec<WorkloadSpec>,
    weights: Option<Vec<f64>>,
    size: WorkloadSize,
    objectives: Vec<Objective>,
    strategy: Box<dyn SearchStrategy>,
    kind: EvalKind,
    options: EvalOptions,
    threads: usize,
    sim_verify: Option<f64>,
}

impl Exploration {
    /// Creates an exploration over `space` with the [`Exhaustive`]
    /// strategy and the mechanistic-model evaluator.
    pub fn new(space: DesignSpace) -> Exploration {
        Exploration {
            title: String::new(),
            space,
            workloads: Vec::new(),
            weights: None,
            size: WorkloadSize::Small,
            objectives: Vec::new(),
            strategy: Box::new(Exhaustive),
            kind: EvalKind::Model,
            options: EvalOptions::default(),
            threads: 0,
            sim_verify: None,
        }
    }

    /// Sets the report title.
    pub fn title(mut self, title: impl Into<String>) -> Exploration {
        self.title = title.into();
        self
    }

    /// Adds workloads.
    pub fn workloads<I, W>(mut self, workloads: I) -> Exploration
    where
        I: IntoIterator<Item = W>,
        W: Into<WorkloadSpec>,
    {
        self.workloads.extend(workloads.into_iter().map(Into::into));
        self
    }

    /// Adds one workload.
    pub fn workload(mut self, workload: impl Into<WorkloadSpec>) -> Exploration {
        self.workloads.push(workload.into());
        self
    }

    /// Weights the per-workload objective aggregation (default: uniform
    /// mean). One weight per workload, in workload order; weights are
    /// normalized to sum to 1 before scoring.
    ///
    /// This is how a representative subset stands in for a full suite
    /// (`mim-select`): explore the space over the cluster medoids only,
    /// weighting each medoid by its cluster's share of the suite, and the
    /// frontier approximates the exhaustive-suite frontier at a fraction
    /// of the evaluation cost.
    pub fn workload_weights(mut self, weights: impl IntoIterator<Item = f64>) -> Exploration {
        self.weights = Some(weights.into_iter().collect());
        self
    }

    /// Sets the workload size (default [`WorkloadSize::Small`]).
    pub fn size(mut self, size: WorkloadSize) -> Exploration {
        self.size = size;
        self
    }

    /// Truncates every profile/simulation to `limit` retired instructions
    /// (a number, or an `Option` where `None` runs to the end).
    pub fn limit(mut self, limit: impl Into<Option<u64>>) -> Exploration {
        self.options.limit = limit.into();
        self
    }

    /// Adds objectives (all minimized; order keys score vectors).
    pub fn objectives(mut self, objectives: impl IntoIterator<Item = Objective>) -> Exploration {
        self.objectives.extend(objectives);
        self
    }

    /// Adds one objective.
    pub fn objective(mut self, objective: Objective) -> Exploration {
        self.objectives.push(objective);
        self
    }

    /// Replaces the search strategy (default [`Exhaustive`]).
    pub fn strategy(mut self, strategy: impl SearchStrategy + 'static) -> Exploration {
        self.strategy = Box::new(strategy);
        self
    }

    /// Selects the evaluator family for the search phase (default
    /// [`EvalKind::Model`] — the point of the paper).
    pub fn evaluator(mut self, kind: EvalKind) -> Exploration {
        self.kind = kind;
        self
    }

    /// Forces energy evaluation on even when no built-in objective needs
    /// it (custom objectives that read [`EvalResult::energy`] want this).
    ///
    /// [`EvalResult::energy`]: mim_runner::EvalResult::energy
    pub fn energy(mut self, energy: bool) -> Exploration {
        self.options.energy = energy;
        self
    }

    /// Number of worker threads for grid and sim-verification phases;
    /// `0` (the default) uses all cores. Any value produces byte-identical
    /// reports.
    pub fn threads(mut self, threads: usize) -> Exploration {
        self.threads = threads;
        self
    }

    /// Enables the hybrid workflow: after the model-guided search, prune
    /// the evaluated points with `margin`-relaxed dominance and
    /// re-evaluate only the survivors with detailed simulation
    /// ([`EvalKind::Sim`]). The margin is the slack granted to model
    /// error: scores aggregate across workloads, where per-point errors
    /// (2.5% on average, Fig. 5) largely cancel, so `0.02`–`0.05` suits
    /// multi-benchmark explorations; single-workload runs see the full
    /// per-point error (up to ~10%) and want a correspondingly wider
    /// margin.
    pub fn sim_verify(mut self, margin: f64) -> Exploration {
        self.sim_verify = Some(margin.max(0.0));
        self
    }

    /// The exploration's shared profile cache (hand it to other
    /// experiments to reuse the same one-pass profiles).
    pub fn profile_cache(&self) -> WorkloadStore {
        self.options.store.clone()
    }

    /// Replaces the profile cache with a shared one.
    pub fn with_cache(mut self, cache: WorkloadStore) -> Exploration {
        self.options.store = cache;
        self
    }

    /// Runs the search (and, for hybrid runs, the sim-verification pass)
    /// and returns the report.
    ///
    /// # Errors
    ///
    /// Returns an [`ExploreError`] for a misconfigured exploration or a
    /// failed evaluation.
    pub fn run(self) -> Result<ExplorationReport, ExploreError> {
        let t_start = Instant::now();
        if self.workloads.is_empty() {
            return Err(ExploreError::config("no workloads configured"));
        }
        if self.objectives.is_empty() {
            return Err(ExploreError::config("no objectives configured"));
        }
        if self.space.is_empty() {
            return Err(ExploreError::config("design space has no points"));
        }
        let weights = match &self.weights {
            None => vec![1.0 / self.workloads.len() as f64; self.workloads.len()],
            Some(weights) => {
                if weights.len() != self.workloads.len() {
                    return Err(ExploreError::config(format!(
                        "{} workload weights for {} workloads",
                        weights.len(),
                        self.workloads.len()
                    )));
                }
                if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
                    return Err(ExploreError::config(
                        "workload weights must be finite and non-negative",
                    ));
                }
                let total: f64 = weights.iter().sum();
                if total <= 0.0 {
                    return Err(ExploreError::config("workload weights sum to zero"));
                }
                weights.iter().map(|w| w / total).collect()
            }
        };
        let options = EvalOptions {
            energy: self.options.energy || self.objectives.iter().any(Objective::needs_energy),
            ..self.options.clone()
        };
        let threads = resolve_threads(self.threads);

        // Hybrid runs simulate survivors later: record each workload's
        // trace now so the model search's profiling pass replays the same
        // recording phase 2 will — one functional execution per workload
        // for the whole exploration. (Model-only runs skip this and let
        // the profiler stream, trace-free.)
        if self.sim_verify.is_some() || self.kind != EvalKind::Model {
            let warmed: Vec<Result<(), ExploreError>> =
                parallel_map(threads, &self.workloads, |_, spec| {
                    options.store.trace(spec, self.size, options.limit)?;
                    Ok(())
                });
            for outcome in warmed {
                outcome?;
            }
        }

        // Phase 1 — model-guided search. Every point the strategy visits
        // is scored through the shared, memoized search space.
        let scorer = PointScorer {
            space: self.space.clone(),
            workloads: self.workloads.clone(),
            weights: weights.clone(),
            size: self.size,
            kind: self.kind,
            options: options.clone(),
            objectives: self.objectives.clone(),
            threads,
        };
        let t_search = Instant::now();
        let search_space = SearchSpace::new(&scorer);
        self.strategy.search(&search_space)?;
        let search_seconds = t_search.elapsed().as_secs_f64();
        let visited = search_space.into_evaluated();
        if visited.is_empty() {
            return Err(ExploreError::config(format!(
                "strategy `{}` evaluated no points",
                self.strategy.name()
            )));
        }
        let evaluated: Vec<EvaluatedPoint> = visited
            .into_iter()
            .map(|(point_index, scores)| EvaluatedPoint {
                point_index,
                machine_id: self
                    .space
                    .point_at(point_index)
                    .expect("memoized index within space")
                    .machine
                    .id(),
                scores,
            })
            .collect();
        let objective_names: Vec<String> = self
            .objectives
            .iter()
            .map(|o| o.name().to_string())
            .collect();
        let candidates: Vec<(usize, String, Vec<f64>)> = evaluated
            .iter()
            .map(|p| (p.point_index, p.machine_id.clone(), p.scores.clone()))
            .collect();
        let frontier = Frontier::from_candidates(objective_names.clone(), &candidates);

        // Phase 2 (hybrid runs) — margin-relaxed pruning, then detailed
        // simulation of the survivors only.
        let t_sim = Instant::now();
        let hybrid = match self.sim_verify {
            None => None,
            Some(margin) => Some(self.run_sim_verification(
                margin,
                &evaluated,
                objective_names.clone(),
                &weights,
                &options,
                threads,
            )?),
        };
        let sim_seconds = t_sim.elapsed().as_secs_f64();

        Ok(ExplorationReport {
            title: self.title,
            strategy: self.strategy.name(),
            evaluator: self.kind.label().to_string(),
            objectives: objective_names,
            workloads: self
                .workloads
                .iter()
                .map(|w| w.name().to_string())
                .collect(),
            size: self.size.to_string(),
            limit: options.limit,
            space_points: self.space.len(),
            evaluated,
            frontier,
            hybrid,
            timing: ExplorationTiming {
                threads,
                search_seconds,
                sim_seconds,
                total_seconds: t_start.elapsed().as_secs_f64(),
            },
        })
    }

    fn run_sim_verification(
        &self,
        margin: f64,
        evaluated: &[EvaluatedPoint],
        objective_names: Vec<String>,
        weights: &[f64],
        options: &EvalOptions,
        threads: usize,
    ) -> Result<HybridReport, ExploreError> {
        let model_scores: Vec<Vec<f64>> = evaluated.iter().map(|p| p.scores.clone()).collect();
        let survivor_positions = pruned_indices(&model_scores, margin);
        let sim_scorer = PointScorer {
            space: self.space.clone(),
            workloads: self.workloads.clone(),
            weights: weights.to_vec(),
            size: self.size,
            kind: EvalKind::Sim,
            options: options.clone(),
            objectives: self.objectives.clone(),
            threads,
        };
        // Recordings were warmed by `run` before the model search, so the
        // parallel fan-out below only ever replays.
        let outcomes = parallel_map(threads, &survivor_positions, |_, &position| {
            sim_scorer.score_point(evaluated[position].point_index)
        });
        let mut survivors = Vec::with_capacity(outcomes.len());
        for (position, outcome) in survivor_positions.iter().zip(outcomes) {
            let point = &evaluated[*position];
            survivors.push(HybridPoint {
                point_index: point.point_index,
                machine_id: point.machine_id.clone(),
                model_scores: point.scores.clone(),
                sim_scores: outcome?,
            });
        }
        let sim_candidates: Vec<(usize, String, Vec<f64>)> = survivors
            .iter()
            .map(|p| (p.point_index, p.machine_id.clone(), p.sim_scores.clone()))
            .collect();
        let frontier = Frontier::from_candidates(objective_names, &sim_candidates);
        let objective_weights = vec![1.0; self.objectives.len()];
        let model_rank: Vec<f64> = survivors
            .iter()
            .map(|p| scalarize(&p.model_scores, &objective_weights))
            .collect();
        let sim_rank: Vec<f64> = survivors
            .iter()
            .map(|p| scalarize(&p.sim_scores, &objective_weights))
            .collect();
        let sim_points = survivors.len();
        Ok(HybridReport {
            margin,
            survivors,
            sim_points,
            sim_fraction: sim_points as f64 / self.space.len() as f64,
            frontier,
            rank_fidelity: kendall_tau(&model_rank, &sim_rank),
        })
    }
}
