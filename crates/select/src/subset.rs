//! The subset sweep: run a design-space study on the representative
//! subset and extrapolate suite-wide metrics with quantified error.

use std::time::Instant;

use mim_core::DesignSpace;
use mim_explore::{kendall_tau, pruned_indices, Exploration, Frontier, FrontierPoint, Objective};
use mim_runner::{
    parallel_map, resolve_threads, EvalKind, Experiment, WorkloadSpec, WorkloadStore,
};
use mim_workloads::WorkloadSize;
use serde::{Deserialize, Serialize};

use crate::error::SelectError;
use crate::representative::{RepresentativeSet, Selection};
use crate::signature::Signature;

/// Wall-clock breakdown of a subset run. Not serialized (reports must be
/// byte-deterministic).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SubsetTiming {
    /// Worker threads used.
    pub threads: usize,
    /// Wall seconds spent extracting signatures.
    pub signature_seconds: f64,
    /// Wall seconds spent on subset-side work: the representative sweep
    /// plus (when the frontier phase is on) the weighted exploration.
    pub subset_seconds: f64,
    /// Wall seconds spent on exhaustive-side work: the verification
    /// sweep plus the exhaustive frontier exploration (0 when
    /// verification is off).
    pub verify_seconds: f64,
    /// Wall seconds spent sim-probing the error bound.
    pub probe_seconds: f64,
    /// End-to-end wall seconds.
    pub total_seconds: f64,
}

/// Exhaustive-reference verification of the extrapolation: the same
/// sweep run on the whole suite, and how faithfully the weighted subset
/// reproduced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubsetVerify {
    /// Exhaustive (uniform-mean) CPI per design point.
    pub exhaustive_cpi: Vec<f64>,
    /// Kendall rank correlation between the weighted-subset and
    /// exhaustive CPI orderings of the design points.
    pub rank_tau: f64,
    /// Mean |weighted − exhaustive| / exhaustive across design points,
    /// percent.
    pub mean_error_percent: f64,
    /// Worst-case extrapolation error across design points, percent.
    pub max_error_percent: f64,
}

/// Pareto frontiers under (delay, energy), weighted-subset vs exhaustive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubsetFrontier {
    /// Objective names, in score order.
    pub objectives: Vec<String>,
    /// Dominance slack granted to extrapolation error when extracting
    /// the subset's contender set (same role as the hybrid workflow's
    /// pruning margin): a point is only dropped when something beats it
    /// by more than this relative margin in every objective.
    pub margin: f64,
    /// The margin-relaxed frontier-contender set the weighted
    /// representative subset finds (the exact frontier when `margin`
    /// is 0).
    pub subset: Frontier,
    /// The exhaustive-suite exact frontier (verification runs only).
    pub exhaustive: Option<Frontier>,
    /// Fraction of the exhaustive frontier present in the subset's
    /// contender set.
    pub recall: Option<f64>,
}

/// Detailed-simulation spot check of the extrapolation error: at a few
/// probe design points, the full suite and the weighted subset are both
/// scored by the cycle-accurate simulator — a model-independent bound on
/// what the subset economy costs in accuracy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimProbe {
    /// Machine ids of the probed design points.
    pub machines: Vec<String>,
    /// Weighted-subset simulated CPI per probe point.
    pub weighted_cpi: Vec<f64>,
    /// Exhaustive-mean simulated CPI per probe point.
    pub exhaustive_cpi: Vec<f64>,
    /// |weighted − exhaustive| / exhaustive per probe point, percent.
    pub error_percent: Vec<f64>,
    /// The sim-verified error bound: the worst probe error, percent.
    pub bound_percent: f64,
}

/// The outcome of a [`SubsetRun`]: the signatures, the selected
/// representatives, the subset sweep's weighted-extrapolated metrics,
/// and (when enabled) the exhaustive verification and sim-probed error
/// bound. Serialization is byte-deterministic for any thread count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubsetReport {
    /// Report title.
    pub title: String,
    /// Evaluator family used for the sweeps.
    pub evaluator: String,
    /// Workload size label.
    pub size: String,
    /// Instruction budget per evaluation, if truncated.
    pub limit: Option<u64>,
    /// Full-suite workload names, in input order.
    pub workloads: Vec<String>,
    /// Names of the normalized signature features.
    pub feature_names: Vec<String>,
    /// Per-workload signatures, in input order.
    pub signatures: Vec<Signature>,
    /// The selected representative subset.
    pub selection: RepresentativeSet,
    /// `k / n` — how much of the suite the subset runs.
    pub subset_fraction: f64,
    /// Machine ids, one per design point.
    pub machines: Vec<String>,
    /// Weighted-extrapolated CPI per design point (the subset's stand-in
    /// for the suite mean).
    pub weighted_cpi: Vec<f64>,
    /// Exhaustive verification, when enabled.
    pub verify: Option<SubsetVerify>,
    /// (delay, energy) frontier comparison, when enabled.
    pub frontier: Option<SubsetFrontier>,
    /// Sim-probed error bound, when enabled.
    pub sim_probe: Option<SimProbe>,
    /// Wall-clock breakdown (not serialized).
    #[serde(skip)]
    pub timing: SubsetTiming,
}

impl SubsetReport {
    /// Serializes the report as pretty JSON (deterministic bytes).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the parse error on malformed input.
    pub fn from_json(text: &str) -> Result<SubsetReport, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Measured cost ratio of the exhaustive sweep over the subset sweep
    /// (1.0 when verification never ran) — the headline economy of
    /// representative selection.
    pub fn sweep_speedup(&self) -> f64 {
        if self.timing.verify_seconds <= 0.0 || self.timing.subset_seconds <= 0.0 {
            return 1.0;
        }
        self.timing.verify_seconds / self.timing.subset_seconds
    }
}

/// Dominance slack granted to extrapolation error when extracting the
/// subset's frontier-contender set, matching the hybrid workflow's 2%
/// pruning margin. Near-tied exhaustive frontier points would drop out
/// of an exact subset frontier, since the weighted scores carry the
/// (quantified, typically sub-percent) extrapolation error.
const FRONTIER_MARGIN: f64 = 0.02;

/// Declarative builder for a representative-subset design-space sweep:
/// characterize every workload, cluster, select weighted medoids, sweep
/// the design space on the medoids only, and quantify what the economy
/// costs.
///
/// # Example
///
/// ```no_run
/// use mim_core::DesignSpace;
/// use mim_select::SubsetRun;
/// use mim_workloads::{mibench, WorkloadSize};
///
/// let report = SubsetRun::new(DesignSpace::paper_table2())
///     .workloads(mibench::all())
///     .size(WorkloadSize::Small)
///     .verify(true)      // also run the exhaustive reference
///     .sim_probes(2)     // sim-verify the error bound at 2 points
///     .run()
///     .expect("subset run");
/// let verify = report.verify.as_ref().expect("verification enabled");
/// println!(
///     "{} of {} workloads reproduce the suite ranking at tau = {:.3}",
///     report.selection.k,
///     report.workloads.len(),
///     verify.rank_tau,
/// );
/// ```
pub struct SubsetRun {
    title: String,
    space: DesignSpace,
    workloads: Vec<WorkloadSpec>,
    size: WorkloadSize,
    limit: Option<u64>,
    selection: Selection,
    kind: EvalKind,
    verify: bool,
    frontier: bool,
    sim_probes: usize,
    threads: usize,
    cache: WorkloadStore,
}

impl SubsetRun {
    /// Creates a subset run over `space` with the default
    /// [`Selection`] policy and the mechanistic-model evaluator.
    pub fn new(space: DesignSpace) -> SubsetRun {
        SubsetRun {
            title: String::new(),
            space,
            workloads: Vec::new(),
            size: WorkloadSize::Small,
            limit: None,
            selection: Selection::default(),
            kind: EvalKind::Model,
            verify: false,
            frontier: true,
            sim_probes: 0,
            threads: 0,
            cache: WorkloadStore::new(),
        }
    }

    /// Sets the report title.
    pub fn title(mut self, title: impl Into<String>) -> SubsetRun {
        self.title = title.into();
        self
    }

    /// Adds workloads (the full suite to select from).
    pub fn workloads<I, W>(mut self, workloads: I) -> SubsetRun
    where
        I: IntoIterator<Item = W>,
        W: Into<WorkloadSpec>,
    {
        self.workloads.extend(workloads.into_iter().map(Into::into));
        self
    }

    /// Adds one workload.
    pub fn workload(mut self, workload: impl Into<WorkloadSpec>) -> SubsetRun {
        self.workloads.push(workload.into());
        self
    }

    /// Sets the workload size (default [`WorkloadSize::Small`]).
    pub fn size(mut self, size: WorkloadSize) -> SubsetRun {
        self.size = size;
        self
    }

    /// Truncates every recording/profile/simulation to `limit` retired
    /// instructions (a number, or an `Option` where `None` runs to the
    /// end).
    pub fn limit(mut self, limit: impl Into<Option<u64>>) -> SubsetRun {
        self.limit = limit.into();
        self
    }

    /// Replaces the selection policy (`k` policy, subset-size cap).
    pub fn selection(mut self, selection: Selection) -> SubsetRun {
        self.selection = selection;
        self
    }

    /// Selects the evaluator family for the sweeps (default
    /// [`EvalKind::Model`]).
    pub fn evaluator(mut self, kind: EvalKind) -> SubsetRun {
        self.kind = kind;
        self
    }

    /// Also runs the exhaustive suite over the space and reports rank
    /// fidelity, extrapolation error, and frontier recall (default off —
    /// it costs exactly what the subset economy saves).
    pub fn verify(mut self, verify: bool) -> SubsetRun {
        self.verify = verify;
        self
    }

    /// Toggles the (delay, energy) frontier comparison (default on).
    pub fn frontier(mut self, frontier: bool) -> SubsetRun {
        self.frontier = frontier;
        self
    }

    /// Sim-verifies the extrapolation error at `probes` design points
    /// spread across the space (default 0 = off).
    pub fn sim_probes(mut self, probes: usize) -> SubsetRun {
        self.sim_probes = probes;
        self
    }

    /// Number of worker threads; `0` (the default) uses all cores. Any
    /// value produces byte-identical reports.
    pub fn threads(mut self, threads: usize) -> SubsetRun {
        self.threads = threads;
        self
    }

    /// The run's shared workload store.
    pub fn profile_cache(&self) -> WorkloadStore {
        self.cache.clone()
    }

    /// Replaces the workload store with a shared one, so signatures,
    /// sweeps, and probes reuse recordings across runs.
    pub fn with_cache(mut self, cache: WorkloadStore) -> SubsetRun {
        self.cache = cache;
        self
    }

    /// Per-design-point CPI table for one experiment label: map each
    /// row's `(workload, machine_index)` to CPI.
    fn cpi_table(
        report: &mim_runner::ExperimentReport,
        label: &str,
        points: usize,
    ) -> std::collections::HashMap<(String, usize), f64> {
        let mut table = std::collections::HashMap::with_capacity(points);
        for row in report.rows_for(label) {
            table.insert((row.workload.clone(), row.machine_index), row.cpi);
        }
        table
    }

    /// Runs the full workflow.
    ///
    /// # Errors
    ///
    /// Returns a [`SelectError`] for a misconfigured run or a failed
    /// evaluation.
    pub fn run(self) -> Result<SubsetReport, SelectError> {
        let t_start = Instant::now();
        if self.workloads.is_empty() {
            return Err(SelectError::config("no workloads configured"));
        }
        if self.space.is_empty() {
            return Err(SelectError::config("design space has no points"));
        }
        let mut seen = std::collections::HashSet::new();
        for spec in &self.workloads {
            if !seen.insert(spec.name().to_string()) {
                return Err(SelectError::config(format!(
                    "duplicate workload name `{}`",
                    spec.name()
                )));
            }
        }
        let threads = resolve_threads(self.threads);

        // Phase 1 — characterize: one signature per workload, off the
        // store's single recording per workload.
        let t_signatures = Instant::now();
        let outcomes: Vec<Result<Signature, SelectError>> =
            parallel_map(threads, &self.workloads, |_, spec| {
                Signature::extract(&self.cache, spec, self.size, self.limit)
            });
        let mut signatures = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            signatures.push(outcome?);
        }
        let signature_seconds = t_signatures.elapsed().as_secs_f64();

        // Phase 2 — cluster and select the weighted medoids.
        let selection = RepresentativeSet::select(&signatures, &self.selection)?;
        let spec_of = |name: &str| -> WorkloadSpec {
            self.workloads
                .iter()
                .find(|w| w.name() == name)
                .expect("representatives come from the suite")
                .clone()
        };
        let rep_specs: Vec<WorkloadSpec> =
            selection.names().iter().map(|name| spec_of(name)).collect();
        let label = self.kind.label().to_string();
        let points = self.space.len();

        // Phase 3 — the subset sweep: representatives only, full space.
        let t_subset = Instant::now();
        let subset_report = Experiment::new()
            .title("representative subset sweep")
            .workloads(rep_specs.iter().cloned())
            .size(self.size)
            .limit(self.limit)
            .design_space(self.space.clone())
            .evaluators([self.kind])
            .threads(threads)
            .with_cache(self.cache.clone())
            .run()?;
        let subset_table = SubsetRun::cpi_table(&subset_report, &label, points);
        let weighted_cpi: Vec<f64> = (0..points)
            .map(|point| selection.weighted_mean(|name| subset_table[&(name.to_string(), point)]))
            .collect();
        // Subset-side and exhaustive-side costs accumulate separately
        // (the frontier phase below runs one exploration on each side),
        // so `sweep_speedup` compares genuinely comparable work.
        let mut subset_seconds = t_subset.elapsed().as_secs_f64();
        let mut verify_seconds = 0.0;

        // Phase 4 (optional) — exhaustive verification sweep.
        let verify = if self.verify {
            let t_verify = Instant::now();
            let exhaustive_report = Experiment::new()
                .title("exhaustive reference sweep")
                .workloads(self.workloads.iter().cloned())
                .size(self.size)
                .limit(self.limit)
                .design_space(self.space.clone())
                .evaluators([self.kind])
                .threads(threads)
                .with_cache(self.cache.clone())
                .run()?;
            let table = SubsetRun::cpi_table(&exhaustive_report, &label, points);
            let n = self.workloads.len() as f64;
            let exhaustive_cpi: Vec<f64> = (0..points)
                .map(|point| {
                    self.workloads
                        .iter()
                        .map(|w| table[&(w.name().to_string(), point)])
                        .sum::<f64>()
                        / n
                })
                .collect();
            let errors: Vec<f64> = weighted_cpi
                .iter()
                .zip(&exhaustive_cpi)
                .map(|(w, e)| 100.0 * (w - e).abs() / e)
                .collect();
            let verify = Some(SubsetVerify {
                rank_tau: kendall_tau(&weighted_cpi, &exhaustive_cpi),
                mean_error_percent: errors.iter().sum::<f64>() / errors.len().max(1) as f64,
                max_error_percent: errors.iter().cloned().fold(0.0, f64::max),
                exhaustive_cpi,
            });
            verify_seconds += t_verify.elapsed().as_secs_f64();
            verify
        } else {
            None
        };

        // Phase 4b (optional) — (delay, energy) frontiers through the
        // weighted exploration path.
        let frontier = if self.frontier {
            let explore = |specs: &[WorkloadSpec], weights: Option<Vec<f64>>| {
                let mut exploration = Exploration::new(self.space.clone())
                    .workloads(specs.iter().cloned())
                    .size(self.size)
                    .limit(self.limit)
                    .objectives([Objective::delay(), Objective::energy()])
                    .evaluator(self.kind)
                    .threads(threads)
                    .with_cache(self.cache.clone());
                if let Some(weights) = weights {
                    exploration = exploration.workload_weights(weights);
                }
                exploration.run()
            };
            let objectives = vec!["delay".to_string(), "energy".to_string()];
            let t_subset_frontier = Instant::now();
            let subset_exploration = explore(&rep_specs, Some(selection.weights()))?;
            subset_seconds += t_subset_frontier.elapsed().as_secs_f64();
            // Margin-relaxed contender extraction over every evaluated
            // point: the weighted scores carry extrapolation error, so a
            // point only leaves the contender set when something beats
            // it decisively.
            let scores: Vec<Vec<f64>> = subset_exploration
                .evaluated
                .iter()
                .map(|p| p.scores.clone())
                .collect();
            let subset_frontier = Frontier {
                objectives: objectives.clone(),
                points: pruned_indices(&scores, FRONTIER_MARGIN)
                    .into_iter()
                    .map(|i| {
                        let point = &subset_exploration.evaluated[i];
                        FrontierPoint {
                            point_index: point.point_index,
                            machine_id: point.machine_id.clone(),
                            scores: point.scores.clone(),
                        }
                    })
                    .collect(),
            };
            let (exhaustive, recall) = if self.verify {
                let t_exhaustive_frontier = Instant::now();
                let exhaustive = explore(&self.workloads, None)?.frontier;
                verify_seconds += t_exhaustive_frontier.elapsed().as_secs_f64();
                let recall = subset_frontier.recall_of(&exhaustive);
                (Some(exhaustive), Some(recall))
            } else {
                (None, None)
            };
            Some(SubsetFrontier {
                objectives,
                margin: FRONTIER_MARGIN,
                subset: subset_frontier,
                exhaustive,
                recall,
            })
        } else {
            None
        };

        // Phase 5 (optional) — sim-verified error bound at probe points.
        let t_probe = Instant::now();
        let sim_probe = if self.sim_probes > 0 {
            let probes = self.sim_probes.min(points);
            let indices: Vec<usize> = if probes == 1 {
                vec![points / 2]
            } else {
                let mut indices: Vec<usize> = (0..probes)
                    .map(|j| j * (points - 1) / (probes - 1))
                    .collect();
                indices.dedup();
                indices
            };
            let mut machines = Vec::with_capacity(indices.len());
            let mut probe_weighted = Vec::with_capacity(indices.len());
            let mut probe_exhaustive = Vec::with_capacity(indices.len());
            let mut error_percent = Vec::with_capacity(indices.len());
            for index in indices {
                let point = self
                    .space
                    .point_at(index)
                    .expect("probe index within space");
                let probe_report = Experiment::new()
                    .title("sim probe")
                    .workloads(self.workloads.iter().cloned())
                    .size(self.size)
                    .limit(self.limit)
                    .machine(point.machine.clone())
                    .evaluators([EvalKind::Sim])
                    .threads(threads)
                    .with_cache(self.cache.clone())
                    .run()?;
                let table = SubsetRun::cpi_table(&probe_report, EvalKind::Sim.label(), 1);
                let weighted = selection.weighted_mean(|name| table[&(name.to_string(), 0)]);
                let exhaustive = self
                    .workloads
                    .iter()
                    .map(|w| table[&(w.name().to_string(), 0)])
                    .sum::<f64>()
                    / self.workloads.len() as f64;
                machines.push(point.machine.id());
                probe_weighted.push(weighted);
                probe_exhaustive.push(exhaustive);
                error_percent.push(100.0 * (weighted - exhaustive).abs() / exhaustive);
            }
            Some(SimProbe {
                machines,
                weighted_cpi: probe_weighted,
                exhaustive_cpi: probe_exhaustive,
                bound_percent: error_percent.iter().cloned().fold(0.0, f64::max),
                error_percent,
            })
        } else {
            None
        };
        let probe_seconds = t_probe.elapsed().as_secs_f64();

        let subset_fraction = selection.fraction();
        Ok(SubsetReport {
            title: self.title,
            evaluator: label,
            size: self.size.to_string(),
            limit: self.limit,
            workloads: self
                .workloads
                .iter()
                .map(|w| w.name().to_string())
                .collect(),
            feature_names: Signature::feature_names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            signatures,
            selection,
            subset_fraction,
            machines: subset_report.machines.clone(),
            weighted_cpi,
            verify,
            frontier,
            sim_probe,
            timing: SubsetTiming {
                threads,
                signature_seconds,
                subset_seconds,
                verify_seconds,
                probe_seconds,
                total_seconds: t_start.elapsed().as_secs_f64(),
            },
        })
    }
}
