//! Pluggable search strategies over a design space: exhaustive
//! enumeration, per-axis greedy hill climbing, and seeded simulated
//! annealing — all scoring points through one shared, memoized
//! [`SearchSpace`] so a workload is profiled exactly once no matter how
//! a strategy wanders.

use std::collections::BTreeMap;
use std::sync::Mutex;

use mim_core::{DesignPoint, DesignSpace};
use mim_runner::{
    EvalKind, EvalResult, Evaluator, Experiment, ModelEvaluator, OooEvaluator, Sampling,
    SimEvaluator, WorkloadSpec, WorkloadStore,
};
use mim_workloads::WorkloadSize;

use crate::error::ExploreError;
use crate::objective::Objective;

/// The workspace's deterministic random stream: the seed fully
/// determines every strategy decision, which is what makes annealing
/// reports reproducible byte for byte.
pub(crate) use mim_core::SplitMix64;

/// Scores design points: (point × workloads × objectives) → one objective
/// vector per point, aggregated as the weighted arithmetic mean across
/// workloads (`weights` normalized to sum to 1; uniform by default — the
/// representative-subset workflow supplies cluster weights instead).
pub(crate) struct PointScorer {
    pub(crate) space: DesignSpace,
    pub(crate) workloads: Vec<WorkloadSpec>,
    pub(crate) weights: Vec<f64>,
    pub(crate) size: WorkloadSize,
    pub(crate) limit: Option<u64>,
    pub(crate) kind: EvalKind,
    pub(crate) energy: bool,
    pub(crate) cache: WorkloadStore,
    pub(crate) objectives: Vec<Objective>,
    pub(crate) threads: usize,
}

impl PointScorer {
    fn evaluate_cell(
        &self,
        spec: &WorkloadSpec,
        point: &DesignPoint,
    ) -> Result<EvalResult, ExploreError> {
        let result = match self.kind {
            EvalKind::Model => ModelEvaluator::for_point(&self.space, point)
                .with_cache(self.cache.clone())
                .with_limit(self.limit)
                .with_energy(self.energy)
                .evaluate(spec, self.size)?,
            EvalKind::Sim | EvalKind::Sampled => SimEvaluator::for_point(&self.space, point)
                .with_sampling((self.kind == EvalKind::Sampled).then(Sampling::default_plan))
                .with_cache(self.cache.clone())
                .with_limit(self.limit)
                .with_energy(self.energy)
                .evaluate(spec, self.size)?,
            EvalKind::Ooo => OooEvaluator::for_point(&self.space, point)
                .with_cache(self.cache.clone())
                .with_limit(self.limit)
                .with_energy(self.energy)
                .evaluate(spec, self.size)?,
        };
        Ok(result)
    }

    /// Scores one design point: per-objective weighted mean across the
    /// exploration's workloads.
    pub(crate) fn score_point(&self, index: usize) -> Result<Vec<f64>, ExploreError> {
        let point = self.space.point_at(index).ok_or_else(|| {
            ExploreError::config(format!(
                "point index {index} out of range (space holds {} points)",
                self.space.len()
            ))
        })?;
        let mut sums = vec![0.0; self.objectives.len()];
        for (spec, &weight) in self.workloads.iter().zip(&self.weights) {
            let result = self.evaluate_cell(spec, &point)?;
            for (sum, objective) in sums.iter_mut().zip(&self.objectives) {
                *sum += weight * objective.score(&result, &point.machine)?;
            }
        }
        Ok(sums)
    }
}

/// A strategy's view of the design space: a memoized scoring oracle plus
/// the axis structure needed to take neighborhood steps. Every point a
/// strategy evaluates lands in the exploration's evaluated set — the
/// frontier is extracted from exactly what the search visited.
pub struct SearchSpace<'a> {
    scorer: &'a PointScorer,
    memo: Mutex<BTreeMap<usize, Vec<f64>>>,
}

impl<'a> SearchSpace<'a> {
    pub(crate) fn new(scorer: &'a PointScorer) -> SearchSpace<'a> {
        SearchSpace {
            scorer,
            memo: Mutex::new(BTreeMap::new()),
        }
    }

    /// Number of points in the design space.
    pub fn len(&self) -> usize {
        self.scorer.space.len()
    }

    /// True when the space has no points.
    pub fn is_empty(&self) -> bool {
        self.scorer.space.is_empty()
    }

    /// Candidate counts per axis: `[depth_freq, widths, l2s, predictors]`.
    pub fn axis_lens(&self) -> [usize; 4] {
        self.scorer.space.axis_lens()
    }

    /// Decodes a flat point index into per-axis coordinates.
    pub fn coords_of(&self, index: usize) -> Option<[usize; 4]> {
        self.scorer.space.coords_of(index)
    }

    /// Encodes per-axis coordinates into the flat point index.
    pub fn index_of(&self, coords: [usize; 4]) -> Option<usize> {
        self.scorer.space.index_of(coords)
    }

    /// Number of objectives per score vector.
    pub fn objective_count(&self) -> usize {
        self.scorer.objectives.len()
    }

    /// Number of distinct points evaluated so far (the search budget
    /// currency: memoized re-visits are free).
    pub fn evaluations(&self) -> usize {
        self.memo.lock().expect("memo poisoned").len()
    }

    /// Scores the design point at `index`, memoized: the first visit runs
    /// the evaluator over every workload (reusing the exploration's
    /// one-pass profile cache), later visits are free.
    ///
    /// # Errors
    ///
    /// Returns an [`ExploreError`] for an out-of-range index or a failed
    /// evaluation.
    pub fn evaluate(&self, index: usize) -> Result<Vec<f64>, ExploreError> {
        if let Some(scores) = self.memo.lock().expect("memo poisoned").get(&index) {
            return Ok(scores.clone());
        }
        let scores = self.scorer.score_point(index)?;
        self.memo
            .lock()
            .expect("memo poisoned")
            .insert(index, scores.clone());
        Ok(scores)
    }

    /// Scores every point of the space in one parallel grid — delegates to
    /// [`Experiment`] (sharing the exploration's profile cache and thread
    /// count), which is how [`Exhaustive`] keeps the §2.1 one-pass
    /// invariant.
    ///
    /// # Errors
    ///
    /// Returns an [`ExploreError`] if any cell fails.
    pub fn evaluate_all(&self) -> Result<(), ExploreError> {
        let scorer = self.scorer;
        let mut experiment = Experiment::new()
            .title("exhaustive exploration grid")
            .workloads(scorer.workloads.iter().cloned())
            .size(scorer.size)
            .design_space(scorer.space.clone())
            .evaluators([scorer.kind])
            .energy(scorer.energy)
            .threads(scorer.threads)
            .with_cache(scorer.cache.clone());
        if let Some(limit) = scorer.limit {
            experiment = experiment.limit(limit);
        }
        let report = experiment.run()?;
        // One linear pass over the grid's rows (indexing rows by point
        // keeps a 10,000-point space from going quadratic here).
        let machines: Vec<_> = scorer.space.points().map(|p| p.machine).collect();
        let weight_of: std::collections::HashMap<&str, f64> = scorer
            .workloads
            .iter()
            .zip(&scorer.weights)
            .map(|(spec, &w)| (spec.name(), w))
            .collect();
        let mut sums = vec![vec![0.0; scorer.objectives.len()]; scorer.space.len()];
        for row in &report.rows {
            let machine = &machines[row.machine_index];
            let weight = weight_of[row.workload.as_str()];
            for (sum, objective) in sums[row.machine_index].iter_mut().zip(&scorer.objectives) {
                *sum += weight * objective.score(row, machine)?;
            }
        }
        let mut memo = self.memo.lock().expect("memo poisoned");
        for (index, scores) in sums.into_iter().enumerate() {
            memo.entry(index).or_insert(scores);
        }
        Ok(())
    }

    /// Drains the memo into `(point_index, scores)` pairs, ascending by
    /// index (the deterministic order reports are built in).
    pub(crate) fn into_evaluated(self) -> Vec<(usize, Vec<f64>)> {
        self.memo
            .into_inner()
            .expect("memo poisoned")
            .into_iter()
            .collect()
    }
}

/// Scalarizes an objective vector for single-track search: the
/// weighted sum of log-scores (equivalently, a weighted geometric mean).
/// Log space makes the combination scale-free — objectives measured in
/// seconds and joules contribute comparably without manual normalization.
/// Scores are clamped to positive, matching the built-in objectives
/// (CPI, delay, energy, EDP, ED²P, area are all positive).
pub fn scalarize(scores: &[f64], weights: &[f64]) -> f64 {
    scores
        .iter()
        .zip(weights)
        .map(|(&s, &w)| w * s.max(f64::MIN_POSITIVE).ln())
        .sum()
}

/// A design-space search strategy: decides **which** points to score.
/// Every point it evaluates joins the exploration's evaluated set, from
/// which the Pareto frontier is extracted — so a strategy's job is to
/// spend its budget near the frontier.
///
/// # Example: a custom strategy
///
/// ```
/// use mim_explore::{ExploreError, SearchSpace, SearchStrategy};
///
/// /// Scores only the first and last point of the space.
/// struct Corners;
///
/// impl SearchStrategy for Corners {
///     fn name(&self) -> String {
///         "corners".into()
///     }
///
///     fn search(&self, space: &SearchSpace) -> Result<(), ExploreError> {
///         space.evaluate(0)?;
///         space.evaluate(space.len() - 1)?;
///         Ok(())
///     }
/// }
/// ```
pub trait SearchStrategy: Send + Sync {
    /// Display name recorded in the exploration report.
    fn name(&self) -> String;

    /// Visits points of the space, evaluating candidates via
    /// [`SearchSpace::evaluate`].
    ///
    /// # Errors
    ///
    /// Returns an [`ExploreError`] when an evaluation fails.
    fn search(&self, space: &SearchSpace) -> Result<(), ExploreError>;
}

/// Scores every point of the space (delegating the grid to
/// [`Experiment`]) — the reference strategy, exact by construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exhaustive;

impl SearchStrategy for Exhaustive {
    fn name(&self) -> String {
        "exhaustive".into()
    }

    fn search(&self, space: &SearchSpace) -> Result<(), ExploreError> {
        space.evaluate_all()
    }
}

/// Builds the restart's weight vector: restarts cycle through each
/// objective's emphasis plus a uniform blend, steering successive climbs
/// toward different regions of the frontier.
fn restart_weights(objectives: usize, restart: usize) -> Vec<f64> {
    let slot = restart % (objectives + 1);
    if slot == objectives {
        vec![1.0; objectives]
    } else {
        (0..objectives)
            .map(|i| if i == slot { 1.0 } else { 0.05 })
            .collect()
    }
}

/// Per-axis greedy hill climbing with seeded random restarts: from each
/// start, repeatedly scan one axis at a time (all candidate values, other
/// coordinates fixed), move to the best strict improvement, and stop at a
/// local optimum. Restarts rotate objective weights so different climbs
/// pull toward different ends of the frontier.
#[derive(Debug, Clone)]
pub struct GreedyAscent {
    restarts: usize,
    seed: u64,
    budget: Option<usize>,
}

impl Default for GreedyAscent {
    fn default() -> GreedyAscent {
        GreedyAscent::new()
    }
}

impl GreedyAscent {
    /// Four seeded restarts, unlimited budget.
    pub fn new() -> GreedyAscent {
        GreedyAscent {
            restarts: 4,
            seed: 0x6d69_6d00,
            budget: None,
        }
    }

    /// Number of restarts (at least 1).
    pub fn restarts(mut self, restarts: usize) -> GreedyAscent {
        self.restarts = restarts.max(1);
        self
    }

    /// Reseeds the restart-position stream.
    pub fn seed(mut self, seed: u64) -> GreedyAscent {
        self.seed = seed;
        self
    }

    /// Caps the number of distinct points evaluated (at least 1, so the
    /// start point is always scored); the climb stops cleanly when the
    /// budget runs out.
    pub fn budget(mut self, budget: usize) -> GreedyAscent {
        self.budget = Some(budget.max(1));
        self
    }

    fn exhausted(&self, space: &SearchSpace) -> bool {
        self.budget.is_some_and(|b| space.evaluations() >= b)
    }
}

impl SearchStrategy for GreedyAscent {
    fn name(&self) -> String {
        format!("greedy-r{}", self.restarts)
    }

    fn search(&self, space: &SearchSpace) -> Result<(), ExploreError> {
        let lens = space.axis_lens();
        let mut rng = SplitMix64::new(self.seed);
        for restart in 0..self.restarts {
            let weights = restart_weights(space.objective_count(), restart);
            let mut coords = [
                rng.below(lens[0]),
                rng.below(lens[1]),
                rng.below(lens[2]),
                rng.below(lens[3]),
            ];
            if self.exhausted(space) {
                return Ok(());
            }
            let start = space.index_of(coords).expect("coords within axes");
            let mut current = scalarize(&space.evaluate(start)?, &weights);
            let mut improved = true;
            while improved {
                improved = false;
                for axis in 0..4 {
                    let mut best = (current, coords[axis]);
                    for value in 0..lens[axis] {
                        if value == coords[axis] {
                            continue;
                        }
                        if self.exhausted(space) {
                            return Ok(());
                        }
                        let mut candidate = coords;
                        candidate[axis] = value;
                        let index = space.index_of(candidate).expect("coords within axes");
                        let score = scalarize(&space.evaluate(index)?, &weights);
                        if score < best.0 {
                            best = (score, value);
                        }
                    }
                    if best.1 != coords[axis] {
                        coords[axis] = best.1;
                        current = best.0;
                        improved = true;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Seeded, deterministic simulated annealing with an evaluation budget:
/// a random axis step per iteration, always accepting improvements and
/// accepting regressions with probability `exp(-Δ/T)` under a geometric
/// cooling schedule. The same seed and budget reproduce the identical
/// walk — and therefore a byte-identical exploration report.
#[derive(Debug, Clone)]
pub struct Anneal {
    seed: u64,
    budget: usize,
    t0: f64,
    t1: f64,
}

impl Anneal {
    /// An annealer with the given seed and a 512-step budget.
    pub fn new(seed: u64) -> Anneal {
        Anneal {
            seed,
            budget: 512,
            t0: 0.5,
            t1: 1e-3,
        }
    }

    /// Sets the step budget (each step proposes one neighbor; distinct
    /// points evaluated is at most `budget + 1`).
    pub fn budget(mut self, budget: usize) -> Anneal {
        self.budget = budget.max(1);
        self
    }

    /// Sets the start/end temperatures of the geometric cooling schedule
    /// (in scalarized log-score units).
    pub fn temperature(mut self, t0: f64, t1: f64) -> Anneal {
        self.t0 = t0.max(1e-12);
        self.t1 = t1.max(1e-12);
        self
    }
}

impl SearchStrategy for Anneal {
    fn name(&self) -> String {
        format!("anneal-s{}-b{}", self.seed, self.budget)
    }

    fn search(&self, space: &SearchSpace) -> Result<(), ExploreError> {
        let lens = space.axis_lens();
        let weights = vec![1.0; space.objective_count()];
        let mut rng = SplitMix64::new(self.seed);
        let movable: Vec<usize> = (0..4).filter(|&axis| lens[axis] > 1).collect();
        let mut coords = [
            rng.below(lens[0]),
            rng.below(lens[1]),
            rng.below(lens[2]),
            rng.below(lens[3]),
        ];
        let start = space.index_of(coords).expect("coords within axes");
        let mut current = scalarize(&space.evaluate(start)?, &weights);
        if movable.is_empty() {
            return Ok(()); // one-point space: nothing to walk
        }
        for step in 0..self.budget {
            let axis = movable[rng.below(movable.len())];
            let offset = 1 + rng.below(lens[axis] - 1);
            let mut candidate = coords;
            candidate[axis] = (coords[axis] + offset) % lens[axis];
            let index = space.index_of(candidate).expect("coords within axes");
            let score = scalarize(&space.evaluate(index)?, &weights);
            let delta = score - current;
            let temperature = self.t0 * (self.t1 / self.t0).powf(step as f64 / self.budget as f64);
            if delta < 0.0 || rng.unit() < (-delta / temperature).exp() {
                coords = candidate;
                current = score;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_uniformish() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        let mut hits = [0usize; 4];
        for _ in 0..4000 {
            hits[c.below(4)] += 1;
        }
        assert!(hits.iter().all(|&h| h > 800), "roughly uniform: {hits:?}");
        for _ in 0..1000 {
            let u = c.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn scalarize_is_scale_free_and_monotone() {
        let w = [1.0, 1.0];
        let base = scalarize(&[2.0, 3.0], &w);
        let worse = scalarize(&[2.2, 3.0], &w);
        assert!(worse > base, "larger scores scalarize larger");
        // Rescaling one objective shifts all scalarizations by the same
        // constant, preserving every comparison.
        let scaled_base = scalarize(&[2000.0, 3.0], &w);
        let scaled_worse = scalarize(&[2200.0, 3.0], &w);
        assert!(((scaled_worse - scaled_base) - (worse - base)).abs() < 1e-12);
    }

    #[test]
    fn restart_weights_cycle_objectives_then_blend() {
        assert_eq!(restart_weights(2, 0), vec![1.0, 0.05]);
        assert_eq!(restart_weights(2, 1), vec![0.05, 1.0]);
        assert_eq!(restart_weights(2, 2), vec![1.0, 1.0]);
        assert_eq!(restart_weights(2, 3), vec![1.0, 0.05], "cycles");
    }
}
