//! Integration tests for the exploration subsystem: Pareto correctness
//! against a brute-force reference, seeded-search determinism, the
//! one-pass profiling invariant on a generated large space, and the
//! hybrid model→sim workflow.

use mim_bpred::PredictorConfig;
use mim_cache::CacheConfig;
use mim_core::{DesignSpace, MachineConfig};
use mim_explore::{
    dominates, pareto_indices, Anneal, Exploration, ExplorationReport, ExploreError, GreedyAscent,
    Objective, SearchSpace, SearchStrategy,
};
use mim_runner::EvalKind;
use mim_workloads::{mibench, WorkloadSize};
use proptest::prelude::*;

/// Brute-force O(n²) reference: index `i` is on the frontier iff no other
/// vector dominates it.
fn brute_force_frontier(scores: &[Vec<f64>]) -> Vec<usize> {
    (0..scores.len())
        .filter(|&i| !scores.iter().any(|other| dominates(other, &scores[i])))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sorted-scan frontier extraction agrees exactly with the O(n²)
    /// dominance check, on score grids coarse enough to produce plenty of
    /// duplicates and ties.
    #[test]
    fn frontier_matches_brute_force(raw in proptest::collection::vec((0u32..12, 0u32..12, 0u32..12), 1..120)) {
        let scores: Vec<Vec<f64>> = raw
            .iter()
            .map(|&(a, b, c)| vec![f64::from(a), f64::from(b), f64::from(c)])
            .collect();
        prop_assert_eq!(pareto_indices(&scores), brute_force_frontier(&scores));
    }

    /// Two-objective spaces too (the common delay/energy case).
    #[test]
    fn two_objective_frontier_matches_brute_force(raw in proptest::collection::vec((0u32..40, 0u32..40), 1..150)) {
        let scores: Vec<Vec<f64>> = raw
            .iter()
            .map(|&(a, b)| vec![f64::from(a), f64::from(b)])
            .collect();
        prop_assert_eq!(pareto_indices(&scores), brute_force_frontier(&scores));
    }
}

fn width_space() -> DesignSpace {
    DesignSpace::new(MachineConfig::default_config())
        .with_widths(vec![1, 2, 3, 4])
        .expect("distinct widths")
}

fn anneal_exploration(seed: u64, threads: usize) -> ExplorationReport {
    Exploration::new(width_space())
        .title("anneal determinism")
        .workloads([mibench::sha(), mibench::crc32()])
        .size(WorkloadSize::Tiny)
        .objectives([Objective::delay(), Objective::energy()])
        .strategy(Anneal::new(seed).budget(16))
        .threads(threads)
        .run()
        .expect("exploration")
}

/// The same seed reproduces the identical walk — and a byte-identical
/// report — regardless of thread count.
#[test]
fn seeded_anneal_is_deterministic() {
    let a = anneal_exploration(7, 1);
    let b = anneal_exploration(7, 4);
    assert_eq!(a.to_json(), b.to_json(), "same seed, any threads");
    let c = anneal_exploration(8, 1);
    assert_eq!(c.strategy, "anneal-s8-b16");
    // A different seed walks differently (the space is tiny, so allow the
    // evaluated sets to coincide — the report label alone must differ).
    assert_ne!(a.strategy, c.strategy);
}

/// Exhaustive explorations are byte-identical across thread counts, and
/// reports survive a JSON round trip.
#[test]
fn exhaustive_reports_are_deterministic_and_round_trip() {
    let run = |threads| {
        Exploration::new(width_space())
            .title("exhaustive determinism")
            .workloads([mibench::sha(), mibench::crc32()])
            .size(WorkloadSize::Tiny)
            .objectives([Objective::delay(), Objective::edp()])
            .threads(threads)
            .run()
            .expect("exploration")
    };
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial.to_json(), parallel.to_json());
    assert_eq!(serial.evaluated.len(), 4, "every width evaluated");
    assert_eq!(serial.strategy, "exhaustive");

    let round = ExplorationReport::from_json(&serial.to_json()).expect("parse back");
    assert_eq!(round.to_json(), serial.to_json(), "stable re-serialization");
    assert_eq!(round.frontier, serial.frontier);
}

/// Scores every point one at a time through `SearchSpace::evaluate`, the
/// per-point path greedy ascent and annealing take.
struct EveryPoint;

impl SearchStrategy for EveryPoint {
    fn name(&self) -> String {
        "every-point".into()
    }

    fn search(&self, space: &SearchSpace) -> Result<(), ExploreError> {
        for index in 0..space.len() {
            space.evaluate(index)?;
        }
        Ok(())
    }
}

/// The per-point path and the exhaustive grid build their evaluators the
/// same way, so they score every point identically for each evaluator.
#[test]
fn per_point_scores_match_the_exhaustive_grid() {
    for kind in [EvalKind::Model, EvalKind::Sim, EvalKind::Sampled] {
        let run = |per_point: bool| {
            let exploration = Exploration::new(width_space())
                .workloads([mibench::sha(), mibench::crc32()])
                .size(WorkloadSize::Tiny)
                .evaluator(kind)
                .objectives([Objective::delay(), Objective::energy()])
                .threads(1);
            let exploration = if per_point {
                exploration.strategy(EveryPoint)
            } else {
                exploration
            };
            exploration.run().expect("exploration")
        };
        let (grid, per_point) = (run(false), run(true));
        assert_eq!(grid.evaluated.len(), 4, "{kind}: every width evaluated");
        assert_eq!(grid.evaluated, per_point.evaluated, "{kind}");
    }
}

/// Weighted aggregation: degenerate weights reproduce a single-workload
/// exploration, uniform explicit weights reproduce the default mean, and
/// malformed weight vectors are configuration errors.
#[test]
fn workload_weights_shift_the_aggregation() {
    let run = |weights: Option<Vec<f64>>| {
        let mut exploration = Exploration::new(width_space())
            .workloads([mibench::sha(), mibench::dijkstra()])
            .size(WorkloadSize::Tiny)
            .objectives([Objective::cpi()])
            .threads(1);
        if let Some(w) = weights {
            exploration = exploration.workload_weights(w);
        }
        exploration.run().expect("exploration")
    };
    // All the weight on sha == exploring sha alone.
    let sha_only = Exploration::new(width_space())
        .workload(mibench::sha())
        .size(WorkloadSize::Tiny)
        .objectives([Objective::cpi()])
        .threads(1)
        .run()
        .expect("exploration");
    let degenerate = run(Some(vec![1.0, 0.0]));
    for (a, b) in degenerate.evaluated.iter().zip(&sha_only.evaluated) {
        assert!((a.scores[0] - b.scores[0]).abs() < 1e-12);
    }
    // Unnormalized uniform weights == the default mean.
    let uniform = run(None);
    let scaled = run(Some(vec![3.0, 3.0]));
    for (a, b) in scaled.evaluated.iter().zip(&uniform.evaluated) {
        assert!((a.scores[0] - b.scores[0]).abs() < 1e-12);
    }
    // Shifting weight toward the slower workload moves the aggregate CPI.
    let skewed = run(Some(vec![0.1, 0.9]));
    assert!(skewed
        .evaluated
        .iter()
        .zip(&uniform.evaluated)
        .any(|(a, b)| (a.scores[0] - b.scores[0]).abs() > 1e-9));
    // Malformed vectors are rejected up front.
    let bad = |weights: Vec<f64>| {
        Exploration::new(width_space())
            .workloads([mibench::sha(), mibench::dijkstra()])
            .size(WorkloadSize::Tiny)
            .objectives([Objective::cpi()])
            .workload_weights(weights)
            .run()
            .is_err()
    };
    assert!(bad(vec![1.0]), "length mismatch");
    assert!(bad(vec![1.0, -1.0]), "negative weight");
    assert!(bad(vec![0.0, 0.0]), "zero total");
}

/// A generated multi-thousand-point space costs one profiling pass per
/// workload no matter how the strategies wander, because every evaluator
/// shares the exploration's cache.
#[test]
fn large_generated_space_profiles_once_per_workload() {
    let l2s: Vec<CacheConfig> = [64u64, 128, 256, 512, 1024, 2048]
        .iter()
        .flat_map(|&kb| {
            [4u32, 8, 16].iter().map(move |&ways| {
                CacheConfig::new(format!("L2-{kb}K-{ways}w"), kb * 1024, ways, 64)
                    .expect("valid L2 geometry")
            })
        })
        .collect();
    let depth_freq: Vec<(u32, f64)> = (0..10)
        .map(|i| (2 + i, 0.55 + 0.05 * f64::from(i)))
        .collect();
    let space = DesignSpace::new(MachineConfig::default_config())
        .with_widths((1..=8).collect())
        .expect("widths")
        .with_depth_freq(depth_freq)
        .expect("depth/freq")
        .with_l2s(l2s)
        .expect("l2s")
        .with_predictors(vec![
            PredictorConfig::gshare_1k(),
            PredictorConfig::hybrid_3_5k(),
        ])
        .expect("predictors");
    assert_eq!(space.len(), 10 * 8 * 18 * 2, "2880-point generated space");

    let exploration = Exploration::new(space)
        .workload(mibench::qsort())
        .size(WorkloadSize::Tiny)
        .objectives([Objective::delay(), Objective::energy()])
        .strategy(GreedyAscent::new().restarts(3).budget(160))
        .threads(1);
    let cache = exploration.profile_cache();
    let report = exploration.run().expect("exploration");

    assert_eq!(cache.cached_profiles(), 1, "one profiling pass");
    assert!(report.evaluated.len() <= 160, "budget respected");
    assert!(!report.frontier.is_empty());
    assert!(
        report.evaluated_fraction() < 0.06,
        "search, not enumeration"
    );
    // Evaluated points come back sorted by index with valid ids.
    for pair in report.evaluated.windows(2) {
        assert!(pair[0].point_index < pair[1].point_index);
    }
}

/// The hybrid workflow prunes with the model and verifies with the
/// simulator: survivors carry both score vectors, the sim frontier lives
/// inside the survivor set, and rank fidelity is a valid correlation.
#[test]
fn hybrid_workflow_verifies_survivors_with_simulation() {
    let report = Exploration::new(width_space())
        .title("hybrid")
        .workload(mibench::sha())
        .size(WorkloadSize::Tiny)
        .objectives([Objective::delay(), Objective::energy()])
        .sim_verify(0.10)
        .threads(2)
        .run()
        .expect("exploration");
    let hybrid = report.hybrid.as_ref().expect("hybrid enabled");
    assert_eq!(hybrid.sim_points, hybrid.survivors.len());
    assert!(hybrid.sim_points >= report.frontier.len());
    assert!((hybrid.rank_fidelity >= -1.0) && (hybrid.rank_fidelity <= 1.0));
    assert!((hybrid.sim_fraction - hybrid.sim_points as f64 / 4.0).abs() < 1e-12);
    for point in &hybrid.frontier.points {
        assert!(
            hybrid
                .survivors
                .iter()
                .any(|s| s.point_index == point.point_index),
            "sim frontier points are survivors"
        );
    }
    for survivor in &hybrid.survivors {
        assert_eq!(survivor.model_scores.len(), 2);
        assert_eq!(survivor.sim_scores.len(), 2);
        assert!(survivor
            .sim_scores
            .iter()
            .all(|s| s.is_finite() && *s > 0.0));
    }
    // Determinism extends to hybrid runs.
    let again = Exploration::new(width_space())
        .title("hybrid")
        .workload(mibench::sha())
        .size(WorkloadSize::Tiny)
        .objectives([Objective::delay(), Objective::energy()])
        .sim_verify(0.10)
        .threads(8)
        .run()
        .expect("exploration");
    assert_eq!(report.to_json(), again.to_json());
}

/// Misconfigured explorations fail with context instead of panicking.
#[test]
fn configuration_errors_are_reported() {
    let err = Exploration::new(width_space())
        .objectives([Objective::cpi()])
        .run()
        .expect_err("no workloads");
    assert!(err.to_string().contains("no workloads"));

    let err = Exploration::new(width_space())
        .workload(mibench::sha())
        .run()
        .expect_err("no objectives");
    assert!(err.to_string().contains("no objectives"));
}
