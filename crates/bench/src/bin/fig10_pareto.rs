//! Figure 10 (extension): Pareto-frontier exploration of the Table 2
//! design space under delay/energy objectives, demonstrating the paper's
//! headline workflow (§5–6) end to end: the mechanistic model scores all
//! 192 points from one profiling pass per benchmark, margin-relaxed
//! dominance prunes the space to frontier contenders, and only the
//! survivors are re-evaluated with detailed simulation.
//!
//! The run is validated against the exhaustive simulation reference: the
//! hybrid (model-pruned + sim-verified) frontier must recover ≥ 90% of
//! the exhaustive sim frontier while simulating < 20% of the space.
//!
//! Run with `--quick` to subsample the benchmark list (every 4th MiBench
//! workload, like fig5's subsampling knob).

use mim_bench::cli::BenchArgs;
use mim_bench::{write_json, SWEEP_LIMIT};
use mim_core::DesignSpace;
use mim_explore::{Exploration, Frontier, Objective};
use mim_runner::{EvalKind, WorkloadStore};
use mim_workloads::{mibench, WorkloadSize};
use serde::Serialize;

/// Pruning slack granted to model error. Frontier scores aggregate
/// across benchmarks, where the model's per-point errors (2.5% on
/// average, Fig. 5) largely cancel — 2% of slack on the mean keeps every
/// true frontier point alive (100% recall on both the quick and full
/// runs) while pruning >81% of the space. Override with
/// `--margin <fraction>`.
const MARGIN: f64 = 0.02;

#[derive(Serialize)]
struct ParetoResult {
    benchmarks: usize,
    space_points: usize,
    margin: f64,
    sim_points: usize,
    sim_fraction: f64,
    model_frontier_len: usize,
    hybrid_frontier_len: usize,
    sim_frontier_len: usize,
    frontier_recall: f64,
    rank_fidelity: f64,
    reference_frontier: Frontier,
    report: mim_explore::ExplorationReport,
}

fn main() -> std::io::Result<()> {
    let args = BenchArgs::parse();
    let quick = args.flag("--quick");
    let margin = args.value("--margin", MARGIN);
    let workloads: Vec<_> = mibench::all()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !quick || i % 4 == 0)
        .map(|(_, w)| w)
        .collect();
    let benchmarks = workloads.len();
    let cache = WorkloadStore::new();

    // The hybrid workflow: model scores all 192 points (one profiling
    // pass per benchmark), pruning keeps frontier contenders, simulation
    // verifies only those.
    let hybrid_run = Exploration::new(DesignSpace::paper_table2())
        .title("Figure 10: hybrid Pareto exploration of Table 2")
        .workloads(workloads.iter().cloned())
        .size(WorkloadSize::Small)
        .limit(SWEEP_LIMIT)
        .objectives([Objective::delay(), Objective::energy()])
        .sim_verify(margin)
        .threads(0)
        .with_cache(cache.clone())
        .run()
        .expect("hybrid exploration");
    let hybrid = hybrid_run.hybrid.clone().expect("sim_verify enabled");

    // The reference the hybrid is judged against: the same objectives
    // scored by detailed simulation on every point (sharing the profile
    // cache, so no profiling is repeated).
    let reference = Exploration::new(DesignSpace::paper_table2())
        .title("exhaustive simulation reference")
        .workloads(workloads)
        .size(WorkloadSize::Small)
        .limit(SWEEP_LIMIT)
        .objectives([Objective::delay(), Objective::energy()])
        .evaluator(EvalKind::Sim)
        .threads(0)
        .with_cache(cache)
        .run()
        .expect("exhaustive sim reference");

    let recall = hybrid.frontier.recall_of(&reference.frontier);
    let hybrid_seconds = hybrid_run.timing.search_seconds + hybrid_run.timing.sim_seconds;
    let exhaustive_sim_seconds = reference.timing.search_seconds;

    println!("=== {} ===", hybrid_run.title);
    println!(
        "{benchmarks} benchmarks x {} design points, objectives (delay, energy)",
        hybrid_run.space_points
    );
    println!(
        "model frontier: {} points; pruning at {:.1}% margin kept {} survivors ({:.1}% of the space)",
        hybrid_run.frontier.len(),
        100.0 * margin,
        hybrid.sim_points,
        100.0 * hybrid.sim_fraction,
    );
    println!(
        "sim-verified frontier: {} points; exhaustive sim frontier: {} points",
        hybrid.frontier.len(),
        reference.frontier.len(),
    );
    println!(
        "frontier recall: {:.1}% (target >= 90%)   model-vs-sim rank fidelity (Kendall tau): {:.3}",
        100.0 * recall,
        hybrid.rank_fidelity,
    );
    println!(
        "hybrid cost {hybrid_seconds:.1} s vs exhaustive simulation {exhaustive_sim_seconds:.1} s \
         ({:.1}x cheaper)",
        exhaustive_sim_seconds / hybrid_seconds.max(1e-9),
    );
    println!("\nsim-verified frontier (delay s, energy J):");
    for point in &hybrid.frontier.points {
        let matched = if reference.frontier.contains(point.point_index) {
            "= sim"
        } else {
            "     "
        };
        println!(
            "  [{:>3}] {:<44} {:.4e}  {:.4e}  {matched}",
            point.point_index, point.machine_id, point.scores[0], point.scores[1],
        );
    }

    assert!(
        recall >= 0.90,
        "hybrid frontier recovered only {:.1}% of the exhaustive sim frontier",
        100.0 * recall
    );
    assert!(
        hybrid.sim_fraction < 0.20,
        "hybrid simulated {:.1}% of the space (budget: 20%)",
        100.0 * hybrid.sim_fraction
    );

    write_json(
        "fig10_pareto",
        &ParetoResult {
            benchmarks,
            space_points: hybrid_run.space_points,
            margin,
            sim_points: hybrid.sim_points,
            sim_fraction: hybrid.sim_fraction,
            model_frontier_len: hybrid_run.frontier.len(),
            hybrid_frontier_len: hybrid.frontier.len(),
            sim_frontier_len: reference.frontier.len(),
            frontier_recall: recall,
            rank_fidelity: hybrid.rank_fidelity,
            reference_frontier: reference.frontier,
            report: hybrid_run,
        },
    )?;
    Ok(())
}
