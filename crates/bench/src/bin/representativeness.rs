//! Representative-input selection over the full scenario corpus: the 64
//! synthetic behaviours of the validation grid plus the 19 bundled
//! MiBench kernels (83 workloads), characterized, clustered, and reduced
//! to a ≤25% representative subset whose weighted metrics must reproduce
//! the exhaustive suite:
//!
//! * weighted-CPI ranking of the design points at Kendall tau ≥ 0.9,
//! * ≥ 90% recovery of the exhaustive (delay, energy) Pareto frontier,
//! * with the residual extrapolation error sim-verified at probe points.
//!
//! `--quick` (CI's smoke configuration) runs Tiny inputs over a 16-point
//! width × depth/frequency space; the default run covers Small inputs
//! over the full 192-point Table 2 space. The JSON report is
//! byte-deterministic across runs and thread counts (asserted here by
//! re-running serially against the same store).

use mim_bench::cli::BenchArgs;
use mim_bench::{write_json, SWEEP_LIMIT};
use mim_core::{DesignSpace, MachineConfig};
use mim_runner::{WorkloadSpec, WorkloadStore};
use mim_select::{KSelection, Selection, SubsetReport, SubsetRun};
use mim_validate::BehaviorSpace;
use mim_workloads::{mibench, WorkloadSize};

fn corpus() -> Vec<WorkloadSpec> {
    let mut corpus = BehaviorSpace::default_grid().workload_specs();
    corpus.extend(mibench::all().into_iter().map(WorkloadSpec::from));
    corpus
}

fn run(quick: bool, probes: usize, threads: usize, cache: WorkloadStore) -> SubsetReport {
    let space = if quick {
        // Axes whose CPI impact survives Tiny footprints: width and
        // pipeline depth/frequency (tiny working sets barely exercise
        // the L2 axis, which would turn the ranking into noise).
        DesignSpace::new(MachineConfig::default_config())
            .with_widths(vec![1, 2, 3, 4])
            .expect("distinct widths")
            .with_depth_freq(vec![(5, 1.0), (7, 1.5), (9, 2.0), (11, 2.5)])
            .expect("distinct depth/frequency pairs")
    } else {
        DesignSpace::paper_table2()
    };
    let suite = corpus();
    // Spend the whole ≤25% budget: silhouette auto-k favours the
    // coarsest clean split (2 blobs here), which ranks the design points
    // perfectly (tau = 1.0) but leaves the weighted CPI *level* far off
    // the exhaustive mean. At the full
    // budget the medoids tile behaviour space finely enough that the
    // level lands within ~1% too.
    let budget = suite.len() / 4;
    let mut run = SubsetRun::new(space)
        .title("representative-input selection over behaviours + MiBench")
        .workloads(suite)
        .selection(Selection {
            k: KSelection::Fixed(budget),
            ..Selection::default()
        })
        .verify(true)
        .sim_probes(probes)
        .threads(threads)
        .with_cache(cache);
    if quick {
        run = run.size(WorkloadSize::Tiny);
    } else {
        run = run.size(WorkloadSize::Small).limit(SWEEP_LIMIT);
    }
    run.run().expect("subset run")
}

fn main() -> std::io::Result<()> {
    let args = BenchArgs::parse();
    let quick = args.flag("--quick");
    let probes = args.value("--probes", 2usize);
    let cache = WorkloadStore::new();
    let report = run(quick, probes, 0, cache.clone());

    let verify = report.verify.as_ref().expect("verification enabled");
    let frontier = report.frontier.as_ref().expect("frontier enabled");
    let recall = frontier.recall.expect("verification computes recall");

    println!("=== {} ===", report.title);
    println!(
        "{} workloads -> {} representatives ({:.1}% of the suite, silhouette {:.3})",
        report.workloads.len(),
        report.selection.k,
        100.0 * report.subset_fraction,
        report.selection.silhouette,
    );
    for representative in &report.selection.representatives {
        println!(
            "  {:<24} weight {:.3}  stands in for {} workloads",
            representative.name,
            representative.weight,
            representative.members.len(),
        );
    }
    println!(
        "\nweighted-CPI ranking over {} design points: Kendall tau = {:.3} (target >= 0.9)",
        report.machines.len(),
        verify.rank_tau,
    );
    match &report.sim_probe {
        Some(probe) => println!(
            "extrapolation error: mean {:.2}%  max {:.2}% (model);  sim-verified bound {:.2}% at {} probes",
            verify.mean_error_percent,
            verify.max_error_percent,
            probe.bound_percent,
            probe.machines.len(),
        ),
        None => println!(
            "extrapolation error: mean {:.2}%  max {:.2}% (model);  sim probes disabled",
            verify.mean_error_percent, verify.max_error_percent,
        ),
    }
    println!(
        "(delay, energy) frontier: {} subset contenders ({:.0}% margin) vs {} exhaustive frontier \
         points -> recall {:.1}% (target >= 90%)",
        frontier.subset.len(),
        100.0 * frontier.margin,
        frontier.exhaustive.as_ref().expect("verification").len(),
        100.0 * recall,
    );
    println!(
        "sweep economy: exhaustive {:.2}s vs subset {:.2}s ({:.1}x)",
        report.timing.verify_seconds,
        report.timing.subset_seconds,
        report.sweep_speedup(),
    );

    // The acceptance gate: the representative economy must hold.
    assert!(
        report.subset_fraction <= 0.25 + 1e-12,
        "subset too large: {:.1}% of the suite",
        100.0 * report.subset_fraction
    );
    assert!(
        verify.rank_tau >= 0.9,
        "weighted-CPI ranking broke down: tau = {:.3}",
        verify.rank_tau
    );
    assert!(
        recall >= 0.9,
        "frontier recovery too low: {:.1}%",
        100.0 * recall
    );

    // Byte determinism: a serial re-run over the same store must
    // serialize identically (recordings and profiles are reused, so this
    // costs only the cheap re-evaluation).
    let serial = run(quick, probes, 1, cache);
    assert_eq!(
        report.to_json(),
        serial.to_json(),
        "report bytes must not depend on thread count"
    );

    write_json("representativeness", &report)?;
    Ok(())
}
