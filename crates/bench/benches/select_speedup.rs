//! `select_speedup`: the subset-sweep economy, measured.
//!
//! Quantifies what representative-input selection buys: a design-space
//! sweep over the ≤25% weighted subset versus the exhaustive suite.
//! Writes the measured speedup and subset size to `BENCH_select.json` at
//! the workspace root so the perf trajectory is tracked across PRs.

use std::hint::black_box;
use std::time::Instant;

use mim_core::{DesignSpace, MachineConfig};
use mim_runner::{EvalKind, Experiment, WorkloadSpec, WorkloadStore};
use mim_select::{KSelection, RepresentativeSet, Selection, Signature};
use mim_validate::BehaviorSpace;
use mim_workloads::{mibench, WorkloadSize};
use serde::Serialize;

fn corpus() -> Vec<WorkloadSpec> {
    let mut corpus = BehaviorSpace::default_grid().workload_specs();
    corpus.extend(mibench::all().into_iter().map(WorkloadSpec::from));
    corpus
}

fn space() -> DesignSpace {
    DesignSpace::new(MachineConfig::default_config())
        .with_widths(vec![1, 2, 3, 4])
        .expect("distinct widths")
        .with_depth_freq(vec![(5, 1.0), (7, 1.5), (9, 2.0), (11, 2.5)])
        .expect("distinct depth/frequency pairs")
}

fn sweep_seconds(specs: &[WorkloadSpec], store: &WorkloadStore) -> f64 {
    let t = Instant::now();
    let report = Experiment::new()
        .workloads(specs.iter().cloned())
        .size(WorkloadSize::Tiny)
        .design_space(space())
        .evaluators([EvalKind::Model])
        .threads(1)
        .with_cache(store.clone())
        .run()
        .expect("sweep");
    black_box(report.rows.len());
    t.elapsed().as_secs_f64()
}

fn main() {
    let suite = corpus();
    let store = WorkloadStore::new();
    let signatures: Vec<Signature> = suite
        .iter()
        .map(|w| Signature::extract(&store, w, WorkloadSize::Tiny, None).expect("signature"))
        .collect();
    let selection = Selection {
        k: KSelection::Fixed(suite.len() / 4),
        ..Selection::default()
    };

    // Steady-state economy measurement: one cold sweep each way, on
    // separate stores so the subset pays its own profiling like a real
    // subset-only study would.
    let set = RepresentativeSet::select(&signatures, &selection).expect("select");
    let representative_specs: Vec<WorkloadSpec> = set
        .names()
        .iter()
        .map(|name| {
            suite
                .iter()
                .find(|w| w.name() == *name)
                .expect("medoids come from the suite")
                .clone()
        })
        .collect();
    let exhaustive_seconds = sweep_seconds(&suite, &WorkloadStore::new());
    let subset_seconds = sweep_seconds(&representative_specs, &WorkloadStore::new());

    #[derive(Serialize)]
    struct BenchRecord {
        bench: &'static str,
        workloads: usize,
        representatives: usize,
        subset_fraction: f64,
        design_points: usize,
        exhaustive_sweep_seconds: f64,
        subset_sweep_seconds: f64,
        sweep_speedup: f64,
    }
    let record = BenchRecord {
        bench: "select_speedup",
        workloads: suite.len(),
        representatives: set.len(),
        subset_fraction: set.fraction(),
        design_points: space().len(),
        exhaustive_sweep_seconds: exhaustive_seconds,
        subset_sweep_seconds: subset_seconds,
        sweep_speedup: exhaustive_seconds / subset_seconds.max(1e-9),
    };
    mim_bench::write_bench_record("select", &record).expect("write BENCH_select.json");
    println!(
        "subset sweep {subset_seconds:.2}s vs exhaustive {exhaustive_seconds:.2}s ({:.1}x)",
        exhaustive_seconds / subset_seconds.max(1e-9),
    );
}
