//! Acceptance tests for statistically sampled simulation (SMARTS-style
//! systematic sampling with functional warming):
//!
//! * **CI calibration** — across a (workload × sampling-fraction) grid,
//!   the full simulation's CPI lands inside the sampled run's *own
//!   reported* 95% confidence interval for ≥90% of cells, with the CI
//!   computed honestly from per-unit variance (no post-hoc widening);
//! * **streaming equivalence** — replaying a trace incrementally from
//!   disk produces byte-identical events and an identical `SimResult`
//!   to replaying the materialized in-memory trace, while buffering
//!   O(sample unit) bytes instead of the whole encoding;
//! * **persistent-store integration** — a sampled experiment through a
//!   persistent `WorkloadStore` is byte-deterministic across runs, and a
//!   warm restart streams from disk without re-executing anything.

use std::path::PathBuf;

use mim::core::MachineConfig;
use mim::pipeline::PipelineSim;
use mim::runner::{DiskStore, EvalKind, Experiment, WorkloadStore};
use mim::trace::{Sampling, Trace, TraceSource};
use mim::workloads::{mibench, Workload, WorkloadSize};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mim-sampled-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id(),
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn grid_workloads() -> Vec<Workload> {
    vec![
        mibench::sha(),
        mibench::qsort(),
        mibench::dijkstra(),
        mibench::stringsearch(),
        mibench::patricia(),
    ]
}

/// Sampling plans at three measured fractions (1/5, 1/10, 1/20), all
/// with warming covering the gap before each measurement window and an
/// offset so the first unit is not the cold start.
fn grid_plans() -> Vec<Sampling> {
    vec![
        Sampling::try_new(500, 100)
            .unwrap()
            .with_warmup(400)
            .with_offset(50),
        Sampling::default_plan(),
        Sampling::try_new(2000, 100)
            .unwrap()
            .with_warmup(1000)
            .with_offset(200),
    ]
}

/// Tentpole acceptance: the reported 95% interval is *calibrated* — the
/// full simulation's CPI falls inside it for at least 90% of grid
/// cells. The interval asserted here is exactly the one reported
/// (`ci_half_width`), not a widened variant.
#[test]
fn confidence_intervals_are_calibrated_across_the_grid() {
    let machine = MachineConfig::default_config();
    let sim = PipelineSim::new(&machine);
    let mut total = 0u32;
    let mut inside = 0u32;
    for workload in grid_workloads() {
        let program = workload.program(WorkloadSize::Tiny);
        let full = sim.simulate(&program).expect("full simulation");
        let trace = Trace::record(&program, None).expect("recording");
        for plan in grid_plans() {
            let mut replay = trace.replay(&program).expect("replay").with_sampling(plan);
            let sampled = sim.simulate_source(&mut replay).expect("sampled sim");
            let stats = sampled.sampling.expect("sampled stats present");
            assert!(
                stats.units > 1,
                "{}: plan p{} produced {} units — grid needs real sampling",
                workload.name(),
                plan.period(),
                stats.units
            );
            assert!(stats.ci_half_width >= 0.0);
            total += 1;
            if (stats.cpi - full.cpi()).abs() <= stats.ci_half_width {
                inside += 1;
            }
        }
    }
    assert!(
        f64::from(inside) >= 0.9 * f64::from(total),
        "full CPI inside the reported CI for only {inside}/{total} cells"
    );
}

/// The sampled estimate is deterministic: identical inputs give
/// bit-identical `SimResult`s (the statistics are closed-form over a
/// deterministic unit sequence — no RNG anywhere).
#[test]
fn sampled_simulation_is_deterministic() {
    let machine = MachineConfig::default_config();
    let sim = PipelineSim::new(&machine);
    let program = mibench::sha().program(WorkloadSize::Tiny);
    let trace = Trace::record(&program, None).expect("recording");
    let run = || {
        let mut replay = trace
            .replay(&program)
            .expect("replay")
            .with_sampling(Sampling::default_plan());
        sim.simulate_source(&mut replay).expect("sampled sim")
    };
    assert_eq!(run(), run());
}

/// Tentpole acceptance: streaming replay from a `DiskStore` entry is
/// equivalent to materialized replay — identical event stream, identical
/// `SimResult` — while holding only O(sample unit) bytes in memory.
#[test]
fn streaming_replay_matches_materialized_end_to_end() {
    let root = temp_root("stream");
    let store = DiskStore::open(&root).expect("disk store");
    let program = mibench::sha().program(WorkloadSize::Tiny);
    let trace = Trace::record(&program, None).expect("recording");
    store.put_trace(&program, None, &trace).expect("persist");

    // Event streams are byte-identical.
    let mut materialized = Vec::new();
    trace
        .replay(&program)
        .expect("replay")
        .drive(&mut |ev| materialized.push(*ev))
        .expect("drive");
    let mut streamed = Vec::new();
    let mut stream = store
        .stream_trace(&program, None)
        .expect("stream open")
        .expect("entry present");
    stream.drive(&mut |ev| streamed.push(*ev)).expect("drive");
    assert_eq!(streamed, materialized);

    // Sampled simulation over either source yields the same SimResult.
    let machine = MachineConfig::default_config();
    let sim = PipelineSim::new(&machine);
    let mut replay = trace
        .replay(&program)
        .expect("replay")
        .with_sampling(Sampling::default_plan());
    let from_memory = sim.simulate_source(&mut replay).expect("sampled sim");
    let mut stream = store
        .stream_trace(&program, None)
        .expect("stream open")
        .expect("entry present")
        .with_sampling(Sampling::default_plan());
    let from_disk = sim.simulate_source(&mut stream).expect("sampled sim");
    assert_eq!(from_memory, from_disk);

    // The stream's working set is a fixed small buffer, not the whole
    // encoding: memory stays O(sample unit) however long the trace is.
    assert!(
        stream.buffer_bytes() < trace.encoded_bytes(),
        "streaming buffer {} >= encoded trace {}",
        stream.buffer_bytes(),
        trace.encoded_bytes()
    );
    std::fs::remove_dir_all(&root).ok();
}

/// Integration: sampled evaluation through the persistent store is
/// byte-deterministic across processes, and the warm restart performs
/// zero functional executions (the evaluator streams the persisted
/// trace).
#[test]
fn sampled_experiments_are_deterministic_through_a_persistent_store() {
    let root = temp_root("persist");
    let run = || {
        let store = WorkloadStore::persistent(&root).expect("persistent store");
        let report = Experiment::new()
            .title("sampled persistence")
            .workloads([mibench::sha(), mibench::qsort()])
            .size(WorkloadSize::Tiny)
            .evaluators([EvalKind::Sim, EvalKind::Sampled])
            .with_cache(store.clone())
            .run()
            .expect("experiment");
        (report.to_json(), store.stats())
    };
    let (first, cold) = run();
    let (second, warm) = run();
    assert_eq!(first, second, "sampled reports must be byte-identical");
    assert_eq!(cold.functional_executions, 2, "one recording per workload");
    assert_eq!(
        warm.functional_executions, 0,
        "warm restart replays persisted traces only"
    );
    for row in mim::runner::ExperimentReport::from_json(&first)
        .expect("report parses")
        .rows
    {
        match row.kind {
            EvalKind::Sampled => {
                let summary = row.sampling.expect("sampled rows carry a summary");
                assert!(summary.units > 1 && summary.fraction < 0.5);
                assert!(summary.cpi_ci95.is_finite());
            }
            _ => assert!(row.sampling.is_none(), "non-sampled rows carry no summary"),
        }
    }
    std::fs::remove_dir_all(&root).ok();
}
