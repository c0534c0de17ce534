//! Integration tests for the unified evaluation API: trait-object
//! dispatch, parallel determinism, report JSON round-trips, and the
//! one-profiling-pass invariant.

use mim_core::{DesignSpace, MachineConfig};
use mim_runner::{
    EvalKind, Evaluator, Experiment, ExperimentReport, ModelEvaluator, OooEvaluator, SimEvaluator,
    WorkloadSpec, WorkloadStore,
};
use mim_workloads::{mibench, WorkloadSize};

/// All three evaluators behind one `dyn Evaluator` interface on a Tiny
/// workload: uniform dispatch, coherent results.
#[test]
fn trait_object_dispatch_over_all_three_evaluators() {
    let machine = MachineConfig::default_config();
    let cache = WorkloadStore::new();
    let evaluators: Vec<Box<dyn Evaluator>> = vec![
        Box::new(ModelEvaluator::new(&machine).with_cache(cache.clone())),
        Box::new(SimEvaluator::new(&machine).with_cache(cache.clone())),
        Box::new(OooEvaluator::new(&machine).with_cache(cache.clone())),
    ];
    let spec = WorkloadSpec::from(mibench::qsort());
    let mut results = Vec::new();
    for evaluator in &evaluators {
        let result = evaluator
            .evaluate(&spec, WorkloadSize::Tiny)
            .expect("evaluation succeeds");
        assert_eq!(result.workload, "qsort");
        assert_eq!(result.evaluator, evaluator.name());
        assert_eq!(result.kind, evaluator.kind());
        assert!(result.instructions > 1_000);
        assert!(result.cpi >= 0.25, "cannot beat N/W on a 4-wide machine");
        results.push(result);
    }
    // Model and OoO carry CPI stacks; the simulator does not.
    assert!(results[0].stack.is_some());
    assert!(results[1].stack.is_none());
    assert!(results[2].stack.is_some());
    // All three agree on the dynamic instruction count (shared profile
    // and truncation-free run).
    assert_eq!(results[0].instructions, results[1].instructions);
    assert_eq!(results[0].instructions, results[2].instructions);
    // The in-order model must be within the validated band of detailed
    // simulation, and the OoO comparator must hide dependency stalls
    // entirely (the §6.1 observation).
    let err = (results[0].cpi - results[1].cpi).abs() / results[1].cpi;
    assert!(err < 0.25, "model vs sim error {:.1}%", 100.0 * err);
    assert!(
        results[0]
            .stack
            .as_ref()
            .expect("in-order stack")
            .dependencies()
            > 0.0
    );
    assert_eq!(
        results[2].stack.as_ref().expect("ooo stack").dependencies(),
        0.0
    );
    // The three evaluators shared one profiling pass.
    assert_eq!(cache.cached_profiles(), 1);
}

fn width_sweep(threads: usize) -> ExperimentReport {
    Experiment::new()
        .title("determinism")
        .workloads([mibench::sha(), mibench::qsort()])
        .size(WorkloadSize::Tiny)
        .design_space(
            DesignSpace::new(MachineConfig::default_config())
                .with_widths(vec![1, 2, 3, 4])
                .expect("distinct widths"),
        )
        .evaluators([EvalKind::Model, EvalKind::Sim])
        .energy(true)
        .threads(threads)
        .run()
        .expect("experiment")
}

/// `threads(1)` and `threads(8)` must serialize to byte-identical JSON:
/// ordering is deterministic and wall-clock noise is excluded.
#[test]
fn parallel_and_serial_reports_are_byte_identical() {
    let serial = width_sweep(1);
    let parallel = width_sweep(8);
    assert_eq!(serial.timing.threads, 1);
    assert_eq!(parallel.timing.threads, 8);
    assert_eq!(serial.to_json(), parallel.to_json());
}

/// A report survives a JSON round trip exactly (modulo unserialized
/// timing).
#[test]
fn experiment_report_round_trips_through_json() {
    let report = Experiment::new()
        .workload(mibench::dijkstra())
        .size(WorkloadSize::Tiny)
        .evaluators([EvalKind::Model, EvalKind::Sim, EvalKind::Ooo])
        .run()
        .expect("experiment");
    let json = report.to_json();
    let round = ExperimentReport::from_json(&json).expect("parse back");
    assert_eq!(round.rows.len(), report.rows.len());
    assert_eq!(round.workloads, report.workloads);
    assert_eq!(round.machines, report.machines);
    assert_eq!(round.evaluators, report.evaluators);
    assert_eq!(round.to_json(), json, "re-serialization is stable");
    // Every typed field survives: spot-check one full row.
    assert_eq!(round.rows[0].workload, report.rows[0].workload);
    assert_eq!(round.rows[0].cpi, report.rows[0].cpi);
    assert_eq!(round.rows[0].stack, report.rows[0].stack);
    assert_eq!(round.rows[0].misses, report.rows[0].misses);
}

/// The §2.1 invariant: a design-space sweep profiles each workload once,
/// no matter how many points and evaluators consume the profile.
#[test]
fn design_space_sweep_profiles_each_workload_once() {
    let experiment = Experiment::new()
        .workloads([mibench::sha(), mibench::crc32()])
        .size(WorkloadSize::Tiny)
        .design_space(
            DesignSpace::new(MachineConfig::default_config())
                .with_widths(vec![1, 2, 3, 4])
                .expect("distinct widths"),
        )
        .evaluators([EvalKind::Model]);
    let cache = experiment.profile_cache();
    let report = experiment.run().expect("experiment");
    assert_eq!(report.rows.len(), 2 * 4);
    assert_eq!(
        cache.cached_profiles(),
        2,
        "one profiling pass per workload"
    );
    assert_eq!(
        cache.cached_traces(),
        0,
        "model-only sweeps stream their single profiling pass without \
         materializing a trace"
    );
    // Model CPI varies across widths from that single profile.
    let cpis: Vec<f64> = report
        .rows_for("model")
        .filter(|r| r.workload == "sha")
        .map(|r| r.cpi)
        .collect();
    assert_eq!(cpis.len(), 4);
    assert!(cpis[0] > cpis[3], "width 1 must be slower than width 4");
}

/// The record-once invariant: a simulation sweep records each workload's
/// functional execution exactly once and replays it per design point.
#[test]
fn sim_sweep_records_one_trace_per_workload() {
    let experiment = Experiment::new()
        .workloads([mibench::sha(), mibench::crc32()])
        .size(WorkloadSize::Tiny)
        .design_space(
            DesignSpace::new(MachineConfig::default_config())
                .with_widths(vec![1, 2, 3, 4])
                .expect("distinct widths"),
        )
        .evaluators([EvalKind::Sim]);
    let cache = experiment.profile_cache();
    let report = experiment.run().expect("experiment");
    assert_eq!(report.rows.len(), 2 * 4);
    assert_eq!(
        cache.cached_traces(),
        2,
        "one recording per workload, shared by all four widths"
    );
    assert_eq!(
        cache.cached_profiles(),
        0,
        "a sim-only sweep needs no profile at all"
    );
}

/// Comparison rows pair cells correctly across a design space.
#[test]
fn compare_pairs_cells_by_workload_and_machine() {
    let report = width_sweep(2);
    let rows = report.compare("model", "sim");
    assert_eq!(rows.len(), 2 * 4);
    for row in &rows {
        assert_eq!(row.subject, "model");
        assert_eq!(row.baseline, "sim");
        assert!(row.error_percent.abs() < 30.0);
        assert_eq!(
            report.machines[row.machine_index], row.machine_id,
            "machine index resolves through the report"
        );
    }
}

/// Fixed-program workloads (the compiler-variant escape hatch) evaluate
/// and serialize like kernels.
#[test]
fn fixed_program_workloads_run_through_experiments() {
    let program = mibench::sha().program(WorkloadSize::Tiny);
    let report = Experiment::new()
        .workload(WorkloadSpec::program("sha/fixed", program))
        .evaluators([EvalKind::Model])
        .run()
        .expect("experiment");
    assert_eq!(report.workloads, vec!["sha/fixed".to_string()]);
    assert!(report.rows[0].cpi > 0.0);
}

/// Misconfigured experiments fail with context instead of panicking.
#[test]
fn configuration_errors_are_reported() {
    let err = Experiment::new()
        .evaluators([EvalKind::Model])
        .run()
        .expect_err("no workloads");
    assert!(err.message.contains("no workloads"));

    let err = Experiment::new()
        .workload(mibench::sha())
        .run()
        .expect_err("no evaluators");
    assert!(err.message.contains("no evaluators"));

    let machine = MachineConfig::default_config();
    let err = Experiment::new()
        .workload(mibench::sha())
        .design_space(DesignSpace::paper_table2())
        .evaluator(ModelEvaluator::new(&machine))
        .run()
        .expect_err("custom evaluator + design space");
    assert!(err.message.contains("custom evaluators"));
}

/// The `on_cell` progress callback fires exactly once per evaluated cell,
/// and registering it does not perturb report determinism.
#[test]
fn on_cell_fires_once_per_cell() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let count = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&count);
    let report = Experiment::new()
        .title("determinism")
        .workloads([mibench::sha(), mibench::qsort()])
        .size(WorkloadSize::Tiny)
        .design_space(
            DesignSpace::new(MachineConfig::default_config())
                .with_widths(vec![1, 2, 3, 4])
                .expect("distinct widths"),
        )
        .evaluators([EvalKind::Model, EvalKind::Sim])
        .energy(true)
        .threads(4)
        .on_cell(move |cell| {
            assert!(cell.cpi > 0.0, "callbacks observe finished cells");
            seen.fetch_add(1, Ordering::Relaxed);
        })
        .run()
        .expect("experiment");
    assert_eq!(report.rows.len(), 2 * 4 * 2);
    assert_eq!(
        count.load(Ordering::Relaxed),
        report.rows.len(),
        "one callback per cell"
    );
    // Identical JSON to the callback-free sweep of the same grid.
    assert_eq!(report.to_json(), width_sweep(1).to_json());
}

/// The timeline knob is strictly out-of-band — serialized reports are
/// byte-identical with it on or off — and the captured timelines are
/// deterministic across worker counts.
#[test]
fn timelines_are_out_of_band_and_deterministic() {
    let run = |threads: usize, timeline: bool| {
        let mut experiment = Experiment::new()
            .title("timeline")
            .workloads([mibench::sha(), mibench::qsort()])
            .size(WorkloadSize::Tiny)
            .evaluators([EvalKind::Model, EvalKind::Sim, EvalKind::Sampled])
            .threads(threads);
        if timeline {
            experiment = experiment.timeline(5_000);
        }
        experiment.run().expect("experiment")
    };
    let plain = run(1, false);
    let timed = run(1, true);
    assert_eq!(
        plain.to_json(),
        timed.to_json(),
        "timelines never touch the serialized payload"
    );
    assert!(plain.rows.iter().all(|r| r.timeline.is_none()));
    for row in &timed.rows {
        match row.kind {
            EvalKind::Sim => {
                let tl = row.timeline.as_ref().expect("sim rows carry timelines");
                assert_eq!(tl.interval(), 5_000);
                assert_eq!(tl.num_insts(), row.instructions);
                assert!(!tl.is_empty());
            }
            EvalKind::Sampled => {
                let tl = row.timeline.as_ref().expect("sampled rows carry timelines");
                let sampling = row.sampling.as_ref().expect("sampling stats");
                assert_eq!(tl.num_insts(), sampling.measured_instructions);
            }
            _ => assert!(row.timeline.is_none(), "analytical rows stay timeline-free"),
        }
    }
    // Integer cycle counts end to end: structural equality across worker
    // counts means byte equality of any timeline export.
    let timed_parallel = run(8, true);
    for (a, b) in timed.rows.iter().zip(&timed_parallel.rows) {
        assert_eq!(a.timeline, b.timeline);
    }
}

/// Names key the report and the program cache, so duplicates are
/// rejected instead of silently aliasing to the first entry.
#[test]
fn duplicate_names_are_rejected() {
    let machine = MachineConfig::default_config();

    let program_a = mibench::sha().program(WorkloadSize::Tiny);
    let program_b = mibench::qsort().program(WorkloadSize::Tiny);
    let err = Experiment::new()
        .workload(WorkloadSpec::program("same", program_a))
        .workload(WorkloadSpec::program("same", program_b))
        .evaluators([EvalKind::Model])
        .run()
        .expect_err("duplicate workload name");
    assert!(err.message.contains("duplicate workload name"));

    let err = Experiment::new()
        .workload(mibench::sha())
        .evaluators([EvalKind::Model, EvalKind::Model])
        .run()
        .expect_err("duplicate kind");
    assert!(err.message.contains("configured twice"));

    let err = Experiment::new()
        .workload(mibench::sha())
        .evaluators([EvalKind::Model])
        .evaluator(ModelEvaluator::new(&machine))
        .run()
        .expect_err("custom evaluator shadows the model kind's name");
    assert!(err.message.contains("duplicate evaluator name"));
}
