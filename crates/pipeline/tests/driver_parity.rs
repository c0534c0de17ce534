//! `PipelineSim::simulate_source` (the block-hook driver) gives the same
//! `SimResult` as its event-walking oracle `PipelineSim::simulate_events`,
//! down to the bytes of its `Debug` rendering and the timeline, over every
//! source kind, full and sampled runs, every idealization flag and
//! instruction limits that end runs mid-block. For a source without a
//! sampling plan, `simulate_source` runs its full-run instantiation and
//! `simulate_events` the planned one, so the full cases hold the two
//! against each other.

use std::fs::File;
use std::thread;

use mim_core::{DesignSpace, MachineConfig};
use mim_isa::Program;
use mim_pipeline::{PipelineSim, SimIdealization, SimResult};
use mim_trace::{LiveVm, Replay, Sampling, Trace, TraceSource};
use mim_workloads::{mibench, spec, Workload, WorkloadSize};

/// Both drivers over two fresh copies of one source.
fn both<S: TraceSource>(sim: &PipelineSim, mut source: impl FnMut() -> S) -> [SimResult; 2] {
    let hooks = sim.simulate_source(&mut source()).expect("simulate_source");
    let events = sim.simulate_events(&mut source()).expect("simulate_events");
    [hooks, events]
}

fn assert_same([hooks, events]: [SimResult; 2], what: &str) {
    assert_eq!(
        format!("{hooks:?}"),
        format!("{events:?}"),
        "simulate_source differs from simulate_events: {what}"
    );
}

/// An open file holding `trace`'s encoding (the path is unlinked at once;
/// the open handle keeps the contents readable).
fn file_of(trace: &Trace, tag: &str) -> File {
    let path = std::env::temp_dir().join(format!(
        "mim-driver-parity-{}-{tag}.trace",
        std::process::id()
    ));
    std::fs::write(&path, trace.to_bytes()).unwrap();
    let file = File::open(&path).unwrap();
    std::fs::remove_file(&path).ok();
    file
}

/// The plans the sampled cases run: the default plan and the three of
/// `BENCH_sample.json`'s record, no warm-up, a plan whose every phase is
/// shorter than a block, and windows back to back.
fn plans() -> Vec<Sampling> {
    vec![
        Sampling::default_plan(),
        Sampling::new(500, 100).with_warmup(400).with_offset(50),
        Sampling::new(5000, 100).with_warmup(1000).with_offset(500),
        Sampling::new(1000, 100).with_offset(100),
        Sampling::new(7, 3).with_warmup(2).with_offset(1),
        Sampling::new(250, 250).with_offset(30),
    ]
}

#[test]
fn bundled_workloads_match_at_every_table2_point() {
    let space = DesignSpace::paper_table2();
    let points: Vec<MachineConfig> = space.points().map(|p| p.machine).collect();
    assert_eq!(points.len(), 192);
    let workloads: Vec<_> = mibench::all().into_iter().chain(spec::all()).collect();
    assert_eq!(workloads.len(), 25);
    // Two workers share the workloads; each records its own traces.
    thread::scope(|scope| {
        for half in workloads.chunks(workloads.len().div_ceil(2)) {
            let points = &points;
            scope.spawn(move || {
                for w in half {
                    let p = w.program(WorkloadSize::Tiny);
                    let trace = Trace::record(&p, None).unwrap();
                    for (i, machine) in points.iter().enumerate() {
                        let sim = PipelineSim::new(machine);
                        let pair = both(&sim, || trace.replay(&p).unwrap());
                        assert_same(pair, &format!("{} at point {i}", w.name()));
                    }
                }
            });
        }
    });
}

#[test]
fn perfbench_kernels_match_under_sampling_plans() {
    let kernels = [
        mibench::sha(),
        mibench::qsort(),
        mibench::dijkstra(),
        mibench::susan_s(),
    ];
    thread::scope(|scope| {
        for pair_of_kernels in kernels.chunks(2) {
            scope.spawn(move || pair_of_kernels.iter().for_each(sampled_at_every_24th_point));
        }
    });
}

/// `w` at Small, on every 24th Table-2 point, under every plan.
fn sampled_at_every_24th_point(w: &Workload) {
    let p = w.program(WorkloadSize::Small);
    let trace = Trace::record(&p, None).unwrap();
    for (i, point) in DesignSpace::paper_table2().points().enumerate().step_by(24) {
        let sim = PipelineSim::new(&point.machine);
        for plan in plans() {
            let pair = both(&sim, || trace.replay(&p).unwrap().with_sampling(plan));
            assert_same(pair, &format!("{} at point {i} under {plan:?}", w.name()));
        }
    }
}

#[test]
fn timelines_match_full_and_sampled() {
    let machine = MachineConfig::default_config();
    for w in [mibench::sha(), mibench::qsort(), spec::mcf_like()] {
        let p = w.program(WorkloadSize::Tiny);
        let trace = Trace::record(&p, None).unwrap();
        for interval in [1, 1000, 7_777] {
            let sim = PipelineSim::new(&machine).with_timeline(interval);
            let [hooks, events] = both(&sim, || trace.replay(&p).unwrap());
            assert!(hooks.timeline.is_some());
            assert_same(
                [hooks, events],
                &format!("{} full, interval {interval}", w.name()),
            );
            for plan in plans() {
                let pair = both(&sim, || trace.replay(&p).unwrap().with_sampling(plan));
                assert_same(
                    pair,
                    &format!("{} under {plan:?}, interval {interval}", w.name()),
                );
            }
        }
    }
}

#[test]
fn each_idealization_flag_matches() {
    let flags = [
        SimIdealization {
            perfect_icache: true,
            ..SimIdealization::none()
        },
        SimIdealization {
            perfect_dcache: true,
            ..SimIdealization::none()
        },
        SimIdealization {
            oracle_branches: true,
            ..SimIdealization::none()
        },
        SimIdealization {
            free_taken_bubbles: true,
            ..SimIdealization::none()
        },
        SimIdealization {
            unit_latencies: true,
            ..SimIdealization::none()
        },
        SimIdealization {
            no_dependencies: true,
            ..SimIdealization::none()
        },
    ];
    let machine = MachineConfig::default_config();
    for w in [mibench::qsort(), mibench::susan_s(), spec::mcf_like()] {
        let p = w.program(WorkloadSize::Tiny);
        let trace = Trace::record(&p, None).unwrap();
        for ideal in flags {
            let sim = PipelineSim::new(&machine)
                .with_idealization(ideal)
                .with_timeline(2_000);
            let full = both(&sim, || trace.replay(&p).unwrap());
            assert_same(full, &format!("{} with {ideal:?}", w.name()));
            let plan = Sampling::default_plan();
            let sampled = both(&sim, || trace.replay(&p).unwrap().with_sampling(plan));
            assert_same(sampled, &format!("{} sampled with {ideal:?}", w.name()));
        }
    }
}

/// No limit and limits of 1, 7, 1,000, 12,345 and n − 1 instructions
/// (which can end a run inside a block, where the replay's tail and the
/// engine's careful tail fire no `begin_block`), over the block engine, the interpreter, an
/// in-memory replay and a file replay — and the same replays sampled.
#[test]
fn every_source_kind_matches_at_every_limit() {
    let machine = MachineConfig::default_config();
    for w in [mibench::sha(), mibench::dijkstra(), mibench::bitcount()] {
        let p: Program = w.program(WorkloadSize::Tiny);
        let trace = Trace::record(&p, None).unwrap();
        let n = trace.len();
        for limit in [
            None,
            Some(1),
            Some(7),
            Some(1_000),
            Some(12_345),
            Some(n - 1),
        ] {
            let sim = PipelineSim::new(&machine).with_timeline(500);
            let what = |source: &str| format!("{} over {source}, limit {limit:?}", w.name());
            let engine = both(&sim, || LiveVm::new(&p).with_limit(limit));
            let interpreter = both(&sim, || LiveVm::interpreted(&p).with_limit(limit));
            let memory = both(&sim, || trace.replay(&p).unwrap().with_limit(limit));
            let file = both(&sim, || {
                Replay::from_file(file_of(&trace, w.name()), &p)
                    .unwrap()
                    .with_limit(limit)
            });
            // Every kind of source gives the same result.
            assert_eq!(engine[0], interpreter[0], "{}", what("both live sources"));
            assert_eq!(engine[0], memory[0], "{}", what("live and replay"));
            assert_same(engine, &what("LiveVm::new"));
            assert_same(interpreter, &what("LiveVm::interpreted"));
            assert_same(memory, &what("an in-memory replay"));
            assert_same(file, &what("Replay::from_file"));
            for plan in plans() {
                let memory = both(&sim, || {
                    trace
                        .replay(&p)
                        .unwrap()
                        .with_limit(limit)
                        .with_sampling(plan)
                });
                assert_same(
                    memory,
                    &what(&format!("an in-memory replay under {plan:?}")),
                );
                let file = both(&sim, || {
                    Replay::from_file(file_of(&trace, w.name()), &p)
                        .unwrap()
                        .with_limit(limit)
                        .with_sampling(plan)
                });
                assert_same(file, &what(&format!("Replay::from_file under {plan:?}")));
            }
        }
    }
}
