//! Backend-parity sweep over every bundled workload: the block-compiled
//! engine and the per-step interpreter must produce byte-identical
//! recordings, identical live event streams and identical
//! `WorkloadProfile`s, and replays of the recording — in memory and
//! streamed from a file — must profile identically too.

use std::fs::File;

use mim_core::{DesignSpace, MachineConfig};
use mim_isa::Program;
use mim_profile::{SweepProfiler, WorkloadProfile};
use mim_trace::{LiveVm, Replay, Trace, TraceSource};
use mim_workloads::{mibench, spec, WorkloadSize};

/// An open file holding `trace`'s bytes (the path is unlinked at once;
/// the open handle keeps the contents readable).
fn file_of(trace: &Trace) -> File {
    let path = std::env::temp_dir().join(format!(
        "mim-block-parity-{}-{:?}.bin",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, trace.to_bytes()).unwrap();
    let file = File::open(&path).unwrap();
    std::fs::remove_file(&path).ok();
    file
}

/// Profiles `p` on the block engine and through `profile_source` over
/// the interpreter, an in-memory replay of the whole recording and a
/// file replay of it, all stopped at `limit`, and requires identical
/// JSON. Returns the block engine's profile.
fn assert_profile_parity(
    profiler: &SweepProfiler,
    p: &Program,
    limit: Option<u64>,
) -> WorkloadProfile {
    let block = profiler.profile(p, limit).unwrap();
    let trace = Trace::record(p, None).unwrap();
    let others = [
        (
            "interpreter",
            profiler.profile_source(&mut LiveVm::interpreted(p).with_limit(limit)),
        ),
        (
            "in-memory replay",
            profiler.profile_source(&mut trace.replay(p).unwrap().with_limit(limit)),
        ),
        (
            "file replay",
            profiler.profile_source(
                &mut Replay::from_file(file_of(&trace), p)
                    .unwrap()
                    .with_limit(limit),
            ),
        ),
    ];
    let expected = serde_json::to_string(&block).unwrap();
    for (backend, profile) in others {
        assert_eq!(
            expected,
            serde_json::to_string(&profile.unwrap()).unwrap(),
            "{backend} profile diverges on {} at limit {limit:?}",
            p.name()
        );
    }
    block
}

#[test]
fn every_bundled_workload_is_backend_invariant() {
    let machine = MachineConfig::default_config();
    let profiler = SweepProfiler::new(
        machine.hierarchy.clone(),
        vec![machine.hierarchy.l2.clone()],
        vec![machine.predictor.clone()],
    );
    let workloads: Vec<_> = mibench::all().into_iter().chain(spec::all()).collect();
    assert_eq!(workloads.len(), 25, "expected the full bundled set");

    for w in &workloads {
        let p = w.program(WorkloadSize::Tiny);

        // Recording parity: the two constructors must serialize the same.
        let block_trace = Trace::record(&p, None).unwrap();
        let interp_trace = Trace::record_interpreted(&p, None).unwrap();
        assert_eq!(
            block_trace.to_bytes(),
            interp_trace.to_bytes(),
            "trace bytes diverge on {}",
            w.name()
        );

        // Live-stream parity: same event count and outcome.
        let mut block_events = 0u64;
        let block_outcome = LiveVm::new(&p).drive(&mut |_| block_events += 1).unwrap();
        let mut interp_events = 0u64;
        let interp_outcome = LiveVm::interpreted(&p)
            .drive(&mut |_| interp_events += 1)
            .unwrap();
        assert_eq!(block_events, interp_events, "event count on {}", w.name());
        assert_eq!(block_outcome, interp_outcome, "outcome on {}", w.name());

        // Profile parity: the engine's hooks vs the interpreter's and
        // the replays'.
        assert_profile_parity(&profiler, &p, None);
    }
}

/// The Table-2 sweep (8 L2s x 2 predictors) feeds every L1 miss to many
/// L2 candidates, so it covers the shared-L2 order of fetches and data
/// accesses under the fetch-line memo.
#[test]
fn table2_sweep_is_backend_invariant() {
    let profiler = SweepProfiler::for_design_space(&DesignSpace::paper_table2());
    for w in mibench::all().into_iter().chain(spec::all()) {
        assert_profile_parity(&profiler, &w.program(WorkloadSize::Tiny), None);
    }
}

/// Limits that end inside a block: the engine and the replays charge
/// whole blocks at block entry, then finish the window one instruction
/// at a time.
#[test]
fn limits_that_end_mid_block_are_backend_invariant() {
    let profiler = SweepProfiler::for_design_space(&DesignSpace::paper_table2());
    for w in [
        mibench::sha(),
        mibench::qsort(),
        mibench::dijkstra(),
        spec::mcf_like(),
    ] {
        let p = w.program(WorkloadSize::Tiny);
        let num_insts = profiler.profile(&p, None).unwrap().num_insts;
        for limit in [1, 2, 7, 1_000, 12_345, num_insts - 1] {
            let profile = assert_profile_parity(&profiler, &p, Some(limit));
            assert_eq!(profile.num_insts, limit.min(num_insts), "{}", w.name());
        }
    }
}
