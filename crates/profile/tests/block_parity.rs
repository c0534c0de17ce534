//! Backend-parity sweep over every bundled workload: the block-compiled
//! engine and the per-step interpreter must produce byte-identical
//! recordings, identical live event streams and identical
//! `WorkloadProfile`s.

use mim_core::MachineConfig;
use mim_profile::SweepProfiler;
use mim_trace::{LiveVm, Trace, TraceSource};
use mim_workloads::{mibench, spec, WorkloadSize};

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

        // Profile parity: block-hook collection vs interpreter observer.
        let block_profile = profiler.profile(&p, None).unwrap();
        let interp_profile = profiler
            .profile_source(&mut LiveVm::interpreted(&p))
            .unwrap();
        assert_eq!(
            serde_json::to_string(&block_profile).unwrap(),
            serde_json::to_string(&interp_profile).unwrap(),
            "workload profile diverges on {}",
            w.name()
        );
    }
}
