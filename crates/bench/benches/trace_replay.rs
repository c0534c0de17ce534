//! `trace_replay`: replay vs functional re-execution, and the
//! block-compiled recording path vs the interpreter.
//!
//! Quantifies the trace layer's premise — replaying a recorded dynamic
//! instruction stream is much faster than re-interpreting the program —
//! plus the block engine's recording throughput (`Trace::record` runs on
//! compiled blocks), and writes the measured speedups to
//! `BENCH_trace.json` at the workspace root so the perf trajectory is
//! tracked across PRs. The record asserts the block engine's ≥5×
//! recording-throughput floor over the interpreter baseline.

use std::hint::black_box;
use std::time::Instant;

use mim_trace::{LiveVm, Trace, TraceSource};
use mim_workloads::{mibench, WorkloadSize};
use serde::Serialize;

fn drain<S: TraceSource>(mut source: S) -> u64 {
    let mut events = 0u64;
    source
        .drive(&mut |ev| {
            events += 1;
            black_box(ev.pc);
        })
        .expect("stream");
    events
}

#[derive(Serialize)]
struct BenchRecord {
    bench: &'static str,
    workload: String,
    instructions: u64,
    execute_minsts_per_sec: f64,
    block_minsts_per_sec: f64,
    block_speedup: f64,
    replay_minsts_per_sec: f64,
    replay_speedup: f64,
    /// The trace's one representation: its serialized image, held as is
    /// in memory and on disk.
    trace_bytes: usize,
    serialized_bytes_per_kilo_inst: f64,
}

/// The block engine's contract: recording throughput at least this many
/// times the interpreter baseline (asserted on every bench run).
const BLOCK_SPEEDUP_FLOOR: f64 = 5.0;

/// Steady-state measurement, persisted as `BENCH_trace.json` for the
/// repo's perf trajectory.
fn main() {
    let program = mibench::sha().program(WorkloadSize::Small);
    let trace = Trace::record(&program, None).expect("record");
    let rate = |f: &mut dyn FnMut() -> u64| {
        let mut best = f64::MIN;
        for _ in 0..5 {
            let t = Instant::now();
            let events = f();
            best = best.max(events as f64 / t.elapsed().as_secs_f64());
        }
        best / 1e6
    };
    // The baseline is the per-step interpreter — the only recording path
    // before the block engine existed, pinned via `LiveVm::interpreted`
    // so its meaning never drifts with the engine default.
    let execute = rate(&mut || drain(LiveVm::interpreted(&program)));
    // The block path is measured as a full `Trace::record` (compile +
    // dispatch + both recorded streams), i.e. end-to-end recording
    // throughput, not a bare dispatch number.
    let block = rate(&mut || Trace::record(&program, None).expect("record").len());
    let replay = rate(&mut || drain(trace.replay(&program).expect("replay")));
    let trace_bytes = trace.encoded_bytes();
    let record = BenchRecord {
        bench: "trace_replay_throughput",
        workload: trace.name().to_string(),
        instructions: trace.len(),
        execute_minsts_per_sec: execute,
        block_minsts_per_sec: block,
        block_speedup: block / execute,
        replay_minsts_per_sec: replay,
        replay_speedup: replay / execute,
        trace_bytes,
        serialized_bytes_per_kilo_inst: trace_bytes as f64 / (trace.len() as f64 / 1e3),
    };
    mim_bench::write_bench_record("trace", &record).expect("write BENCH_trace.json");
    println!(
        "trace replay: {replay:.1} Minsts/s, block record {block:.1} Minsts/s \
         vs execute {execute:.1} Minsts/s (replay {:.1}x, block {:.1}x)",
        record.replay_speedup, record.block_speedup
    );
    assert!(
        record.block_speedup >= BLOCK_SPEEDUP_FLOOR,
        "block-compiled recording regressed below its {BLOCK_SPEEDUP_FLOOR}x floor: \
         {block:.1} vs {execute:.1} Minsts/s ({:.2}x)",
        record.block_speedup
    );
}
