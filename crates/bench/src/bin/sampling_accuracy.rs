//! `sampling_accuracy`: the accuracy/speed trade-off of sampled
//! simulation, tracked across PRs as `BENCH_sample.json`.
//!
//! For each sampling fraction (1/5, 1/10, 1/50) the binary measures, on
//! one recorded trace: CPI error vs the full detailed simulation, the
//! reported 95% CI half-width, the wall-clock speedup over full
//! simulation, and the streaming working set (the fixed replay buffer)
//! against the full encoded trace — the peak-memory proxy for streaming
//! vs materialized replay. The record asserts the headline contract:
//! sampling 1 instruction in 10 (with full functional warming of caches
//! and branch predictors in the gaps) is demonstrably faster than
//! simulating everything.
//!
//! `--quick` (CI's smoke configuration) measures the Tiny input;
//! the default run uses Small for steadier timings.

use std::time::Instant;

use mim_bench::cli::BenchArgs;
use mim_core::MachineConfig;
use mim_pipeline::PipelineSim;
use mim_trace::{Replay, Sampling, Trace};
use mim_workloads::{mibench, WorkloadSize};
use serde::Serialize;

#[derive(Serialize)]
struct FractionRecord {
    plan: String,
    /// Target measured fraction of the plan (length / period).
    fraction: f64,
    /// Sample units the run actually closed.
    units: u64,
    cpi: f64,
    cpi_error_percent: f64,
    ci95_half_width: f64,
    /// Best-of-N wall seconds for the sampled run (warming included).
    wall_seconds: f64,
    speedup_vs_full: f64,
    /// Timeline intervals the plan's windows actually measured.
    phases_covered: u64,
    /// Mean |sampled − full| CPI error over covered intervals, percent —
    /// the per-phase view that localizes where sampling error lives.
    phase_mean_error_percent: f64,
    /// Worst single covered interval, percent.
    phase_max_error_percent: f64,
}

#[derive(Serialize)]
struct BenchRecord {
    bench: &'static str,
    workload: String,
    size: String,
    instructions: u64,
    full_cpi: f64,
    full_wall_seconds: f64,
    /// Bytes a streaming replay holds resident, independent of trace
    /// length — the peak-memory proxy for the O(sample unit) claim.
    streaming_buffer_bytes: usize,
    encoded_trace_bytes: usize,
    /// Instruction width of the CPI-timeline intervals the per-phase
    /// error columns compare over.
    timeline_interval: u64,
    fractions: Vec<FractionRecord>,
}

/// The contract asserted on every run: 1-in-10 sampling with full
/// warming beats full simulation by at least this factor.
const SPEEDUP_FLOOR_1_IN_10: f64 = 1.25;

fn best_of<T>(runs: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::MAX;
    let mut last = f();
    for _ in 0..runs {
        let t = Instant::now();
        last = f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best, last)
}

fn main() -> std::io::Result<()> {
    let quick = BenchArgs::parse().flag("--quick");
    let size = if quick {
        WorkloadSize::Tiny
    } else {
        WorkloadSize::Small
    };
    let workload = mibench::sha();
    let program = workload.program(size);
    let trace = Trace::record(&program, None).expect("recording");
    let sim = PipelineSim::new(&MachineConfig::default_config());

    let (full_wall, full) = best_of(5, || {
        let mut replay = trace.replay(&program).expect("replay");
        sim.simulate_source(&mut replay).expect("full sim")
    });

    // Per-phase reference: a timeline-enabled full run (outside the timed
    // loops, so the wall-clock columns stay timeline-free). Sampled
    // timelines align with it interval-for-interval (walked positions),
    // so each covered interval localizes the sampling error to a phase.
    let timeline_interval = (trace.len() / 16).max(1_000);
    let full_timeline = {
        let mut replay = trace.replay(&program).expect("replay");
        PipelineSim::new(&MachineConfig::default_config())
            .with_timeline(timeline_interval)
            .simulate_source(&mut replay)
            .expect("full sim")
            .timeline
            .expect("timeline requested")
    };

    let plans = [
        Sampling::try_new(500, 100)
            .unwrap()
            .with_warmup(400)
            .with_offset(50),
        Sampling::default_plan(),
        Sampling::try_new(5000, 100)
            .unwrap()
            .with_warmup(1000)
            .with_offset(500),
    ];
    let fractions: Vec<FractionRecord> = plans
        .iter()
        .map(|plan| {
            let (wall, result) = best_of(5, || {
                let mut replay = trace.replay(&program).expect("replay").with_sampling(*plan);
                sim.simulate_source(&mut replay).expect("sampled sim")
            });
            let stats = result.sampling.expect("sampled stats");
            let sampled_timeline = {
                let mut replay = trace.replay(&program).expect("replay").with_sampling(*plan);
                PipelineSim::new(&MachineConfig::default_config())
                    .with_timeline(timeline_interval)
                    .simulate_source(&mut replay)
                    .expect("sampled sim")
                    .timeline
                    .expect("timeline requested")
            };
            let mut phase_errors = Vec::new();
            for i in 0..sampled_timeline.len().min(full_timeline.len()) {
                if sampled_timeline.insts_of(i) == 0 || full_timeline.insts_of(i) == 0 {
                    continue;
                }
                let reference = full_timeline.cpi_of_interval(i);
                let sampled = sampled_timeline.cpi_of_interval(i);
                phase_errors.push(100.0 * (sampled - reference).abs() / reference);
            }
            let phase_mean = if phase_errors.is_empty() {
                0.0
            } else {
                phase_errors.iter().sum::<f64>() / phase_errors.len() as f64
            };
            let phase_max = phase_errors.iter().cloned().fold(0.0, f64::max);
            FractionRecord {
                plan: format!(
                    "p{}-l{}-w{}-o{}",
                    plan.period(),
                    plan.length(),
                    plan.warmup(),
                    plan.offset()
                ),
                fraction: plan.fraction(),
                units: stats.units,
                cpi: stats.cpi,
                cpi_error_percent: 100.0 * (stats.cpi - full.cpi()).abs() / full.cpi(),
                ci95_half_width: stats.ci_half_width,
                wall_seconds: wall,
                speedup_vs_full: full_wall / wall,
                phases_covered: phase_errors.len() as u64,
                phase_mean_error_percent: phase_mean,
                phase_max_error_percent: phase_max,
            }
        })
        .collect();

    // The streaming buffer is plan-independent; measure it on a file
    // replay of the serialized encoding.
    let path = std::env::temp_dir().join(format!("mim-sampling-{}.trace", std::process::id()));
    std::fs::write(&path, trace.to_bytes())?;
    let stream = Replay::from_file(std::fs::File::open(&path)?, &program).expect("file replay");
    std::fs::remove_file(&path)?;
    let record = BenchRecord {
        bench: "sampling_accuracy",
        workload: workload.name().to_string(),
        size: size.to_string(),
        instructions: trace.len(),
        full_cpi: full.cpi(),
        full_wall_seconds: full_wall,
        streaming_buffer_bytes: stream.buffer_bytes(),
        encoded_trace_bytes: trace.encoded_bytes(),
        timeline_interval,
        fractions,
    };

    for f in &record.fractions {
        println!(
            "{:>16}  fraction {:>5.3}  units {:>4}  cpi {:.4} (err {:.2}%, ci ±{:.4})  \
             {:.1}x vs full",
            f.plan,
            f.fraction,
            f.units,
            f.cpi,
            f.cpi_error_percent,
            f.ci95_half_width,
            f.speedup_vs_full
        );
        println!(
            "{:>16}  per-phase error over {} intervals: mean {:.2}%, max {:.2}%",
            "", f.phases_covered, f.phase_mean_error_percent, f.phase_max_error_percent
        );
    }
    println!(
        "streaming buffer {} B vs encoded trace {} B ({:.1}x smaller)",
        record.streaming_buffer_bytes,
        record.encoded_trace_bytes,
        record.encoded_trace_bytes as f64 / record.streaming_buffer_bytes as f64
    );

    let one_in_ten = record
        .fractions
        .iter()
        .find(|f| f.plan.starts_with("p1000-"))
        .expect("1-in-10 plan measured");
    assert!(
        one_in_ten.speedup_vs_full >= SPEEDUP_FLOOR_1_IN_10,
        "1-in-10 sampling regressed below its {SPEEDUP_FLOOR_1_IN_10}x floor: {:.2}x",
        one_in_ten.speedup_vs_full
    );
    assert!(
        record.streaming_buffer_bytes < record.encoded_trace_bytes,
        "streaming working set must undercut the materialized encoding"
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sample.json");
    let json = serde_json::to_string_pretty(&record).expect("serialize");
    std::fs::write(path, json)?;
    println!("[wrote BENCH_sample.json]");
    Ok(())
}
