//! The mim benchmark: one named workload per process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dse_sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` records spans
//! and prints the per-layer metrics instead. The last line of standard
//! output is the JSON result. `--aa <runs>` runs the workload repeatedly
//! in child processes and prints each metric's spread (see `aa.rs`).

mod aa;
mod dse;
mod layers;
mod serve;
mod sim;
mod spans;
mod window;

use std::process::ExitCode;

use mim_workloads::{mibench, Workload, WorkloadSize};

use dse::Dse;
use serve::Storm;
use sim::SimValidate;
use window::{median, quantile, run_ns, run_since, Work};

pub const WORKLOADS: [&str; 3] = ["dse_sweep", "sim_validate", "serve_storm"];

/// Besides the set-up the window runs on, set-up is timed this share of
/// the window's length more, between `MIN_EXTRA_SETUPS` and
/// `MAX_EXTRA_SETUPS` times, spread evenly over the window; `setup_s` is
/// the median of all. Set-ups in one burst would all see the same
/// moment of a shared machine, whose speed drifts over seconds.
const SETUP_SHARE: f64 = 0.15;
const MIN_EXTRA_SETUPS: usize = 2;
const MAX_EXTRA_SETUPS: usize = 30;
/// Jobs the serve probes run: through the socket in the traced run of the
/// other workloads, and straight on the engine in every traced run.
const PROBE_JOBS: u64 = 40;
/// Rounds of client-side decoding of every serve response class.
const DECODE_ROUNDS: usize = 10;

/// End-to-end metrics and their units, in output order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cells_per_s", "1/s"),
    ("minsts_per_s", "Minst/s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("sampled_cpi_error_pct", "%"),
];

/// Per-layer metrics and their units, in output order.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("workloads.generate_ms", "ms"),
    ("isa.exec_minsts_per_s", "Minst/s"),
    ("profile.sweep_ms", "ms"),
    ("profile.minsts_per_s", "Minst/s"),
    ("core.model_ns_per_point", "ns"),
    ("power.energy_ns_per_point", "ns"),
    ("json.encode_mb_per_s", "MB/s"),
    ("json.decode_mb_per_s", "MB/s"),
    ("trace.record_minsts_per_s", "Minst/s"),
    ("trace.replay_minsts_per_s", "Minst/s"),
    ("trace.stream_minsts_per_s", "Minst/s"),
    ("trace.in_memory_bytes", "bytes"),
    ("trace.encoded_bytes", "bytes"),
    ("pipeline.full_minsts_per_s", "Minst/s"),
    ("pipeline.sampled_minsts_per_s", "Minst/s"),
    ("pipeline.cycles", "count"),
    ("cache.l1d_misses", "count"),
    ("cache.l2_misses", "count"),
    ("bpred.mispredicts", "count"),
    ("runner.cell_hit_ratio", "ratio"),
    ("runner.cell_lookups", "count"),
    ("runner.functional_executions", "count"),
    ("serve.engine_job_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.protocol_ms", "ms"),
    ("unattributed_pct", "%"),
    ("trace_overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
    aa: Option<usize>,
    sets: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        corrupt: false,
        aa: None,
        sets: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--aa" => args.aa = Some(value()?.parse().map_err(|e| format!("--aa: {e}"))?),
            "--sets" => args.sets = value()?.parse().map_err(|e| format!("--sets: {e}"))?,
            // Self-test only: corrupt the first checked output.
            "--corrupt-one" => args.corrupt = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got `{}`",
            args.workload
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.aa {
        Some(runs) => aa::run(&args.workload, runs, args.sets, args.seed, args.seconds),
        None => run(&args).map(|line| println!("{line}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The four MiBench kernels every workload runs, in a seeded order.
fn kernels(seed: u64) -> Vec<Workload> {
    window::shuffled(
        vec![
            mibench::sha(),
            mibench::qsort(),
            mibench::dijkstra(),
            mibench::susan_s(),
        ],
        seed,
    )
}

enum Bench {
    Dse(Dse),
    Sim(SimValidate),
    Storm(Storm),
}

impl Bench {
    fn setup(workload: &str, kernels: &[Workload], seed: u64) -> Result<Bench, String> {
        Ok(match workload {
            "dse_sweep" => Bench::Dse(Dse::setup(kernels, WorkloadSize::Small)?),
            "sim_validate" => Bench::Sim(SimValidate::setup(kernels, WorkloadSize::Small, seed)?),
            _ => Bench::Storm(Storm::setup(kernels, seed)?),
        })
    }

    /// The size the workload's kernels run at.
    fn size(&self) -> WorkloadSize {
        match self {
            Bench::Storm(_) => WorkloadSize::Tiny,
            _ => WorkloadSize::Small,
        }
    }

    fn op(&self, n: u64) -> Result<Work, String> {
        match self {
            Bench::Dse(b) => b.op(),
            Bench::Sim(b) => b.op(n),
            Bench::Storm(b) => b.op(n),
        }
    }

    fn executions(&self) -> u64 {
        match self {
            Bench::Dse(b) => b.executions.load(std::sync::atomic::Ordering::Relaxed),
            Bench::Sim(b) => b.store().functional_executions(),
            Bench::Storm(b) => b.store().functional_executions(),
        }
    }

    fn outputs(&self) -> Vec<String> {
        match self {
            Bench::Dse(b) => vec![b.output().to_string()],
            Bench::Sim(b) => vec![b.output().to_string()],
            Bench::Storm(b) => b.outputs(),
        }
    }
}

/// Runs one workload and returns the result line.
fn run(args: &Args) -> Result<String, String> {
    let kernels = kernels(args.seed);
    let setup = || {
        let started = run_ns();
        let bench = spans::traced(args.trace, "setup", || {
            Bench::setup(&args.workload, &kernels, args.seed)
        })?;
        Ok::<_, String>((bench, run_since(started).as_secs_f64()))
    };
    let (bench, first_setup_s) = setup()?;
    let mut setup_s = vec![first_setup_s];
    let extra_setups = ((SETUP_SHARE * args.seconds / first_setup_s) as usize)
        .clamp(MIN_EXTRA_SETUPS, MAX_EXTRA_SETUPS);
    let mut extra_setup = |progress: f64| {
        if setup_s.len() as f64 <= progress * extra_setups as f64 + 1.0 {
            let (spare, s) = setup()?;
            setup_s.push(s);
            drop(spare);
        }
        Ok(())
    };

    let executions_before = bench.executions();
    let memo_before = match &bench {
        Bench::Storm(s) => Some(s.memo_stats()),
        _ => None,
    };
    let w = window::run(args.seconds, args.trace, &mut extra_setup, |n| {
        if args.corrupt && n == 0 {
            window::corrupt_next_output();
        }
        bench.op(n)
    })?;
    let peak_rss_mb = window::peak_rss_mb();
    let latencies_ms = w.latencies_ms();
    let executions = bench.executions() - executions_before;
    eprintln!(
        "{}: {} set-ups, {} operations in {:.3} s wall / {:.3} s run time on {} CPUs, {} failed, {} latency samples",
        args.workload,
        setup_s.len(),
        w.attempted(),
        w.wall_s,
        w.run_s,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        w.failed(),
        latencies_ms.len()
    );
    for e in w.errors.iter().take(5) {
        eprintln!("  failed: {e}");
    }

    // The sampled-simulation error on this workload's own kernels.
    let own_sim;
    let sim = match &bench {
        Bench::Sim(s) => s,
        _ => {
            own_sim = spans::traced(args.trace, "probe", || {
                SimValidate::setup(&kernels, bench.size(), args.seed)
            })?;
            &own_sim
        }
    };

    let mut metrics: Vec<(&str, f64)> = Vec::new();
    if !args.trace {
        metrics.push(("setup_s", median(&setup_s)));
        metrics.push(("peak_rss_mb", peak_rss_mb));
        metrics.push(("cells_per_s", w.rate(|o| o.cells as f64)));
        metrics.push(("minsts_per_s", w.rate(|o| o.insts as f64) * 1e-6));
        metrics.push(("requests_per_s", w.rate(|_| 1.0)));
        metrics.push(("latency_p50_ms", quantile(&latencies_ms, 0.5)));
        metrics.push(("latency_p90_ms", quantile(&latencies_ms, 0.9)));
        metrics.push(("sampled_cpi_error_pct", sim.sampled_cpi_error_pct));
        if latencies_ms.len() < 100 {
            eprintln!(
                "warning: {} latency samples leave fewer than 10 beyond p90",
                latencies_ms.len()
            );
        }
    } else {
        metrics = traced_metrics(args, &kernels, &bench, sim, &w, memo_before, executions)?;
    }
    result_line(
        w.failed() == 0,
        w.attempted(),
        w.failed(),
        &metrics,
        args.trace,
    )
}

/// Runs the probes for layers the window did not call, then reads every
/// per-layer metric from the spans and writes the spans out.
fn traced_metrics(
    args: &Args,
    kernels: &[Workload],
    bench: &Bench,
    sim: &SimValidate,
    w: &window::Window,
    memo_before: Option<mim_runner::CellStats>,
    executions: u64,
) -> Result<Vec<(&'static str, f64)>, String> {
    let size = bench.size();
    let counts = spans::traced(true, "probe", || {
        layers::probe(kernels, size, &bench.outputs())
    })?;
    let so_far = spans::take();
    if !layers::Spans(&so_far).has("profile.sweep") {
        spans::traced(true, "probe", || Dse::setup(kernels, size))?;
    }
    // The serve layers: the workload's own storm, or a short one over its
    // kernels.
    let probe_storm;
    let (storm, memo_before, memo_after) = match bench {
        Bench::Storm(s) => (s, memo_before.unwrap_or_default(), s.memo_stats()),
        _ => {
            probe_storm = spans::traced(true, "probe", || Storm::setup(kernels, args.seed))?;
            let before = probe_storm.memo_stats();
            for n in 0..PROBE_JOBS {
                spans::traced(true, "probe", || probe_storm.op(n))?;
            }
            (&probe_storm, before, probe_storm.memo_stats())
        }
    };
    spans::traced(true, "probe", || storm.engine_jobs(PROBE_JOBS))?;
    spans::traced(true, "probe", || storm.client_decodes(DECODE_ROUNDS))?;

    let mut records = so_far;
    records.extend(spans::take());
    let s = layers::Spans(&records);
    let attribution = spans::attribute(&records);
    let hits = memo_after.hits - memo_before.hits;
    let lookups = hits + memo_after.misses - memo_before.misses;
    let completed = (w.attempted() - w.failed()).max(1);
    let round_trip = s.per_root_ms(&["serve.submit", "serve.result"]);
    let metrics = vec![
        (
            "workloads.generate_ms",
            s.per_root_ms(&["workloads.generate"]),
        ),
        ("isa.exec_minsts_per_s", s.rate("isa.exec") * 1e3),
        ("profile.sweep_ms", s.per_root_ms(&["profile.sweep"])),
        ("profile.minsts_per_s", s.rate("profile.sweep") * 1e3),
        ("core.model_ns_per_point", 1.0 / s.rate("core.model")),
        ("power.energy_ns_per_point", 1.0 / s.rate("power.energy")),
        ("json.encode_mb_per_s", s.rate("json.encode") * 1e3),
        ("json.decode_mb_per_s", s.rate("json.decode") * 1e3),
        ("trace.record_minsts_per_s", s.rate("trace.record") * 1e3),
        ("trace.replay_minsts_per_s", s.rate("trace.replay") * 1e3),
        ("trace.stream_minsts_per_s", s.rate("trace.stream") * 1e3),
        ("trace.in_memory_bytes", counts["trace.in_memory_bytes"]),
        ("trace.encoded_bytes", counts["trace.encoded_bytes"]),
        ("pipeline.full_minsts_per_s", s.rate("pipeline.full") * 1e3),
        (
            "pipeline.sampled_minsts_per_s",
            s.rate("pipeline.sampled") * 1e3,
        ),
        ("pipeline.cycles", sim.counts[0] as f64),
        ("cache.l1d_misses", sim.counts[1] as f64),
        ("cache.l2_misses", sim.counts[2] as f64),
        ("bpred.mispredicts", sim.counts[3] as f64),
        ("runner.cell_hit_ratio", hits as f64 / lookups.max(1) as f64),
        ("runner.cell_lookups", lookups as f64),
        (
            "runner.functional_executions",
            executions as f64 / completed as f64,
        ),
        ("serve.engine_job_ms", s.p50_ms("serve.engine_job")),
        ("serve.submit_ms", s.p50_ms("serve.submit")),
        ("serve.result_ms", s.p50_ms("serve.result")),
        (
            "serve.protocol_ms",
            round_trip - s.p50_ms("serve.engine_job") - s.p50_ms("serve.decode"),
        ),
        ("unattributed_pct", attribution.unattributed_pct()),
        (
            "trace_overhead_pct",
            100.0 * (w.mean_latency(true) / w.mean_latency(false) - 1.0),
        ),
    ];

    let traced = w.ops.iter().filter(|o| o.traced).count();
    eprintln!("layer self time over {traced} traced requests:");
    let total = attribution.time_ns.max(1) as f64;
    for (name, ns) in &attribution.rows {
        eprintln!(
            "  {name:<24} {:>10.3} ms {:>6.2}%",
            *ns as f64 * 1e-6,
            100.0 * *ns as f64 / total
        );
    }
    eprintln!(
        "  {:<24} {:>10.3} ms {:>6.2}%",
        "unattributed",
        attribution.unattributed_ns as f64 * 1e-6,
        attribution.unattributed_pct()
    );
    write_spans(args, &records, &attribution)?;
    Ok(metrics)
}

/// Writes the traced run's spans and attribution next to the benchmark.
fn write_spans(
    args: &Args,
    records: &[spans::Record],
    a: &spans::Attribution,
) -> Result<(), String> {
    let path = window::out_dir().join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    let rows: Vec<String> = a.rows.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    let spans: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "{{\"id\":{},\"parent\":{},\"root\":{},\"root_name\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
                r.id,
                r.parent.map_or("null".to_string(), |p| p.to_string()),
                r.root,
                r.root_name,
                r.name,
                r.start_ns,
                r.end_ns,
                r.work
            )
        })
        .collect();
    let text = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"time_ns\":{},\"unattributed_ns\":{},\"rows\":{{{}}},\"spans\":[\n{}\n]}}\n",
        args.workload,
        args.seed,
        a.time_ns,
        a.unattributed_ns,
        rows.join(","),
        spans.join(",\n")
    );
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// The result object: every metric of the run's kind, with its unit.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64)],
    trace: bool,
) -> Result<String, String> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in table {
        let value = metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |&(_, v)| v);
        if value.is_nan() {
            return Err(format!("metric {name} was not measured"));
        }
        // JSON has no infinity: a latency percentile that lands on a
        // failed operation reads as 1e12 ms.
        let value = if value.is_finite() { value } else { 1e12 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}
