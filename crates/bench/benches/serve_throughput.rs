//! `serve_throughput`: the evaluation service under concurrent load.
//!
//! Boots a real `mim-serve` server (TCP, in-process) and drives hundreds
//! of concurrent overlapping sweep submissions at it from parallel client
//! threads, then asserts the three properties the service exists for:
//!
//! * **cell reuse** — overlapping sweeps coalesce onto one computation per
//!   (workload, machine, evaluator) cell: ≥ 80% cell-level cache hits;
//! * **warm restarts** — a fresh engine over the same persistent store
//!   performs zero functional executions for previously-seen cells;
//! * **cheap telemetry** — turning latency timestamping on
//!   (`mim_obs::set_timing`) costs ≤ 5% throughput, and so does per-job
//!   profile capture.
//!
//! That reports stay byte-identical across worker counts, restarts,
//! timing and capture is asserted by the `mim-serve` determinism test
//! (`crates/serve/tests/determinism.rs`), not here.
//!
//! The measured numbers — including p50/p99 job latency scraped from the
//! engine's `mim-obs` registry — land in `BENCH_serve.json` at the
//! workspace root so the perf trajectory is tracked across PRs.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mim_serve::{CellMemo, Client, Engine, JobSpec, Server, WorkloadStore};
use serde::{Serialize, Value};

/// Client threads driving the server concurrently.
const CLIENTS: usize = 8;
/// Submissions per client thread (8 × 48 = 384 total requests).
const REQUESTS_PER_CLIENT: usize = 48;

/// The pool of distinct-but-overlapping sweep jobs. Four width subsets
/// over the same two workloads share most of their cells; three title
/// variants per subset defeat job-level dedup so the cell memo (not the
/// job table) has to do the work.
fn job_pool() -> Vec<JobSpec> {
    let mut pool = Vec::new();
    for (tag, widths) in [
        ("narrow", "[1,2]"),
        ("wide", "[2,4]"),
        ("ends", "[1,4]"),
        ("full", "[1,2,4]"),
    ] {
        for variant in 0..3 {
            let json = format!(
                r#"{{"kind":"experiment","title":"{tag}-{variant}","workloads":["sha","qsort"],"size":"tiny","limit":20000,"evaluators":["model"],"space":{{"preset":"table2","widths":{widths}}}}}"#
            );
            let value: Value = serde_json::from_str(&json).expect("job JSON parses");
            pool.push(JobSpec::from_value(&value).expect("job spec is valid"));
        }
    }
    pool
}

/// Returns whichever of two load runs finished sooner (the second one is
/// produced lazily so both runs happen back to back).
fn faster_of(first: LoadRun, second: impl FnOnce() -> LoadRun) -> LoadRun {
    let second = second();
    if first.seconds <= second.seconds {
        first
    } else {
        second
    }
}

/// Reads one numeric counter out of a stats sub-object.
fn stat(stats: &Value, section: &str, key: &str) -> u64 {
    match stats.get(section).and_then(|s| s.get(key)) {
        Some(Value::UInt(u)) => *u,
        Some(Value::Int(i)) => *i as u64,
        other => panic!("stats {section}.{key} missing or non-numeric: {other:?}"),
    }
}

/// One full load run: boot a server, fire the request storm, collect the
/// engine counters, shut down cleanly.
struct LoadRun {
    seconds: f64,
    requests: u64,
    deduped: u64,
    cell_hits: u64,
    cell_misses: u64,
    executions: u64,
    /// Median and tail job run latency from the engine's metrics
    /// registry, in nanoseconds (zero when timing is globally off).
    run_p50_ns: f64,
    run_p99_ns: f64,
    total_p50_ns: f64,
    total_p99_ns: f64,
}

impl LoadRun {
    fn requests_per_second(&self) -> f64 {
        self.requests as f64 / self.seconds.max(1e-9)
    }
}

fn run_load(store: WorkloadStore, workers: usize, profile_capture: bool) -> LoadRun {
    let engine = Engine::start(store, CellMemo::new(), workers, 1024);
    engine.set_profile_capture(profile_capture);
    let server = Server::bind("tcp:127.0.0.1:0", engine.clone()).expect("bind");
    let addr = server.addr().to_connect_string();
    let handle = std::thread::spawn(move || server.run());

    let pool = Arc::new(job_pool());
    let started = Instant::now();
    let drivers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let pool = Arc::clone(&pool);
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("client connects");
                let mut deduped = 0u64;
                for r in 0..REQUESTS_PER_CLIENT {
                    let job = &pool[(c + r) % pool.len()];
                    let submitted = client.submit(job).expect("submit accepted");
                    deduped += u64::from(submitted.deduped);
                    black_box(client.result_text(submitted.id).expect("result"));
                }
                deduped
            })
        })
        .collect();
    let deduped: u64 = drivers
        .into_iter()
        .map(|driver| driver.join().expect("client thread"))
        .sum();
    let seconds = started.elapsed().as_secs_f64();

    let stats = engine.stats();
    let metrics = engine.metrics();
    let quantile = |name: &str, q: f64| {
        metrics
            .histogram(name)
            .map_or(0.0, |h| if h.count == 0 { 0.0 } else { h.quantile(q) })
    };
    let run = LoadRun {
        seconds,
        requests: (CLIENTS * REQUESTS_PER_CLIENT) as u64,
        deduped,
        cell_hits: stat(&stats, "cells", "hits"),
        cell_misses: stat(&stats, "cells", "misses"),
        executions: stat(&stats, "store", "functional_executions"),
        run_p50_ns: quantile("jobs.run_ns", 0.5),
        run_p99_ns: quantile("jobs.run_ns", 0.99),
        total_p50_ns: quantile("jobs.total_ns", 0.5),
        total_p99_ns: quantile("jobs.total_ns", 0.99),
    };

    let mut closer = Client::connect(&addr).expect("closer connects");
    closer.shutdown().expect("shutdown accepted");
    drop(closer);
    handle.join().expect("server thread").expect("server ran");
    run
}

fn main() {
    let store_dir = std::env::temp_dir().join(format!("mim-serve-bench-{}", std::process::id()));
    std::fs::remove_dir_all(&store_dir).ok();

    // Cold storm, 4 workers, persistent store.
    let cold = run_load(
        WorkloadStore::persistent(&store_dir).expect("open store"),
        4,
        true,
    );
    let hit_rate = cold.cell_hits as f64 / (cold.cell_hits + cold.cell_misses).max(1) as f64;
    assert!(
        hit_rate >= 0.80,
        "cell-level hit rate {hit_rate:.3} under overlapping load must be >= 0.80"
    );

    // Warm restart: a fresh engine over the same on-disk store records
    // and replays nothing — zero functional executions.
    let warm = run_load(
        WorkloadStore::persistent(&store_dir).expect("reopen store"),
        4,
        true,
    );
    assert_eq!(
        warm.executions, 0,
        "warm restart must perform zero functional executions"
    );

    // Instrumentation overhead: the same in-memory storm with latency
    // timestamping globally off vs on. Best-of-two per mode damps
    // scheduler noise; the comparison is wall-clock throughput.
    mim_obs::set_timing(false);
    let off = faster_of(run_load(WorkloadStore::new(), 4, true), || {
        run_load(WorkloadStore::new(), 4, true)
    });
    mim_obs::set_timing(true);
    let on = faster_of(run_load(WorkloadStore::new(), 4, true), || {
        run_load(WorkloadStore::new(), 4, true)
    });
    let overhead = 1.0 - on.requests_per_second() / off.requests_per_second();
    assert!(
        on.requests_per_second() >= 0.95 * off.requests_per_second(),
        "instrumentation costs {:.1}% throughput (off {:.0} req/s, on {:.0} req/s); budget is 5%",
        overhead * 100.0,
        off.requests_per_second(),
        on.requests_per_second(),
    );
    assert!(
        on.run_p99_ns > 0.0,
        "the instrumented storm must populate the job latency histograms"
    );

    // Per-job profile capture: the default-on capture wraps every job in
    // a private ProfileSink (the protocol's `profile` command). Compare
    // the fully-instrumented storm (`on`, capture enabled) against the
    // same storm with capture disabled — the budget is the same 5%.
    let capture_off = faster_of(run_load(WorkloadStore::new(), 4, false), || {
        run_load(WorkloadStore::new(), 4, false)
    });
    let capture_overhead = 1.0 - on.requests_per_second() / capture_off.requests_per_second();
    assert!(
        on.requests_per_second() >= 0.95 * capture_off.requests_per_second(),
        "profile capture costs {:.1}% throughput (off {:.0} req/s, on {:.0} req/s); budget is 5%",
        capture_overhead * 100.0,
        capture_off.requests_per_second(),
        on.requests_per_second(),
    );

    std::fs::remove_dir_all(&store_dir).ok();

    #[derive(Serialize)]
    struct BenchRecord {
        bench: &'static str,
        clients: usize,
        requests: u64,
        distinct_jobs: usize,
        deduped_submissions: u64,
        cell_hits: u64,
        cell_misses: u64,
        cell_hit_rate: f64,
        cold_executions: u64,
        warm_restart_executions: u64,
        cold_seconds: f64,
        warm_seconds: f64,
        cold_requests_per_second: f64,
        warm_requests_per_second: f64,
        timing_off_requests_per_second: f64,
        timing_on_requests_per_second: f64,
        instrumentation_overhead_pct: f64,
        profile_capture_off_requests_per_second: f64,
        profile_capture_overhead_pct: f64,
        job_run_p50_ns: f64,
        job_run_p99_ns: f64,
        job_total_p50_ns: f64,
        job_total_p99_ns: f64,
        // Asserted by `crates/serve/tests/determinism.rs`.
        byte_identical_across_workers: bool,
        byte_identical_across_restarts: bool,
        byte_identical_instrumentation_on_vs_off: bool,
    }
    let record = BenchRecord {
        bench: "serve_throughput",
        clients: CLIENTS,
        requests: cold.requests,
        distinct_jobs: job_pool().len(),
        deduped_submissions: cold.deduped,
        cell_hits: cold.cell_hits,
        cell_misses: cold.cell_misses,
        cell_hit_rate: hit_rate,
        cold_executions: cold.executions,
        warm_restart_executions: warm.executions,
        cold_seconds: cold.seconds,
        warm_seconds: warm.seconds,
        cold_requests_per_second: cold.requests_per_second(),
        warm_requests_per_second: warm.requests_per_second(),
        timing_off_requests_per_second: off.requests_per_second(),
        timing_on_requests_per_second: on.requests_per_second(),
        instrumentation_overhead_pct: overhead * 100.0,
        profile_capture_off_requests_per_second: capture_off.requests_per_second(),
        profile_capture_overhead_pct: capture_overhead * 100.0,
        job_run_p50_ns: on.run_p50_ns,
        job_run_p99_ns: on.run_p99_ns,
        job_total_p50_ns: on.total_p50_ns,
        job_total_p99_ns: on.total_p99_ns,
        byte_identical_across_workers: true,
        byte_identical_across_restarts: true,
        byte_identical_instrumentation_on_vs_off: true,
    };
    mim_bench::write_bench_record("serve", &record).expect("write BENCH_serve.json");
    println!(
        "{} requests cold in {:.2}s ({:.0} req/s, {:.1}% cell hits), warm {:.2}s \
         with 0 executions, instrumentation overhead {:.1}%, profile capture \
         overhead {:.1}% (p99 job run {:.1}ms)",
        cold.requests,
        cold.seconds,
        cold.requests_per_second(),
        hit_rate * 100.0,
        warm.seconds,
        overhead * 100.0,
        capture_overhead * 100.0,
        on.run_p99_ns / 1e6,
    );
}
