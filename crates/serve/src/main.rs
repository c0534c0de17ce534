//! `mim-serve` — the evaluation server binary.
//!
//! ```text
//! mim-serve --addr tcp:127.0.0.1:7171 --store-dir /var/cache/mim --workers 4
//! mim-serve --addr unix:/tmp/mim.sock --workers 2 --capacity 64
//! mim-serve --smoke --quick        # self-contained end-to-end check (CI)
//! ```
//!
//! Flags:
//!
//! * `--addr <addr>` — `unix:<path>` or `tcp:<host>:<port>` (default
//!   `tcp:127.0.0.1:7171`; TCP port 0 picks a free port and prints it).
//! * `--store-dir <dir>` — attach the persistent content-addressed store
//!   (omit for a memory-only server).
//! * `--workers <n>` — worker threads (default 2).
//! * `--queue <n>` — bounded queue capacity (default 64).
//! * `--capacity <n>` — LRU bound on the in-memory trace/profile maps
//!   (omit for unbounded).
//! * `--log-format {text,json}` — structured log line shape (default
//!   `text`).
//! * `--log-level {error,warn,info,debug}` — maximum emitted level
//!   (default `info`).
//! * `--spans <spec>` — route span start/stop events to a sink:
//!   `stderr` (line-JSON events), `chrome:<path>` (Chrome trace-event
//!   JSON, load in `chrome://tracing` or Perfetto), or
//!   `collapsed:<path>` (collapsed stacks for `flamegraph.pl`).
//!   Equivalent to `MIM_SPANS=<spec>`; off by default.
//! * `--trace-out <path>` — aggregate every span into a wall-clock
//!   profile and write it to `<path>` on each completed top-level span;
//!   `.json` writes Chrome trace events, `.folded`/`.txt` collapsed
//!   stacks. Composable with `--spans`.
//! * `--smoke [--quick]` — run the self-test: serve on a private unix
//!   socket, submit the same experiment twice, assert the second
//!   submission coalesces and the report bytes match, scrape the
//!   `metrics` command, then shut down cleanly. Exits non-zero on any
//!   violation.
//! * `--metrics-out <path>` — (smoke only) write the scraped metrics
//!   snapshot to `<path>` as pretty JSON, for CI artifacts.
//!
//! Environment: `MIM_OBS=off` disables latency timestamping (counters
//! keep working), `MIM_SPANS=stderr` mirrors `--spans stderr`.

use std::process::ExitCode;
use std::sync::Arc;

use mim_obs::log::{error, info};
use mim_obs::{
    set_log_format, set_log_level, set_span_sink, sink_from_spec, Level, LogFormat, ProfileSink,
    SpanEvent, SpanSink, TraceFormat,
};
use mim_serve::{CellMemo, Client, Engine, JobSpec, Server, WorkloadStore};
use serde::{Deserialize, Value};

/// Grid cells the server's cell memo keeps before evicting the least
/// recently used: room for 40 Table-2 sweeps (192 points) of four
/// workloads under two evaluators. A cell holds about 0.8 KB of heap (a
/// model cell) to 1 KB (a simulated one), so a full memo holds about
/// 50–65 MB. An evicted cell is recomputed, to the same bytes, when a job
/// asks for it again.
const CELL_MEMO_CAPACITY: usize = 65_536;

/// Fans one span event stream out to several sinks (`--spans` plus
/// `--trace-out` on the same process).
struct FanOut(Vec<Arc<dyn SpanSink>>);

impl SpanSink for FanOut {
    fn event(&self, event: &SpanEvent) {
        for sink in &self.0 {
            sink.event(event);
        }
    }
}

fn value_flag(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            error("mim-serve", &message, &[]);
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    if let Some(format) = value_flag(args, "--log-format")? {
        set_log_format(
            LogFormat::parse(&format)
                .ok_or_else(|| format!("--log-format wants text or json, got `{format}`"))?,
        );
    }
    if let Some(level) = value_flag(args, "--log-level")? {
        set_log_level(Level::parse(&level).ok_or_else(|| {
            format!("--log-level wants error, warn, info, or debug, got `{level}`")
        })?);
    }
    let mut sinks: Vec<Arc<dyn SpanSink>> = Vec::new();
    if let Some(spec) = value_flag(args, "--spans")? {
        sinks.push(sink_from_spec(&spec).ok_or_else(|| {
            format!(
                "--spans supports `stderr`, `chrome:<path>`, or `collapsed:<path>`, got `{spec}`"
            )
        })?);
    }
    if let Some(path) = value_flag(args, "--trace-out")? {
        let path = std::path::PathBuf::from(path);
        let format = TraceFormat::from_path(&path);
        sinks.push(Arc::new(ProfileSink::new().with_export(format, path)));
    }
    match sinks.len() {
        0 => {}
        1 => set_span_sink(sinks.pop()),
        _ => set_span_sink(Some(Arc::new(FanOut(sinks)))),
    }
    let addr = value_flag(args, "--addr")?.unwrap_or_else(|| "tcp:127.0.0.1:7171".into());
    let store_dir = value_flag(args, "--store-dir")?;
    let workers: usize = value_flag(args, "--workers")?
        .map_or(Ok(2), |v| v.parse().map_err(|_| "--workers wants a number"))?;
    let queue: usize = value_flag(args, "--queue")?
        .map_or(Ok(64), |v| v.parse().map_err(|_| "--queue wants a number"))?;
    let capacity: Option<usize> = value_flag(args, "--capacity")?
        .map(|v| v.parse().map_err(|_| "--capacity wants a number"))
        .transpose()?;

    let store = build_store(store_dir.as_deref(), capacity)?;

    if args.iter().any(|a| a == "--smoke") {
        let quick = args.iter().any(|a| a == "--quick");
        let metrics_out = value_flag(args, "--metrics-out")?;
        return smoke(store, workers, quick, metrics_out.as_deref());
    }

    let engine = Engine::start(
        store,
        CellMemo::with_capacity(CELL_MEMO_CAPACITY),
        workers,
        queue,
    );
    let server = Server::bind(&addr, engine).map_err(|e| e.to_string())?;
    info(
        "mim-serve",
        "listening",
        &[
            ("addr", server.addr().to_connect_string()),
            ("workers", workers.to_string()),
            ("queue", queue.to_string()),
        ],
    );
    server.run().map_err(|e| e.to_string())
}

fn build_store(dir: Option<&str>, capacity: Option<usize>) -> Result<WorkloadStore, String> {
    let store = match (dir, capacity) {
        (Some(dir), Some(cap)) => {
            WorkloadStore::persistent_with_capacity(dir, cap).map_err(|e| e.to_string())?
        }
        (Some(dir), None) => WorkloadStore::persistent(dir).map_err(|e| e.to_string())?,
        (None, Some(cap)) => WorkloadStore::with_capacity(cap),
        (None, None) => WorkloadStore::new(),
    };
    Ok(store)
}

/// The CI end-to-end check: unix socket, two identical submissions, one
/// computation, byte-identical reports, a well-formed metrics scrape,
/// clean shutdown.
fn smoke(
    store: WorkloadStore,
    workers: usize,
    quick: bool,
    metrics_out: Option<&str>,
) -> Result<(), String> {
    let socket = std::env::temp_dir().join(format!("mim-serve-smoke-{}.sock", std::process::id()));
    std::fs::remove_file(&socket).ok();
    let addr = format!("unix:{}", socket.display());

    let engine = Engine::start(
        store,
        CellMemo::with_capacity(CELL_MEMO_CAPACITY),
        workers.max(2),
        16,
    );
    let server = Server::bind(&addr, engine).map_err(|e| e.to_string())?;
    let handle = std::thread::spawn(move || server.run());

    let (size, limit) = if quick {
        ("tiny", 20_000u64)
    } else {
        ("small", 400_000u64)
    };
    let job_json = format!(
        r#"{{"kind":"experiment","title":"smoke","workloads":["sha","qsort"],
            "size":"{size}","limit":{limit},"evaluators":["model","sim"]}}"#
    );
    let value: Value = serde_json::from_str(&job_json).map_err(|e| e.to_string())?;
    let job = JobSpec::from_value(&value)?;

    let outcome = (|| -> Result<(), String> {
        let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
        let first = client.submit(&job).map_err(|e| e.to_string())?;
        if first.deduped {
            return Err("first submission reported deduped".into());
        }
        let first_text = client.result_text(first.id).map_err(|e| e.to_string())?;

        let second = client.submit(&job).map_err(|e| e.to_string())?;
        if !second.deduped {
            return Err("second identical submission was not coalesced".into());
        }
        if second.id != first.id {
            return Err("coalesced submission returned a different id".into());
        }
        let second_text = client.result_text(second.id).map_err(|e| e.to_string())?;
        if first_text != second_text {
            return Err("repeated submission returned different bytes".into());
        }

        let stats = client.stats().map_err(|e| e.to_string())?;
        let executions = stats
            .get("store")
            .and_then(|s| s.get("functional_executions"))
            .and_then(|v| u64::from_value(v).ok())
            .ok_or("stats reply lacks store.functional_executions")?;
        if executions > 2 {
            return Err(format!(
                "expected one functional execution per workload, counted {executions}"
            ));
        }
        let metrics = client.metrics().map_err(|e| e.to_string())?;
        let completed = metrics
            .get("counters")
            .and_then(|c| c.get("jobs.completed"))
            .and_then(|v| u64::from_value(v).ok())
            .ok_or("metrics reply lacks counters jobs.completed")?;
        if completed != 1 {
            return Err(format!(
                "expected 1 completed job in metrics, saw {completed}"
            ));
        }
        if let Some(path) = metrics_out {
            let path = std::path::Path::new(path);
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
            }
            let pretty = serde_json::to_string_pretty(&metrics).map_err(|e| e.to_string())?;
            std::fs::write(path, pretty).map_err(|e| e.to_string())?;
        }
        info(
            "smoke",
            "OK",
            &[
                ("id", first.id.to_string()),
                ("report_bytes", first_text.len().to_string()),
                ("executions", executions.to_string()),
            ],
        );
        // Keep the one-line stdout summary CI logs grep for.
        println!(
            "smoke OK: id={} deduped resubmit, {} report bytes, {executions} executions",
            first.id,
            first_text.len()
        );
        client.shutdown().map_err(|e| e.to_string())
    })();

    if outcome.is_err() {
        // Unblock the accept loop so the join below terminates.
        if let Ok(mut client) = Client::connect(&addr) {
            client.shutdown().ok();
        }
    }
    let served = handle
        .join()
        .map_err(|_| "server thread panicked".to_string())?;
    std::fs::remove_file(&socket).ok();
    outcome?;
    served.map_err(|e| format!("server error: {e}"))
}
