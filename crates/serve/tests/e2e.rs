//! End-to-end protocol tests: a real server on a real socket, driven by
//! the blocking [`Client`], over both transports.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use mim_serve::{CellMemo, Client, JobSpec, Server, WorkloadStore};
use serde::Value;

use mim_serve::Engine;

/// Parses a job spec from its JSON line.
fn job(json: &str) -> JobSpec {
    let value: Value = serde_json::from_str(json).expect("job JSON parses");
    JobSpec::from_value(&value).expect("job spec is valid")
}

/// A tiny experiment the tests submit over and over.
fn quick_experiment(title: &str) -> JobSpec {
    job(&format!(
        r#"{{"kind":"experiment","title":"{title}","workloads":["sha"],"size":"tiny","limit":20000,"evaluators":["model"]}}"#
    ))
}

/// Boots a server on `addr`, runs `drive` against it, shuts down, joins.
fn with_server(addr: &str, drive: impl FnOnce(&str, &Engine)) {
    let engine = Engine::start(WorkloadStore::new(), CellMemo::new(), 2, 32);
    let server = Server::bind(addr, engine.clone()).expect("bind");
    let connect = server.addr().to_connect_string();
    let handle = thread::spawn(move || server.run());
    drive(&connect, &engine);
    let mut closer = Client::connect(&connect).expect("connect for shutdown");
    closer.shutdown().expect("shutdown accepted");
    drop(closer);
    handle.join().expect("server thread").expect("server ran");
}

#[test]
fn tcp_round_trip_submits_and_fetches() {
    with_server("tcp:127.0.0.1:0", |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        let submitted = client.submit(&quick_experiment("tcp")).expect("submit");
        assert!(!submitted.deduped, "fresh job must not report deduped");
        let state = client.status(submitted.id).expect("status");
        assert!(
            ["queued", "running", "done"].contains(&state.as_str()),
            "unexpected state `{state}`"
        );
        let report = client.result(submitted.id).expect("result");
        let rows = report.get("rows").and_then(Value::as_array).expect("rows");
        assert!(!rows.is_empty(), "experiment report has rows");
        assert_eq!(client.status(submitted.id).expect("status"), "done");
    });
}

#[test]
fn unix_round_trip_submits_and_fetches() {
    let socket = std::env::temp_dir().join(format!("mim-serve-e2e-{}.sock", std::process::id()));
    std::fs::remove_file(&socket).ok();
    with_server(&format!("unix:{}", socket.display()), |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        let submitted = client.submit(&quick_experiment("unix")).expect("submit");
        let report = client.result(submitted.id).expect("result");
        assert!(report.get("rows").is_some());
    });
    assert!(!socket.exists(), "server removes its socket file on exit");
}

#[test]
fn identical_submissions_coalesce_across_connections() {
    with_server("tcp:127.0.0.1:0", |addr, _| {
        let spec = quick_experiment("dedup");
        let mut a = Client::connect(addr).expect("connect a");
        let mut b = Client::connect(addr).expect("connect b");
        let first = a.submit(&spec).expect("submit a");
        let second = b.submit(&spec).expect("submit b");
        assert_eq!(first.id, second.id, "identical jobs share one id");
        assert!(second.deduped, "second submission coalesces");
        let text_a = a.result_text(first.id).expect("result a");
        let text_b = b.result_text(second.id).expect("result b");
        assert_eq!(text_a, text_b, "both clients read identical bytes");
    });
}

#[test]
fn overlapping_sweeps_share_cells_and_executions() {
    with_server("tcp:127.0.0.1:0", |addr, engine| {
        // Two different titles → different job specs, but identical
        // cells underneath: the second job should hit the memo everywhere.
        let mut client = Client::connect(addr).expect("connect");
        let first = client.submit(&quick_experiment("sweep-a")).expect("a");
        let second = client.submit(&quick_experiment("sweep-b")).expect("b");
        assert_ne!(first.id, second.id, "different titles are different jobs");
        let text_a = client.result_text(first.id).expect("result a");
        let text_b = client.result_text(second.id).expect("result b");
        // Titles differ inside the payload, so compare the rows only.
        let a: Value = serde_json::from_str(&text_a).expect("a parses");
        let b: Value = serde_json::from_str(&text_b).expect("b parses");
        assert_eq!(a.get("rows"), b.get("rows"), "identical rows");

        let stats = engine.stats();
        let cells = stats.get("cells").expect("cells stats");
        let hits = stat(cells, "hits");
        let misses = stat(cells, "misses");
        assert!(
            hits >= misses,
            "second sweep hits the memo ({hits} hits, {misses} misses)"
        );
        let store = stats.get("store").expect("store stats");
        assert_eq!(
            stat(store, "functional_executions"),
            1,
            "one workload recorded once, everything else replayed"
        );
    });
}

#[test]
fn exploration_and_subset_jobs_run_end_to_end() {
    with_server("tcp:127.0.0.1:0", |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        let explore = job(
            r#"{"kind":"exploration","title":"e2e explore","workloads":["sha"],"size":"tiny","limit":20000,"objectives":["cpi"],"strategy":{"name":"greedy","seed":7,"restarts":1,"budget":40}}"#,
        );
        let submitted = client.submit(&explore).expect("submit exploration");
        let report = client.result(submitted.id).expect("exploration result");
        assert!(report.get("best").is_some() || report.get("frontier").is_some());

        let subset = job(
            r#"{"kind":"subset","title":"e2e subset","workloads":["sha","qsort"],"size":"tiny","limit":20000,"selection":["sha"]}"#,
        );
        let submitted = client.submit(&subset).expect("submit subset");
        let report = client.result(submitted.id).expect("subset result");
        assert!(report.as_object().is_some());
    });
}

#[test]
fn bad_requests_get_typed_errors_not_disconnects() {
    with_server("tcp:127.0.0.1:0", |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        // Unknown id → rejected, connection stays usable.
        let err = client.result(99_999).expect_err("unknown id");
        assert!(err.to_string().contains("unknown"), "got `{err}`");
        // Bad job spec → rejected at submit time.
        let value: Value = serde_json::from_str(
            r#"{"kind":"experiment","workloads":["nope"],"evaluators":["model"]}"#,
        )
        .expect("parses as JSON");
        let err = JobSpec::from_value(&value).expect_err("unknown workload rejected");
        assert!(err.contains("unknown workload"));
        // The connection still answers after errors.
        let submitted = client
            .submit(&quick_experiment("after-error"))
            .expect("submit");
        assert!(client.result(submitted.id).is_ok());
    });
}

#[test]
fn metrics_command_scrapes_live_registries() {
    with_server("tcp:127.0.0.1:0", |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        let submitted = client.submit(&quick_experiment("metrics")).expect("submit");
        client.result(submitted.id).expect("result");

        let metrics = client.metrics().expect("metrics");
        let counters = metrics.get("counters").expect("counters section");
        assert_eq!(stat(counters, "jobs.submitted"), 1);
        assert_eq!(stat(counters, "jobs.completed"), 1);
        assert_eq!(
            stat(counters, "store.executions"),
            1,
            "the store's one functional execution shows in the merged snapshot"
        );
        // The block engine's compile/dispatch telemetry reaches the same
        // merged snapshot: the job's one recording compiled blocks and hit
        // the inline successor cache.
        assert!(
            stat(counters, "block.compiled") > 0,
            "recording should compile basic blocks"
        );
        assert!(
            stat(counters, "block.cache_hits") > 0,
            "steady-state dispatch should hit the block cache"
        );

        // The engine's job-stage histograms are named in the snapshot even
        // before quantiles matter.
        let histograms = metrics.get("histograms").expect("histograms section");
        for name in [
            "jobs.queue_wait_ns",
            "jobs.run_ns",
            "jobs.total_ns",
            "block.compile_ns",
        ] {
            assert!(histograms.get(name).is_some(), "missing histogram {name}");
        }

        // The same snapshot in Prometheus exposition form.
        let text = client.metrics_prometheus().expect("prometheus metrics");
        assert!(text.contains("# TYPE jobs_completed counter"), "{text}");
        assert!(text.contains("jobs_run_ns_bucket"), "{text}");

        // The stats payload gained a latency section fed by the same
        // registry.
        let stats = client.stats().expect("stats");
        let latency = stats.get("latency").expect("latency section");
        for stage in ["queue_wait_ns", "run_ns", "total_ns"] {
            let summary = latency.get(stage).expect(stage);
            assert!(summary.get("p50_ns").is_some());
            assert!(summary.get("p99_ns").is_some());
        }
    });
}

#[test]
fn profile_command_returns_the_job_span_tree() {
    with_server("tcp:127.0.0.1:0", |addr, _| {
        let mut client = Client::connect(addr).expect("connect");
        // Unknown ids are rejected without dropping the connection.
        let err = client.profile(4242).expect_err("unknown id");
        assert!(err.to_string().contains("unknown"), "got `{err}`");
        let submitted = client.submit(&quick_experiment("profile")).expect("submit");
        client.result(submitted.id).expect("result");
        let profile = client.profile(submitted.id).expect("profile");
        let spans = profile
            .get("spans")
            .and_then(Value::as_array)
            .expect("spans array");
        assert_eq!(spans.len(), 1, "one top-level span");
        assert_eq!(spans[0].get("name"), Some(&Value::Str("job.run".into())));
        // The job's experiment spans nest under job.run, and the cell
        // section attributes cost to the one (sha, model) cell.
        let children = spans[0]
            .get("children")
            .and_then(Value::as_array)
            .expect("children");
        assert!(
            children
                .iter()
                .any(|c| c.get("name") == Some(&Value::Str("experiment.run".into()))),
            "experiment.run nests under job.run: {children:?}"
        );
        let cells = profile.get("cells").expect("cells section");
        let by_workload = cells
            .get("by_workload")
            .and_then(Value::as_array)
            .expect("workload rows");
        assert_eq!(by_workload.len(), 1);
        assert_eq!(by_workload[0].get("value"), Some(&Value::Str("sha".into())));
        let by_evaluator = cells
            .get("by_evaluator")
            .and_then(Value::as_array)
            .expect("evaluator rows");
        assert_eq!(
            by_evaluator[0].get("value"),
            Some(&Value::Str("model".into()))
        );
    });
}

#[test]
fn watch_streams_metric_deltas() {
    with_server("tcp:127.0.0.1:0", |addr, _| {
        let mut watcher = Client::connect(addr).expect("connect watcher");
        let mut driver = Client::connect(addr).expect("connect driver");
        // Run a job concurrently with the stream so the deltas have
        // something to show.
        let handle = thread::spawn(move || {
            let submitted = driver.submit(&quick_experiment("watched")).expect("submit");
            driver.result(submitted.id).expect("result");
        });
        let deltas = watcher.watch(30, 8).expect("watch streams");
        handle.join().expect("driver thread");
        assert_eq!(deltas.len(), 8, "one delta per requested tick");
        // The job completed during (or before) the stream; summed deltas
        // cover it. Gauges carry current values, so queue depth is sane.
        let completed: u64 = deltas
            .iter()
            .map(|d| d.counter("jobs.completed").unwrap_or(0))
            .sum();
        assert!(completed <= 1, "one job ran, deltas never double-count");
        // The connection returns to request/response mode afterwards.
        let metrics = watcher.metrics().expect("metrics after watch");
        assert_eq!(
            stat(metrics.get("counters").expect("counters"), "jobs.completed"),
            1
        );
    });
}

#[test]
fn hostile_lines_get_typed_errors_and_the_connection_survives() {
    with_server("tcp:127.0.0.1:0", |addr, _| {
        let stream =
            TcpStream::connect(addr.strip_prefix("tcp:").expect("tcp address")).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut writer = stream;
        let mut exchange = |line: &[u8]| -> Value {
            writer.write_all(line).expect("send");
            writer.write_all(b"\n").expect("send newline");
            let mut response = String::new();
            reader.read_line(&mut response).expect("read response");
            serde_json::from_str(&response).expect("response is JSON")
        };
        let error = |response: &Value| -> String {
            assert_eq!(
                response.get("ok"),
                Some(&Value::Bool(false)),
                "{response:?}"
            );
            match response.get("error") {
                Some(Value::Str(message)) => message.clone(),
                other => panic!("error field missing: {other:?}"),
            }
        };

        // A line past the server's 1 MiB limit is answered, not buffered.
        let oversized = exchange(&vec![b'a'; 2 << 20]);
        assert!(error(&oversized).contains("exceeds"), "{oversized:?}");
        // Nesting past the parser's depth limit.
        let deep = exchange(&vec![b'['; 200_000]);
        assert!(error(&deep).contains("malformed JSON"), "{deep:?}");
        // Bytes that are not UTF-8.
        let garbled = exchange(b"\xff\xfe{\"cmd\":\"stats\"}");
        assert!(error(&garbled).contains("UTF-8"), "{garbled:?}");

        // The same connection still serves requests.
        let stats = exchange(br#"{"cmd":"stats"}"#);
        assert_eq!(stats.get("ok"), Some(&Value::Bool(true)), "{stats:?}");
        assert!(stats.get("stats").is_some());
    });
}

#[test]
fn shutdown_returns_while_other_connections_are_open() {
    let engine = Engine::start(WorkloadStore::new(), CellMemo::new(), 1, 8);
    let server = Server::bind("tcp:127.0.0.1:0", engine).expect("bind");
    let addr = server.addr().to_connect_string();
    let hostport = addr.strip_prefix("tcp:").expect("tcp address").to_string();
    let (done, finished) = mpsc::channel();
    let handle = thread::spawn(move || done.send(server.run()));
    // A connection that never sends a byte, and one whose `watch` has its
    // first tick an hour away; the `stats` reply ahead of the watch shows
    // the server is serving that connection.
    let idle = TcpStream::connect(&hostport).expect("connect idle");
    let watcher = TcpStream::connect(&hostport).expect("connect watcher");
    let requests = concat!(
        r#"{"cmd":"stats"}"#,
        "\n",
        r#"{"cmd":"watch","interval_ms":3600000,"count":1}"#,
        "\n"
    );
    (&watcher)
        .write_all(requests.as_bytes())
        .expect("send stats and watch");
    let mut replies = BufReader::new(&watcher);
    let mut line = String::new();
    replies.read_line(&mut line).expect("stats reply");
    assert!(line.contains(r#""stats""#), "{line}");

    let mut closer = Client::connect(&addr).expect("connect closer");
    closer.shutdown().expect("shutdown accepted");
    finished
        .recv_timeout(Duration::from_secs(5))
        .expect("run() returns within 5 s of the shutdown reply")
        .expect("server ran");
    handle.join().expect("server thread").expect("result sent");
    // The watch ends with its error line or a closed connection, never
    // with a tick.
    line.clear();
    replies.read_line(&mut line).ok();
    assert!(!line.contains(r#""seq""#), "{line}");
    drop(idle);
}

/// Reads one numeric counter out of a stats sub-object.
fn stat(stats: &Value, key: &str) -> u64 {
    match stats.get(key) {
        Some(Value::UInt(u)) => *u,
        Some(Value::Int(i)) => *i as u64,
        other => panic!("stats `{key}` missing or non-numeric: {other:?}"),
    }
}
