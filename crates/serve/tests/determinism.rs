//! Served results are byte-identical whatever the server's configuration:
//! the same storm of overlapping jobs yields the same result texts across
//! worker counts, with profile capture on or off, with latency timing on
//! or off, and after a restart over the same persistent store.
//!
//! This is its own test binary because it toggles the process-global
//! `mim_obs::set_timing`, which would race with other tests' timings.

use std::collections::BTreeMap;
use std::thread;

use mim_serve::{CellMemo, Client, Engine, JobSpec, Server, WorkloadStore};
use serde::Value;

/// Client threads driving the server concurrently.
const CLIENTS: usize = 3;
/// Submissions per client thread.
const REQUESTS_PER_CLIENT: usize = 4;

/// Overlapping jobs over two Tiny workloads: three width subsets of the
/// default machine share most of their cells, and two title variants per
/// subset defeat job-level dedup so the cell memo does the sharing.
fn job_pool() -> Vec<JobSpec> {
    let mut pool = Vec::new();
    for widths in ["[1,2]", "[2,4]", "[1,4]"] {
        for variant in 0..2 {
            let json = format!(
                r#"{{"kind":"experiment","title":"{widths}-{variant}","workloads":["sha","qsort"],"size":"tiny","limit":20000,"evaluators":["model","sim"],"space":{{"preset":"default","widths":{widths}}}}}"#
            );
            let value: Value = serde_json::from_str(&json).expect("job JSON parses");
            pool.push(JobSpec::from_value(&value).expect("job spec is valid"));
        }
    }
    pool
}

/// One storm's result texts by job, and the engine's functional
/// executions.
struct Storm {
    results: BTreeMap<usize, String>,
    executions: u64,
}

/// Boots a server, fires the storm from concurrent clients, collects each
/// job's result text (asserting every fetch of one job reads the same
/// bytes), and shuts down.
fn storm(store: WorkloadStore, workers: usize, profile_capture: bool) -> Storm {
    let engine = Engine::start(store, CellMemo::new(), workers, 64);
    engine.set_profile_capture(profile_capture);
    let server = Server::bind("tcp:127.0.0.1:0", engine.clone()).expect("bind");
    let addr = server.addr().to_connect_string();
    let handle = thread::spawn(move || server.run());

    let drivers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr.clone();
            thread::spawn(move || {
                let pool = job_pool();
                let mut client = Client::connect(&addr).expect("client connects");
                (0..REQUESTS_PER_CLIENT)
                    .map(|r| {
                        let job = (c + r) % pool.len();
                        let submitted = client.submit(&pool[job]).expect("submit accepted");
                        (job, client.result_text(submitted.id).expect("result"))
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut results = BTreeMap::new();
    for driver in drivers {
        for (job, text) in driver.join().expect("client thread") {
            if let Some(previous) = results.get(&job) {
                assert_eq!(
                    previous, &text,
                    "job {job}: divergent bytes within one storm"
                );
            }
            results.insert(job, text);
        }
    }
    let executions = match engine
        .stats()
        .get("store")
        .and_then(|s| s.get("functional_executions"))
    {
        Some(Value::UInt(n)) => *n,
        other => panic!("functional_executions missing: {other:?}"),
    };

    let mut closer = Client::connect(&addr).expect("closer connects");
    closer.shutdown().expect("shutdown accepted");
    drop(closer);
    handle.join().expect("server thread").expect("server ran");
    Storm {
        results,
        executions,
    }
}

#[test]
fn results_are_byte_identical_across_server_configurations() {
    let store_dir =
        std::env::temp_dir().join(format!("mim-serve-determinism-{}", std::process::id()));
    std::fs::remove_dir_all(&store_dir).ok();
    let persistent = || WorkloadStore::persistent(&store_dir).expect("open store");

    let baseline = storm(persistent(), 2, true);
    assert_eq!(
        baseline.results.len(),
        job_pool().len(),
        "the storm covers every job"
    );
    assert_eq!(baseline.executions, 2, "one recording per workload");

    let restarted = storm(persistent(), 2, true);
    assert_eq!(
        restarted.executions, 0,
        "a restart over the same store executes nothing"
    );
    assert_eq!(
        baseline.results, restarted.results,
        "across a restart over the same store"
    );
    std::fs::remove_dir_all(&store_dir).ok();

    let serial = storm(WorkloadStore::new(), 1, true);
    assert_eq!(baseline.results, serial.results, "across worker counts");

    let uncaptured = storm(WorkloadStore::new(), 2, false);
    assert_eq!(
        baseline.results, uncaptured.results,
        "with profile capture off vs on"
    );

    mim_obs::set_timing(false);
    let untimed = storm(WorkloadStore::new(), 2, true);
    mim_obs::set_timing(true);
    assert_eq!(baseline.results, untimed.results, "with timing off vs on");
    assert_eq!(
        untimed.executions, 2,
        "counters keep working with timing off"
    );
}
