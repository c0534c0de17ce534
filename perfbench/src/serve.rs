//! `serve_storm`: the request path users wait on. An in-process TCP
//! server over a two-worker engine, driven by one closed-loop client that
//! submits a job and fetches its report. Every job has a unique title,
//! so job dedup never fires; after set-up every cell is a memo hit.

use std::cell::RefCell;
use std::thread::JoinHandle;

use mim_runner::{CellStats, WorkloadStore};
use mim_serve::{protocol, CellMemo, Client, Engine, JobSpec, ServeError, Server};
use mim_workloads::Workload;
use serde::Value;

use crate::spans::span;
use crate::window::{check, run_ns, run_since, shuffled, Work};

/// Engine worker threads.
pub const WORKERS: usize = 2;
/// Jobs the client runs against one server before the server is
/// replaced, which bounds the engine's job table (it keeps every report).
pub const EPOCH_JOBS: u64 = 16;
/// Every job sweeps two Table-2 widths at this stride: 96 points / 16.
const STRIDE: usize = 16;
const REFERENCE_TITLE: &str = "storm-reference-title-000000000000";

/// One job class: a width subset and its reference report.
struct Class {
    widths: [u32; 2],
    reference: String,
    cells: u64,
    insts: u64,
}

struct Live {
    addr: String,
    handle: JoinHandle<Result<(), ServeError>>,
    client: Client,
    /// Jobs run on this server so far.
    jobs: u64,
}

pub struct Storm {
    seed: u64,
    kernels: Vec<String>,
    store: WorkloadStore,
    memo: CellMemo,
    classes: Vec<Class>,
    /// Seeded class order the client walks.
    order: Vec<usize>,
    live: RefCell<Option<Live>>,
}

impl Storm {
    /// Builds the job classes, computes each class's reference report on
    /// one thread (which also fills the cell memo), boots the server and
    /// warms the client's connection.
    pub fn setup(kernels: &[Workload], seed: u64) -> Result<Storm, String> {
        // Three overlapping width pairs along a seeded order of the four
        // Table-2 widths, e.g. {3,1}, {1,4}, {4,2}.
        let widths = shuffled(vec![1u32, 2, 3, 4], seed);
        let order = shuffled((0..48).map(|i| i % 3).collect(), seed ^ 0x5eed);
        let mut storm = Storm {
            seed,
            kernels: kernels.iter().map(|k| k.name().to_string()).collect(),
            store: WorkloadStore::new(),
            memo: CellMemo::new(),
            classes: Vec::new(),
            order,
            live: RefCell::new(None),
        };
        for pair in widths.windows(2).take(3) {
            let widths = [pair[0], pair[1]];
            let spec = storm.job(REFERENCE_TITLE, widths)?;
            let report = spec.execute(&storm.store, &storm.memo)?;
            let rows = report.get("rows").and_then(Value::as_array).unwrap_or(&[]);
            let insts = rows
                .iter()
                .filter_map(|r| match r.get("instructions") {
                    Some(Value::UInt(n)) => Some(*n),
                    Some(Value::Int(n)) => u64::try_from(*n).ok(),
                    _ => None,
                })
                .sum();
            storm.classes.push(Class {
                widths,
                reference: protocol::to_line(&report),
                cells: rows.len() as u64,
                insts,
            });
        }
        storm.op(u64::MAX)?;
        Ok(storm)
    }

    fn job(&self, title: &str, widths: [u32; 2]) -> Result<JobSpec, String> {
        let workloads: Vec<String> = self.kernels.iter().map(|k| format!("\"{k}\"")).collect();
        let text = format!(
            r#"{{"kind":"experiment","title":"{title}","workloads":[{}],"size":"tiny","evaluators":["model"],"energy":true,"space":{{"preset":"table2","widths":[{},{}]}},"stride":{STRIDE}}}"#,
            workloads.join(","),
            widths[0],
            widths[1]
        );
        let value: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        JobSpec::from_value(&value)
    }

    /// A title no other job of this run has, of the reference title's
    /// length.
    fn title(&self, n: u64) -> String {
        format!("storm-{:016x}-{:012}", self.seed, n % 1_000_000_000_000)
    }

    fn class_of(&self, n: u64) -> &Class {
        &self.classes[self.order[n as usize % self.order.len()]]
    }

    /// Replaces the running server, if any, with a fresh one sharing the
    /// store and cell memo, and connects the client to it.
    fn rotate(&self) -> Result<(), String> {
        let engine = Engine::start(self.store.clone(), self.memo.clone(), WORKERS, 64);
        let server = match Server::bind("tcp:127.0.0.1:0", engine.clone()) {
            Ok(server) => server,
            Err(e) => {
                engine.shutdown();
                return Err(e.to_string());
            }
        };
        let addr = server.addr().to_connect_string();
        let handle = std::thread::spawn(move || server.run());
        let client = Client::connect(&addr).map_err(|e| e.to_string())?;
        let old = self.live.replace(Some(Live {
            addr,
            handle,
            client,
            jobs: 0,
        }));
        if let Some(old) = old {
            stop(old);
        }
        Ok(())
    }

    /// One timed operation: submit a job, fetch its report, compare it
    /// with its class's reference. Every [`EPOCH_JOBS`] jobs the server
    /// is replaced first, outside the timed part.
    pub fn op(&self, n: u64) -> Result<Work, String> {
        let title = self.title(n);
        let class = self.class_of(n);
        let spec = self.job(&title, class.widths)?;
        if self
            .live
            .borrow()
            .as_ref()
            .is_none_or(|l| l.jobs >= EPOCH_JOBS)
        {
            self.rotate()?;
        }
        let mut slot = self.live.borrow_mut();
        let live = slot.as_mut().expect("a server is running");
        live.jobs += 1;
        let conn = &mut live.client;
        let started = run_ns();
        let submitted = {
            let _s = span("serve.submit");
            conn.submit(&spec).map_err(|e| e.to_string())?
        };
        let text = {
            let mut s = span("serve.result");
            let text = conn.result_text(submitted.id).map_err(|e| e.to_string())?;
            s.work(text.len() as u64);
            text
        };
        let latency = run_since(started);
        drop(slot);
        if submitted.deduped {
            return Err(format!("job `{title}` was deduplicated"));
        }
        check(
            "serve_storm report",
            &text,
            &class.reference.replacen(REFERENCE_TITLE, &title, 1),
        )?;
        Ok(Work {
            cells: class.cells,
            insts: class.insts,
            latency,
        })
    }

    /// Runs `n` jobs straight on the engine, without the socket: the
    /// engine's share of a round trip.
    pub fn engine_jobs(&self, n: u64) -> Result<(), String> {
        let engine = Engine::start(self.store.clone(), self.memo.clone(), WORKERS, 64);
        let outcome = (0..n).try_for_each(|i| {
            let class = self.class_of(i);
            let spec = self.job(&format!("engine-{}", self.title(i)), class.widths)?;
            let _s = span("serve.engine_job");
            let (id, _) = engine.submit(spec)?;
            engine.wait_result(id).map(drop)
        });
        engine.shutdown();
        outcome
    }

    pub fn memo_stats(&self) -> CellStats {
        self.memo.stats()
    }

    pub fn store(&self) -> &WorkloadStore {
        &self.store
    }

    /// The reference response line of every class, as the server sends
    /// it, for the decode probes.
    pub fn outputs(&self) -> Vec<String> {
        self.classes
            .iter()
            .map(|c| format!("{{\"ok\":true,\"id\":1,\"result\":{}}}", c.reference))
            .collect()
    }

    /// Does the client's own work on every class's response `rounds`
    /// times, as `Client::result_text` does it: decode the line, encode
    /// the report. The client's share of a round trip.
    pub fn client_decodes(&self, rounds: usize) -> Result<(), String> {
        let lines = self.outputs();
        for _ in 0..rounds {
            for line in &lines {
                let mut s = span("serve.decode");
                let value: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
                let report = value.get("result").ok_or("response has no result")?;
                s.work(protocol::to_line(report).len() as u64);
            }
        }
        Ok(())
    }
}

/// Shuts a server down and waits for it.
fn stop(live: Live) {
    drop(live.client);
    if let Ok(mut client) = Client::connect(&live.addr) {
        client.shutdown().ok();
    }
    live.handle.join().ok();
}

impl Drop for Storm {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            stop(live);
        }
    }
}
