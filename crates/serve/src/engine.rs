//! The job engine: a bounded FIFO queue drained by a fixed worker pool,
//! with job-level dedup in front and cell-level coalescing underneath.
//!
//! Deduplication happens at three granularities, so "hundreds of
//! concurrent overlapping requests" collapse to the minimal computation:
//!
//! 1. **jobs** — submissions are keyed by their parsed [`JobSpec`], so
//!    two that differ only in which defaults they spelled out are the
//!    same key; a spec equal to one already queued, running, or
//!    completed returns the existing job id instead of enqueueing;
//! 2. **grid cells** — distinct-but-overlapping sweeps share one
//!    [`CellMemo`], so a (workload, size, machine, evaluator) cell is
//!    evaluated once no matter how many jobs touch it, with in-flight
//!    coalescing batching concurrent requests for the same cell;
//! 3. **workload artifacts** — recordings and profiles live in the shared
//!    (optionally persistent) [`WorkloadStore`], so even disjoint sweeps
//!    of the same workloads never re-execute anything.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use mim_obs::{
    clock, with_thread_sink, Counter, Gauge, Histogram, HistogramSnapshot, ProfileSink, Registry,
    Snapshot, Span,
};
use mim_runner::{CellMemo, WorkloadStore};
use serde::{Serialize, Value};

use crate::protocol::to_line;
use crate::spec::JobSpec;

/// Lifecycle of one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; the report is available.
    Done,
    /// Finished with an error.
    Failed,
}

impl JobStatus {
    /// Protocol label (`queued`/`running`/`done`/`failed`).
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }
}

/// One job's state. A finished job keeps its report and its wall-clock
/// span profile (captured when profile capture is on) as compact JSON
/// text, encoded once by the worker and shared by every later fetch.
enum JobRecord {
    Queued,
    Running,
    Done {
        report: Arc<str>,
        profile: Option<Arc<str>>,
    },
    Failed {
        error: String,
        profile: Option<Arc<str>>,
    },
}

impl JobRecord {
    fn status(&self) -> JobStatus {
        match self {
            JobRecord::Queued => JobStatus::Queued,
            JobRecord::Running => JobStatus::Running,
            JobRecord::Done { .. } => JobStatus::Done,
            JobRecord::Failed { .. } => JobStatus::Failed,
        }
    }
}

/// A queued job: id, spec, and (when timing is on) its admission
/// timestamp, so the worker that pops it can attribute the queue wait.
struct QueuedJob {
    id: u64,
    spec: JobSpec,
    submitted_at: Option<Instant>,
}

/// The engine's per-job lifecycle instruments, resolved once against the
/// engine's [`Registry`]. The counters back the `jobs` section of the
/// `stats` payload (one source of truth), and the histograms carve a
/// job's wall time into the submitted→queued→running→done stages.
struct EngineInstruments {
    submitted: Counter,
    deduped: Counter,
    completed: Counter,
    failed: Counter,
    /// Jobs currently executing on a worker (`jobs.running`).
    running: Gauge,
    /// Jobs admitted but not yet picked up (`jobs.queue_depth`).
    queue_depth: Gauge,
    /// Admission → worker pickup (`jobs.queue_wait_ns`).
    queue_wait_ns: Histogram,
    /// Worker pickup → completion (`jobs.run_ns`).
    run_ns: Histogram,
    /// Admission → completion (`jobs.total_ns`).
    total_ns: Histogram,
}

impl EngineInstruments {
    fn new(registry: &Registry) -> EngineInstruments {
        EngineInstruments {
            submitted: registry.counter("jobs.submitted"),
            deduped: registry.counter("jobs.deduped"),
            completed: registry.counter("jobs.completed"),
            failed: registry.counter("jobs.failed"),
            running: registry.gauge("jobs.running"),
            queue_depth: registry.gauge("jobs.queue_depth"),
            queue_wait_ns: registry.histogram("jobs.queue_wait_ns"),
            run_ns: registry.histogram("jobs.run_ns"),
            total_ns: registry.histogram("jobs.total_ns"),
        }
    }
}

/// Everything submission, workers and readers coordinate on, behind one
/// lock.
#[derive(Default)]
struct Jobs {
    /// Admitted jobs waiting for a worker, oldest first.
    queue: VecDeque<QueuedJob>,
    records: HashMap<u64, JobRecord>,
    /// Job-level dedup: the latest job of each spec.
    dedup: HashMap<JobSpec, u64>,
    /// The most recently assigned job id (ids start at 1).
    last_id: u64,
}

struct EngineInner {
    store: WorkloadStore,
    cells: CellMemo,
    queue_capacity: usize,
    jobs: Mutex<Jobs>,
    /// Signalled when a job is queued and when shutdown begins.
    queue_ready: Condvar,
    /// Signalled whenever a job record changes.
    job_changed: Condvar,
    stop: AtomicBool,
    /// Whether workers wrap job execution in a per-job [`ProfileSink`]
    /// (the protocol's `profile` command). On by default.
    profile_capture: AtomicBool,
    registry: Registry,
    m: EngineInstruments,
}

/// A running evaluation engine: `workers` threads draining a FIFO queue
/// of [`JobSpec`]s, sharing one [`WorkloadStore`] and one [`CellMemo`].
/// Cheaply cloneable; every connection handler holds a clone.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Engine {
    /// Starts `workers` worker threads (minimum 1) over a queue holding
    /// at most `queue_capacity` waiting jobs (minimum 1).
    pub fn start(
        store: WorkloadStore,
        cells: CellMemo,
        workers: usize,
        queue_capacity: usize,
    ) -> Engine {
        let registry = Registry::new();
        let inner = Arc::new(EngineInner {
            store,
            cells,
            queue_capacity: queue_capacity.max(1),
            jobs: Mutex::new(Jobs::default()),
            queue_ready: Condvar::new(),
            job_changed: Condvar::new(),
            stop: AtomicBool::new(false),
            profile_capture: AtomicBool::new(true),
            m: EngineInstruments::new(&registry),
            registry,
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Engine {
            inner,
            workers: Arc::new(Mutex::new(handles)),
        }
    }

    /// The engine's shared workload store.
    pub fn store(&self) -> &WorkloadStore {
        &self.inner.store
    }

    /// The engine's shared cell memo.
    pub fn cells(&self) -> &CellMemo {
        &self.inner.cells
    }

    /// The engine's own metrics registry — job lifecycle counters, queue
    /// gauges, and per-stage latency histograms. The store's and the cell
    /// memo's registries are separate; [`metrics`](Engine::metrics) merges
    /// all of them.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// One combined metrics snapshot across every registry the serving
    /// stack records into: the engine's job instruments, the
    /// [`WorkloadStore`]'s counters and latency histograms, the
    /// [`CellMemo`]'s, and the process-global registry (span and log
    /// counts) — the payload of the protocol's `metrics` command.
    pub fn metrics(&self) -> Snapshot {
        let mut snapshot = self.inner.registry.snapshot();
        snapshot.merge(self.inner.store.registry().snapshot());
        snapshot.merge(self.inner.cells.registry().snapshot());
        snapshot.merge(mim_obs::global().snapshot());
        snapshot
    }

    /// Submits a job. Returns `(id, deduped)` — `deduped` is true when an
    /// identical spec was already queued, running, or done, in which case
    /// `id` is that existing job's.
    ///
    /// # Errors
    ///
    /// Returns a message when the engine is shutting down or the queue is
    /// at capacity (the client should retry later).
    pub fn submit(&self, spec: JobSpec) -> Result<(u64, bool), String> {
        if self.inner.stop.load(Ordering::SeqCst) {
            return Err("server is shutting down".into());
        }
        let mut jobs = self.inner.lock();
        if let Some(&existing) = jobs.dedup.get(&spec) {
            // A failed attempt does not pin its spec: retry fresh.
            let alive = jobs
                .records
                .get(&existing)
                .is_some_and(|r| !matches!(r, JobRecord::Failed { .. }));
            if alive {
                self.inner.m.deduped.inc();
                return Ok((existing, true));
            }
        }
        if jobs.queue.len() >= self.inner.queue_capacity {
            return Err(format!(
                "queue is full ({} jobs waiting)",
                self.inner.queue_capacity
            ));
        }
        jobs.last_id += 1;
        let id = jobs.last_id;
        jobs.records.insert(id, JobRecord::Queued);
        jobs.dedup.insert(spec.clone(), id);
        jobs.queue.push_back(QueuedJob {
            id,
            spec,
            submitted_at: clock(),
        });
        self.inner.m.submitted.inc();
        self.inner.m.queue_depth.set(jobs.queue.len() as i64);
        self.inner.queue_ready.notify_one();
        Ok((id, false))
    }

    /// The job's current status, if the id is known.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        self.inner.lock().records.get(&id).map(JobRecord::status)
    }

    /// Blocks until the job finishes, then returns its report as compact
    /// JSON text (or its error message).
    ///
    /// # Errors
    ///
    /// Returns `Err(message)` for unknown ids and failed jobs.
    pub fn wait_result(&self, id: u64) -> Result<Arc<str>, String> {
        let mut jobs = self.inner.lock();
        loop {
            match jobs.records.get(&id) {
                None => return Err(format!("unknown job id {id}")),
                Some(JobRecord::Done { report, .. }) => return Ok(Arc::clone(report)),
                Some(JobRecord::Failed { error, .. }) => return Err(error.clone()),
                Some(JobRecord::Queued | JobRecord::Running) => {
                    jobs = self
                        .inner
                        .job_changed
                        .wait(jobs)
                        .expect("job table poisoned");
                }
            }
        }
    }

    /// Enables or disables per-job profile capture. When enabled (the
    /// default), each worker runs its job under a job-private
    /// [`ProfileSink`], and the resulting span tree plus cell-level cost
    /// breakdowns are kept on the job record for the protocol's `profile`
    /// command. Disabling removes the capture entirely from the execution
    /// path (no sink is installed), which is what the throughput bench
    /// compares against.
    pub fn set_profile_capture(&self, capture: bool) {
        self.inner.profile_capture.store(capture, Ordering::SeqCst);
    }

    /// The wall-clock profile of a finished job, as compact JSON text: a
    /// deterministic-shape object `{"total_ns":…,"spans":[…],"cells":{…}}`
    /// whose span tree aggregates the job's `job.run`/`experiment.*` spans
    /// and whose `cells` section breaks `experiment.cell` cost down by
    /// workload and by evaluator.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown ids, jobs that have not finished
    /// yet, and jobs that ran while capture was disabled.
    pub fn profile(&self, id: u64) -> Result<Arc<str>, String> {
        match self.inner.lock().records.get(&id) {
            None => Err(format!("unknown job id {id}")),
            Some(JobRecord::Queued | JobRecord::Running) => {
                Err(format!("job {id} has not finished yet"))
            }
            Some(JobRecord::Done { profile, .. } | JobRecord::Failed { profile, .. }) => profile
                .clone()
                .ok_or_else(|| format!("job {id} has no profile (capture was disabled)")),
        }
    }

    /// A point-in-time stats object: store counters, cell-memo counters,
    /// job accounting, and per-stage latency summaries — the payload of
    /// the protocol's `stats` reply. The counters are read from the same
    /// registries [`metrics`](Engine::metrics) snapshots.
    pub fn stats(&self) -> Value {
        let queue_depth = self.inner.lock().queue.len();
        let m = &self.inner.m;
        let jobs = Value::Object(vec![
            ("submitted".into(), m.submitted.get().to_value()),
            ("deduped".into(), m.deduped.get().to_value()),
            ("completed".into(), m.completed.get().to_value()),
            ("failed".into(), m.failed.get().to_value()),
            ("running".into(), (m.running.get().max(0) as u64).to_value()),
            ("queued".into(), queue_depth.to_value()),
        ]);
        let latency = Value::Object(vec![
            (
                "queue_wait_ns".into(),
                latency_summary(&m.queue_wait_ns.snapshot()),
            ),
            ("run_ns".into(), latency_summary(&m.run_ns.snapshot())),
            ("total_ns".into(), latency_summary(&m.total_ns.snapshot())),
        ]);
        Value::Object(vec![
            ("store".into(), self.inner.store.stats().to_value()),
            ("cells".into(), self.inner.cells.stats().to_value()),
            ("jobs".into(), jobs),
            ("latency".into(), latency),
        ])
    }

    /// Requests shutdown and joins the worker pool. Queued jobs are
    /// drained (each finishes as `Done`/`Failed`) before workers exit, so
    /// clients blocked in `wait_result` are always answered. Idempotent.
    pub fn shutdown(&self) {
        // Set under the lock so no worker can check the flag and then
        // miss the wake-up.
        let jobs = self.inner.lock();
        self.inner.stop.store(true, Ordering::SeqCst);
        drop(jobs);
        self.inner.queue_ready.notify_all();
        let handles: Vec<JoinHandle<()>> = self
            .workers
            .lock()
            .expect("worker handles poisoned")
            .drain(..)
            .collect();
        for handle in handles {
            handle.join().expect("worker thread panicked");
        }
    }
}

/// Count/mean/p50/p99 summary of one latency histogram, as the `stats`
/// payload's `latency` section reports it.
fn latency_summary(h: &HistogramSnapshot) -> Value {
    Value::Object(vec![
        ("count".into(), h.count.to_value()),
        ("mean_ns".into(), h.mean().to_value()),
        ("p50_ns".into(), h.quantile(0.5).to_value()),
        ("p99_ns".into(), h.quantile(0.99).to_value()),
    ])
}

impl EngineInner {
    fn lock(&self) -> MutexGuard<'_, Jobs> {
        self.jobs.lock().expect("job table poisoned")
    }
}

fn worker_loop(inner: &EngineInner) {
    loop {
        let QueuedJob {
            id,
            spec,
            submitted_at,
        } = {
            let mut jobs = inner.lock();
            loop {
                if let Some(job) = jobs.queue.pop_front() {
                    inner.m.queue_depth.set(jobs.queue.len() as i64);
                    jobs.records.insert(job.id, JobRecord::Running);
                    break job;
                }
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                jobs = inner.queue_ready.wait(jobs).expect("job table poisoned");
            }
        };
        inner.job_changed.notify_all();
        inner.m.queue_wait_ns.observe_since(submitted_at);
        inner.m.running.add(1);
        let run_started = clock();
        let run = || {
            let span = Span::enter("job.run").field_u64("id", id);
            // A panicking evaluator fails its job, never the worker pool.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                spec.execute(&inner.store, &inner.cells)
            }))
            .unwrap_or_else(|_| Err("job panicked".into()));
            drop(span);
            outcome
        };
        // Jobs execute single-threaded (see `JobSpec::execute`), so a
        // thread-local sink sees every span the job emits.
        let sink = inner
            .profile_capture
            .load(Ordering::SeqCst)
            .then(|| Arc::new(ProfileSink::new()));
        let outcome = match &sink {
            Some(sink) => with_thread_sink(Arc::clone(sink) as _, run),
            None => run(),
        };
        let profile = sink.map(|sink| Arc::from(to_line(&job_profile(&sink))));
        inner.m.run_ns.observe_since(run_started);
        inner.m.total_ns.observe_since(submitted_at);
        inner.m.running.add(-1);
        let record = match outcome {
            Ok(report) => {
                inner.m.completed.inc();
                JobRecord::Done {
                    report: Arc::from(to_line(&report)),
                    profile,
                }
            }
            Err(error) => {
                inner.m.failed.inc();
                JobRecord::Failed { error, profile }
            }
        };
        inner.lock().records.insert(id, record);
        inner.job_changed.notify_all();
    }
}

/// Builds a job's profile payload from its private sink: the aggregated
/// span tree (`total_ns`/`spans`, as [`ProfileSink::to_value`] shapes it)
/// plus cell-level cost breakdowns of the `experiment.cell` span grouped
/// by its `workload` and `evaluator` fields.
fn job_profile(sink: &ProfileSink) -> Value {
    let mut fields = match sink.to_value() {
        Value::Object(fields) => fields,
        other => vec![("spans".into(), other)],
    };
    fields.push((
        "cells".into(),
        Value::Object(vec![
            (
                "by_workload".into(),
                sink.breakdown("experiment.cell", "workload").to_value(),
            ),
            (
                "by_evaluator".into(),
                sink.breakdown("experiment.cell", "evaluator").to_value(),
            ),
        ]),
    ));
    Value::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_job(title: &str) -> JobSpec {
        let json = format!(
            r#"{{"kind":"experiment","title":"{title}","workloads":["sha"],
                "evaluators":["model"],"limit":20000}}"#
        );
        let value: Value = serde_json::from_str(&json).expect("job JSON parses");
        JobSpec::from_value(&value).expect("job parses")
    }

    #[test]
    fn runs_a_job_end_to_end() {
        let engine = Engine::start(WorkloadStore::new(), CellMemo::new(), 2, 8);
        let (id, deduped) = engine.submit(quick_job("e2e")).expect("submits");
        assert!(!deduped);
        let report = engine.wait_result(id).expect("job succeeds");
        let report: Value = serde_json::from_str(&report).expect("report is JSON");
        assert!(report.get("rows").is_some());
        assert_eq!(engine.status(id), Some(JobStatus::Done));
        engine.shutdown();
    }

    #[test]
    fn identical_jobs_dedup_to_one_id() {
        let engine = Engine::start(WorkloadStore::new(), CellMemo::new(), 1, 8);
        let (a, _) = engine.submit(quick_job("same")).expect("submits");
        let (b, deduped) = engine.submit(quick_job("same")).expect("submits");
        assert_eq!(a, b);
        assert!(deduped);
        let (c, deduped) = engine.submit(quick_job("different")).expect("submits");
        assert_ne!(a, c);
        assert!(!deduped);
        engine.wait_result(a).expect("first job succeeds");
        engine.wait_result(c).expect("second job succeeds");
        // The two distinct jobs share every grid cell.
        assert_eq!(engine.cells().stats().misses, 1);
        assert_eq!(engine.cells().stats().hits, 1);
        engine.shutdown();
    }

    #[test]
    fn queue_capacity_rejects_overflow() {
        // No workers consume: occupy the queue and overflow it.
        let engine = Engine::start(WorkloadStore::new(), CellMemo::new(), 1, 1);
        // Park the single worker on a first job.
        engine.submit(quick_job("a")).expect("fits");
        // Distinct specs so dedup does not absorb them: with the worker
        // busy or the queue occupied, the second extra submission must
        // overflow the capacity-1 queue.
        let b = engine.submit(quick_job("b"));
        let c = engine.submit(quick_job("c"));
        assert!(
            b.is_err() || c.is_err(),
            "capacity-1 queue admitted three jobs"
        );
        engine.shutdown();
    }

    #[test]
    fn jobs_capture_profiles_unless_disabled() {
        let engine = Engine::start(WorkloadStore::new(), CellMemo::new(), 1, 8);
        let (id, _) = engine.submit(quick_job("profiled")).expect("submits");
        engine.wait_result(id).expect("job succeeds");
        let profile = engine.profile(id).expect("profile captured");
        let profile: Value = serde_json::from_str(&profile).expect("profile is JSON");
        let spans = profile
            .get("spans")
            .and_then(Value::as_array)
            .expect("spans array");
        assert_eq!(spans.len(), 1, "one top-level span");
        assert_eq!(spans[0].get("name"), Some(&Value::Str("job.run".into())));
        let cells = profile.get("cells").expect("cells section");
        let by_workload = cells
            .get("by_workload")
            .and_then(Value::as_array)
            .expect("workload rows");
        assert_eq!(by_workload.len(), 1);
        assert_eq!(by_workload[0].get("value"), Some(&Value::Str("sha".into())));
        let by_eval = cells
            .get("by_evaluator")
            .and_then(Value::as_array)
            .expect("evaluator rows");
        assert_eq!(by_eval[0].get("value"), Some(&Value::Str("model".into())));
        // With capture off, execution installs no sink and later jobs
        // have no profile; unknown ids stay errors.
        engine.set_profile_capture(false);
        let (id2, _) = engine.submit(quick_job("unprofiled")).expect("submits");
        engine.wait_result(id2).expect("job succeeds");
        assert!(engine.profile(id2).is_err());
        assert!(engine.profile(999).is_err());
        engine.shutdown();
    }

    #[test]
    fn a_bounded_cell_memo_stays_at_its_bound() {
        // Two workloads over three widths: six cells per job.
        let wide_job = |title: &str| {
            let json = format!(
                r#"{{"kind":"experiment","title":"{title}","workloads":["sha","qsort"],
                    "evaluators":["model"],"limit":20000,
                    "space":{{"preset":"default","widths":[1,2,4]}}}}"#
            );
            JobSpec::from_value(&serde_json::from_str(&json).expect("job JSON parses"))
                .expect("job parses")
        };
        let bounded = Engine::start(WorkloadStore::new(), CellMemo::with_capacity(2), 1, 8);
        let unbounded = Engine::start(WorkloadStore::new(), CellMemo::new(), 1, 8);
        for title in ["first", "second"] {
            let report = |engine: &Engine| {
                let (id, _) = engine.submit(wide_job(title)).expect("submits");
                engine.wait_result(id).expect("job succeeds")
            };
            assert_eq!(report(&bounded), report(&unbounded), "{title} job");
            assert_eq!(bounded.cells().len(), 2, "after the {title} job");
        }
        assert_eq!(unbounded.cells().len(), 6);
        let stats = bounded.cells().stats();
        assert_eq!(stats.misses, 12, "every cell recomputes after eviction");
        assert_eq!(stats.evictions, 10);
        bounded.shutdown();
        unbounded.shutdown();
    }

    #[test]
    fn unknown_ids_are_errors() {
        let engine = Engine::start(WorkloadStore::new(), CellMemo::new(), 1, 4);
        assert!(engine.status(999).is_none());
        assert!(engine.wait_result(999).is_err());
        engine.shutdown();
    }
}
