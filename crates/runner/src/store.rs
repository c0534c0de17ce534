//! Shared memoization of programs, recorded traces, and one-pass profiles.
//!
//! The paper's framework (§2.1) separates machine-independent workload
//! behavior from machine-dependent timing; [`WorkloadStore`] is that
//! invariant made concrete for the whole stack. Per `(workload, size,
//! limit)` it memoizes the instantiated [`Program`], the **one** recorded
//! functional execution (a [`Trace`]), and the one-pass sweep
//! [`WorkloadProfile`] replayed from it — so every evaluator, every design
//! point, and every search strategy of an experiment shares a single
//! functional execution per workload. The store is cheaply cloneable (an
//! `Arc` handle) and thread-safe.
//!
//! Long-running servers add two more properties:
//!
//! * **persistence** — [`WorkloadStore::persistent`] attaches a
//!   content-addressed [`DiskStore`], so traces and profiles survive
//!   process restarts and are shared between processes pointed at the
//!   same directory;
//! * **boundedness** — [`WorkloadStore::with_capacity`] puts an LRU bound
//!   on the in-memory trace and profile maps, so memory stays O(capacity)
//!   no matter how many workloads stream through (evicted entries are
//!   transparently reloaded from disk or recomputed, preserving
//!   determinism).
//!
//! Programs, traces and profiles each sit in one crate-private memo
//! (`memo.rs`), so concurrent requests for the same missing entry
//! **coalesce**: one caller instantiates, records or profiles while the
//! rest wait, and a burst of identical requests costs one functional
//! execution. A failed or panicking computation releases its entry, and
//! the next request retries it. Disk hits and misses are counted by the
//! miss paths below; memory hits, evictions and the `store.<kind>.*_ns`
//! latencies by the memo.

use std::convert::Infallible;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, PoisonError};

use mim_bpred::PredictorConfig;
use mim_cache::{CacheConfig, HierarchyConfig};
use mim_isa::Program;
use mim_obs::{Counter, Registry};
use mim_profile::{SweepProfiler, WorkloadProfile};
use mim_trace::Trace;
use mim_workloads::WorkloadSize;
use serde::{Deserialize, Serialize};

use crate::disk::{DiskStore, StoreError};
use crate::memo::Memo;
use crate::result::EvalError;
use crate::spec::WorkloadSpec;

/// Identifies one profiling pass: workload, size, truncation, and the
/// sweep's candidate lists.
#[derive(Clone, PartialEq, Eq)]
struct ProfileKey {
    workload: String,
    size: WorkloadSize,
    limit: Option<u64>,
    sweep: Arc<Sweep>,
}

/// The candidate lists of one profiling sweep. Keys share one interned
/// copy per sweep, so a lookup clones no configuration.
#[derive(PartialEq, Eq)]
struct Sweep {
    hierarchy: HierarchyConfig,
    l2s: Vec<CacheConfig>,
    predictors: Vec<PredictorConfig>,
}

impl Sweep {
    fn is(
        &self,
        hierarchy: &HierarchyConfig,
        l2s: &[CacheConfig],
        predictors: &[PredictorConfig],
    ) -> bool {
        self.hierarchy == *hierarchy && self.l2s == l2s && self.predictors == predictors
    }
}

/// Hashes the workload, size and limit only. Keys that differ only in
/// their sweep are rare and `Eq` still tells them apart, while hashing
/// every cache and predictor config more than doubled the cost of a
/// profile lookup, which a design-space grid makes once per cell.
impl Hash for ProfileKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (&self.workload, self.size, self.limit).hash(state);
    }
}

type ProgramKey = (String, WorkloadSize);

/// Identifies one recording: workload, size, and instruction limit.
type TraceKey = (String, WorkloadSize, Option<u64>);

/// Cache hit/miss/persistence counters of a [`WorkloadStore`] — the
/// observability surface a long-running evaluation service reports
/// through its `stats` endpoint.
///
/// `*_hits` count requests served from memory, `*_disk_hits` requests
/// served by deserializing a persisted entry, and `*_misses` requests
/// that had to compute (record or profile) fresh.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Trace requests served from the in-memory map.
    pub trace_hits: u64,
    /// Trace requests served from the persistent store.
    pub trace_disk_hits: u64,
    /// Trace requests that recorded a fresh functional execution.
    pub trace_misses: u64,
    /// Profile requests served from the in-memory map.
    pub profile_hits: u64,
    /// Profile requests served from the persistent store.
    pub profile_disk_hits: u64,
    /// Profile requests that computed a fresh profiling pass.
    pub profile_misses: u64,
    /// In-memory entries evicted by the LRU capacity bound.
    pub evictions: u64,
    /// Bytes persisted to the attached [`DiskStore`] by this store.
    pub bytes_persisted: u64,
    /// Functional `Vm` executions this store has triggered.
    pub functional_executions: u64,
}

/// The store's instruments, resolved once against its [`Registry`] so the
/// hot paths touch pre-looked-up atomics, never the registry's name map.
///
/// The counters here **are** the [`StoreStats`] fields — `stats()` reads
/// them back out of the registry, so the `stats` endpoint of a server and
/// a `metrics` scrape of the same registry can never disagree.
struct StoreInstruments {
    /// Functional `Vm` executions this store has triggered (recordings and
    /// live profiling passes). Unlike `mim_isa::functional_executions`,
    /// this counter is scoped to the store, so record-once assertions are
    /// immune to unrelated VM activity elsewhere in the test process.
    executions: Counter,
    trace_hits: Counter,
    trace_disk_hits: Counter,
    trace_misses: Counter,
    profile_hits: Counter,
    profile_disk_hits: Counter,
    profile_misses: Counter,
    evictions: Counter,
}

impl StoreInstruments {
    fn new(registry: &Registry) -> StoreInstruments {
        StoreInstruments {
            executions: registry.counter("store.executions"),
            trace_hits: registry.counter("store.trace.hit"),
            trace_disk_hits: registry.counter("store.trace.disk_hit"),
            trace_misses: registry.counter("store.trace.miss"),
            profile_hits: registry.counter("store.profile.hit"),
            profile_disk_hits: registry.counter("store.profile.disk_hit"),
            profile_misses: registry.counter("store.profile.miss"),
            evictions: registry.counter("store.evictions"),
        }
    }
}

struct Inner {
    programs: Memo<ProgramKey, Arc<Program>>,
    traces: Memo<TraceKey, Arc<Trace>>,
    profiles: Memo<ProfileKey, Arc<WorkloadProfile>>,
    /// The sweep of the last profile request, reused while requests
    /// repeat it (a design-space grid asks once per cell).
    last_sweep: Mutex<Option<Arc<Sweep>>>,
    disk: Option<DiskStore>,
    registry: Registry,
    m: StoreInstruments,
}

impl Inner {
    fn with(capacity: Option<usize>, disk: Option<DiskStore>, registry: Registry) -> Inner {
        let m = StoreInstruments::new(&registry);
        Inner {
            programs: memo(&registry, "program", None),
            traces: memo(&registry, "trace", capacity),
            profiles: memo(&registry, "profile", capacity),
            last_sweep: Mutex::new(None),
            disk,
            m,
            registry,
        }
    }
}

/// A store memo counting its hits as `store.<kind>.hit` and timing them
/// and its misses as `store.<kind>.hit_ns` / `store.<kind>.miss_ns`.
fn memo<K: Clone + Eq + Hash, V: Clone>(
    registry: &Registry,
    kind: &str,
    capacity: Option<usize>,
) -> Memo<K, V> {
    Memo::new(
        capacity,
        registry.counter(&format!("store.{kind}.hit")),
        registry.counter("store.evictions"),
        registry.histogram(&format!("store.{kind}.hit_ns")),
        registry.histogram(&format!("store.{kind}.miss_ns")),
    )
}

impl Default for Inner {
    fn default() -> Inner {
        Inner::with(None, None, Registry::new())
    }
}

/// Thread-safe store of instantiated programs, recorded execution traces,
/// and sweep profiles — one functional execution per `(workload, size,
/// limit)`, replayed by every consumer.
///
/// Optionally bounded ([`with_capacity`](WorkloadStore::with_capacity))
/// and persistent ([`persistent`](WorkloadStore::persistent)); see the
/// module docs for the long-running-server properties.
///
/// # Example
///
/// ```
/// use mim_runner::{WorkloadSpec, WorkloadStore};
/// use mim_workloads::{mibench, WorkloadSize};
///
/// let store = WorkloadStore::new();
/// let spec = WorkloadSpec::from(mibench::sha());
/// let trace = store.trace(&spec, WorkloadSize::Tiny, None).unwrap();
/// // Second request replays the memoized recording — no re-execution.
/// let again = store.trace(&spec, WorkloadSize::Tiny, None).unwrap();
/// assert!(std::sync::Arc::ptr_eq(&trace, &again));
/// assert_eq!(store.stats().trace_hits, 1);
/// ```
#[derive(Clone, Default)]
pub struct WorkloadStore {
    inner: Arc<Inner>,
}

impl WorkloadStore {
    /// Creates an empty, unbounded, memory-only store.
    pub fn new() -> WorkloadStore {
        WorkloadStore::default()
    }

    /// Creates a store whose in-memory trace and profile maps each hold at
    /// most `capacity` entries, evicting least-recently-used entries
    /// beyond it (a capacity of 0 is treated as 1).
    ///
    /// Evicted entries are recomputed (or reloaded from the persistent
    /// store, when one is attached) on the next request, so results are
    /// byte-identical to an unbounded store — eviction trades wall-clock
    /// for bounded memory, never determinism. Program entries are not
    /// bounded: they are small and shared by every size variant.
    pub fn with_capacity(capacity: usize) -> WorkloadStore {
        WorkloadStore {
            inner: Arc::new(Inner::with(Some(capacity), None, Registry::new())),
        }
    }

    /// Creates a store backed by a persistent content-addressed
    /// [`DiskStore`] rooted at `dir`: every recorded trace and computed
    /// profile is written through, and misses consult the directory
    /// before computing — so repeated runs (and restarts) never
    /// re-execute anything previously seen.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] if the directory cannot be created.
    pub fn persistent(dir: impl Into<std::path::PathBuf>) -> Result<WorkloadStore, StoreError> {
        let registry = Registry::new();
        let disk = DiskStore::open_instrumented(dir, &registry)?;
        Ok(WorkloadStore {
            inner: Arc::new(Inner::with(None, Some(disk), registry)),
        })
    }

    /// [`persistent`](WorkloadStore::persistent) with an in-memory LRU
    /// bound ([`with_capacity`](WorkloadStore::with_capacity)) — the
    /// configuration a long-running server wants: bounded memory, with
    /// the disk store absorbing the working set.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] if the directory cannot be created.
    pub fn persistent_with_capacity(
        dir: impl Into<std::path::PathBuf>,
        capacity: usize,
    ) -> Result<WorkloadStore, StoreError> {
        let registry = Registry::new();
        let disk = DiskStore::open_instrumented(dir, &registry)?;
        Ok(WorkloadStore {
            inner: Arc::new(Inner::with(Some(capacity), Some(disk), registry)),
        })
    }

    /// The attached persistent store, if any.
    pub fn disk(&self) -> Option<&DiskStore> {
        self.inner.disk.as_ref()
    }

    /// The store's metrics registry: the [`StoreStats`] counters, the
    /// `store.program.hit` counter, and `store.*_ns` latency histograms
    /// (program/trace/profile hit and miss paths, persistent-store reads
    /// and writes). The registry is scoped to this store — cloned handles
    /// share it, unrelated stores do not.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Returns the workload's program at `size`, instantiating it on first
    /// use.
    pub fn program(&self, spec: &WorkloadSpec, size: WorkloadSize) -> Arc<Program> {
        let key = (spec.name().to_string(), size);
        self.inner
            .programs
            .get_or_try(key, |_| Ok::<_, Infallible>(spec.program_at(size)))
            .unwrap_or_else(|never| match never {})
    }

    /// Returns the workload's recorded execution trace (at most `limit`
    /// retired instructions), recording it on first use — the **single**
    /// functional execution every downstream timing pass replays.
    ///
    /// Misses consult the persistent store first (when attached), and
    /// concurrent requests for the same missing trace coalesce onto one
    /// recording.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] if the program faults while recording.
    pub fn trace(
        &self,
        spec: &WorkloadSpec,
        size: WorkloadSize,
        limit: Option<u64>,
    ) -> Result<Arc<Trace>, EvalError> {
        let key = (spec.name().to_string(), size, limit);
        self.inner
            .traces
            .get_or_try(key, |_| self.load_or_record_trace(spec, size, limit))
    }

    /// Disk-then-record miss path for [`trace`](WorkloadStore::trace).
    fn load_or_record_trace(
        &self,
        spec: &WorkloadSpec,
        size: WorkloadSize,
        limit: Option<u64>,
    ) -> Result<Arc<Trace>, EvalError> {
        let program = self.program(spec, size);
        if let Some(disk) = &self.inner.disk {
            // Damaged entries degrade to a recompute (and get rewritten);
            // persistence must never take an evaluation down.
            if let Ok(Some(trace)) = disk.get_trace(&program, limit) {
                self.inner.m.trace_disk_hits.inc();
                return Ok(Arc::new(trace));
            }
        }
        self.inner.m.trace_misses.inc();
        self.inner.m.executions.inc();
        let trace = Trace::record(&program, limit)
            .map_err(|e| EvalError::vm(spec.name(), "recorder", &e))?;
        if let Some(disk) = &self.inner.disk {
            disk.put_trace(&program, limit, &trace).ok();
        }
        Ok(Arc::new(trace))
    }

    /// Returns the workload's one-pass sweep profile for the given
    /// candidate lists, computing it on first use.
    ///
    /// When the store already holds the workload's recording (i.e. a
    /// repeat consumer like the simulator shares this store), the profile
    /// replays it; otherwise the profiler streams one live functional
    /// pass directly — same single execution, but no O(trace) memory for
    /// profile-only workloads. Misses consult the persistent store first
    /// (when attached), and concurrent requests for the same missing
    /// profile coalesce onto one pass.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] if the program faults while profiling.
    pub fn profile(
        &self,
        spec: &WorkloadSpec,
        size: WorkloadSize,
        limit: Option<u64>,
        hierarchy: &HierarchyConfig,
        l2s: &[CacheConfig],
        predictors: &[PredictorConfig],
    ) -> Result<Arc<WorkloadProfile>, EvalError> {
        let sweep = {
            let mut last = self
                .inner
                .last_sweep
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match &*last {
                Some(sweep) if sweep.is(hierarchy, l2s, predictors) => Arc::clone(sweep),
                _ => Arc::clone(last.insert(Arc::new(Sweep {
                    hierarchy: hierarchy.clone(),
                    l2s: l2s.to_vec(),
                    predictors: predictors.to_vec(),
                }))),
            }
        };
        let key = ProfileKey {
            workload: spec.name().to_string(),
            size,
            limit,
            sweep,
        };
        self.inner
            .profiles
            .get_or_try(key, |key| self.load_or_compute_profile(spec, key))
    }

    /// Disk-then-compute miss path for [`profile`](WorkloadStore::profile).
    fn load_or_compute_profile(
        &self,
        spec: &WorkloadSpec,
        key: &ProfileKey,
    ) -> Result<Arc<WorkloadProfile>, EvalError> {
        let program = self.program(spec, key.size);
        let sweep = &*key.sweep;
        if let Some(disk) = &self.inner.disk {
            if let Ok(Some(mut profile)) = disk.get_profile(
                &program,
                key.limit,
                &sweep.hierarchy,
                &sweep.l2s,
                &sweep.predictors,
            ) {
                // Entries are shared by program *content*; take this
                // program's name so loads are indistinguishable from
                // computes even across renamed copies.
                profile.name = program.name().to_string();
                self.inner.m.profile_disk_hits.inc();
                return Ok(Arc::new(profile));
            }
        }
        self.inner.m.profile_misses.inc();
        let profiler = SweepProfiler::new(
            sweep.hierarchy.clone(),
            sweep.l2s.clone(),
            sweep.predictors.clone(),
        );
        let trace_key = (spec.name().to_string(), key.size, key.limit);
        let profile = match self.inner.traces.get(&trace_key) {
            Some(trace) => {
                let mut replay = trace
                    .replay(&program)
                    .map_err(|e| EvalError::trace(spec.name(), "profiler", &e))?;
                profiler
                    .profile_source(&mut replay)
                    .map_err(|e| EvalError::trace(spec.name(), "profiler", &e))?
            }
            None => {
                self.inner.m.executions.inc();
                profiler
                    .profile(&program, key.limit)
                    .map_err(|e| EvalError::vm(spec.name(), "profiler", &e))?
            }
        };
        if let Some(disk) = &self.inner.disk {
            disk.put_profile(
                &program,
                key.limit,
                &sweep.hierarchy,
                &sweep.l2s,
                &sweep.predictors,
                &profile,
            )
            .ok();
        }
        Ok(Arc::new(profile))
    }

    /// Number of cached profiles (used by tests to assert the one-pass
    /// invariant).
    pub fn cached_profiles(&self) -> usize {
        self.inner.profiles.len()
    }

    /// Number of functional `Vm` executions this store has triggered
    /// (trace recordings plus live streaming profile passes).
    ///
    /// This is the per-store, test-safe counterpart of the process-global
    /// [`mim_isa::functional_executions`] counter: because it only counts
    /// executions *this* store caused, record-once assertions hold no
    /// matter what other tests run concurrently in the same process.
    /// Replayed profiles, simulations, MLP estimates, and persistent-store
    /// loads never increment it.
    pub fn functional_executions(&self) -> u64 {
        self.inner.m.executions.get()
    }

    /// Number of recorded traces (used by tests to assert the record-once
    /// invariant).
    pub fn cached_traces(&self) -> usize {
        self.inner.traces.len()
    }

    /// A consistent snapshot of the store's counters.
    ///
    /// The fields are read back from the same [`Registry`] instruments the
    /// hot paths record into (see [`registry`](WorkloadStore::registry)),
    /// so `stats()` and a metrics scrape are two views of one source of
    /// truth.
    pub fn stats(&self) -> StoreStats {
        let m = &self.inner.m;
        StoreStats {
            trace_hits: m.trace_hits.get(),
            trace_disk_hits: m.trace_disk_hits.get(),
            trace_misses: m.trace_misses.get(),
            profile_hits: m.profile_hits.get(),
            profile_disk_hits: m.profile_disk_hits.get(),
            profile_misses: m.profile_misses.get(),
            evictions: m.evictions.get(),
            bytes_persisted: self.inner.disk.as_ref().map_or(0, DiskStore::bytes_written),
            functional_executions: m.executions.get(),
        }
    }
}
