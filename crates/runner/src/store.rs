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
//! Concurrent requests for the same missing entry **coalesce**: one
//! caller records/profiles while the rest wait on the in-flight marker,
//! so a burst of identical requests costs one functional execution.

use std::sync::{Arc, Condvar, Mutex};

use mim_bpred::PredictorConfig;
use mim_cache::{CacheConfig, HierarchyConfig};
use mim_isa::Program;
use mim_obs::{clock, Counter, Histogram, Registry};
use mim_profile::{SweepProfiler, WorkloadProfile};
use mim_trace::Trace;
use mim_workloads::WorkloadSize;
use serde::{Deserialize, Serialize};

use crate::disk::{DiskStore, StoreError};
use crate::result::EvalError;
use crate::spec::WorkloadSpec;

/// Identifies one profiling pass: workload, size, truncation, and the
/// sweep's candidate lists.
#[derive(Clone, PartialEq)]
struct ProfileKey {
    workload: String,
    size: WorkloadSize,
    limit: Option<u64>,
    hierarchy: HierarchyConfig,
    l2s: Vec<CacheConfig>,
    predictors: Vec<PredictorConfig>,
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

impl StoreStats {
    /// Total requests served without a functional execution or profiling
    /// pass (memory + disk, traces + profiles).
    pub fn total_hits(&self) -> u64 {
        self.trace_hits + self.trace_disk_hits + self.profile_hits + self.profile_disk_hits
    }

    /// Total requests that computed fresh.
    pub fn total_misses(&self) -> u64 {
        self.trace_misses + self.profile_misses
    }
}

/// An LRU-ordered association list: entries move to the back on every
/// hit, and inserts beyond `capacity` evict from the front. Entry counts
/// are small (one per workload × size × sweep), so linear scans beat
/// hashing — and impose no `Hash` bound on config types.
pub(crate) struct Lru<K, V> {
    entries: Vec<(K, V)>,
    capacity: Option<usize>,
}

impl<K: PartialEq, V: Clone> Lru<K, V> {
    pub(crate) fn new(capacity: Option<usize>) -> Lru<K, V> {
        Lru {
            entries: Vec::new(),
            capacity,
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub(crate) fn get(&mut self, key: &K) -> Option<V> {
        let i = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(i);
        let value = entry.1.clone();
        self.entries.push(entry);
        Some(value)
    }

    /// Inserts (or refreshes) an entry, returning how many entries the
    /// capacity bound evicted.
    pub(crate) fn insert(&mut self, key: K, value: V) -> u64 {
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(i);
        }
        self.entries.push((key, value));
        let mut evicted = 0;
        if let Some(cap) = self.capacity {
            let cap = cap.max(1);
            while self.entries.len() > cap {
                self.entries.remove(0);
                evicted += 1;
            }
        }
        evicted
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

/// In-flight markers for one cache: concurrent requests for the same
/// missing key coalesce onto the first caller's computation instead of
/// re-executing it in parallel.
pub(crate) struct Flight<K> {
    pending: Mutex<Vec<K>>,
    wakeup: Condvar,
}

impl<K: Clone + PartialEq> Flight<K> {
    pub(crate) fn new() -> Flight<K> {
        Flight {
            pending: Mutex::new(Vec::new()),
            wakeup: Condvar::new(),
        }
    }

    /// Claims the right to compute `key`. Returns the cached value if a
    /// concurrent computation finished while waiting; `None` means the
    /// caller owns the computation and must call [`release`](Flight::release).
    pub(crate) fn claim<V>(&self, key: &K, mut cached: impl FnMut() -> Option<V>) -> Option<V> {
        let mut pending = self.pending.lock().expect("flight markers poisoned");
        loop {
            if let Some(v) = cached() {
                return Some(v);
            }
            if !pending.iter().any(|k| k == key) {
                pending.push(key.clone());
                return None;
            }
            pending = self.wakeup.wait(pending).expect("flight markers poisoned");
        }
    }

    /// Releases the marker (after publishing the result, or on error) and
    /// wakes every waiter.
    pub(crate) fn release(&self, key: &K) {
        self.pending
            .lock()
            .expect("flight markers poisoned")
            .retain(|k| k != key);
        self.wakeup.notify_all();
    }
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
    trace_hit_ns: Histogram,
    trace_miss_ns: Histogram,
    profile_hit_ns: Histogram,
    profile_miss_ns: Histogram,
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
            trace_hit_ns: registry.histogram("store.trace.hit_ns"),
            trace_miss_ns: registry.histogram("store.trace.miss_ns"),
            profile_hit_ns: registry.histogram("store.profile.hit_ns"),
            profile_miss_ns: registry.histogram("store.profile.miss_ns"),
        }
    }
}

struct Inner {
    programs: Mutex<Vec<(ProgramKey, Arc<Program>)>>,
    traces: Mutex<Lru<TraceKey, Arc<Trace>>>,
    profiles: Mutex<Lru<ProfileKey, Arc<WorkloadProfile>>>,
    trace_flight: Flight<TraceKey>,
    profile_flight: Flight<ProfileKey>,
    disk: Option<DiskStore>,
    registry: Registry,
    m: StoreInstruments,
}

impl Inner {
    fn with(capacity: Option<usize>, disk: Option<DiskStore>, registry: Registry) -> Inner {
        Inner {
            programs: Mutex::new(Vec::new()),
            traces: Mutex::new(Lru::new(capacity)),
            profiles: Mutex::new(Lru::new(capacity)),
            trace_flight: Flight::new(),
            profile_flight: Flight::new(),
            disk,
            m: StoreInstruments::new(&registry),
            registry,
        }
    }
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

    /// The store's metrics registry: the [`StoreStats`] counters plus
    /// `store.*_ns` latency histograms (trace/profile hit and miss paths,
    /// persistent-store reads and writes). The registry is scoped to this
    /// store — cloned handles share it, unrelated stores do not.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Returns the workload's program at `size`, instantiating it on first
    /// use.
    pub fn program(&self, spec: &WorkloadSpec, size: WorkloadSize) -> Arc<Program> {
        let key = (spec.name().to_string(), size);
        if let Some((_, p)) = self
            .inner
            .programs
            .lock()
            .expect("program cache poisoned")
            .iter()
            .find(|(k, _)| *k == key)
        {
            return Arc::clone(p);
        }
        // Generate outside the lock; kernels are deterministic, so a racing
        // duplicate generation is wasted work but not an inconsistency.
        let program = spec.program_at(size);
        let mut programs = self.inner.programs.lock().expect("program cache poisoned");
        if let Some((_, p)) = programs.iter().find(|(k, _)| *k == key) {
            return Arc::clone(p);
        }
        programs.push((key, Arc::clone(&program)));
        program
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
        let started = clock();
        let key = (spec.name().to_string(), size, limit);
        if let Some(t) = self.cached_trace(&key) {
            self.inner.m.trace_hits.inc();
            self.inner.m.trace_hit_ns.observe_since(started);
            return Ok(t);
        }
        if let Some(t) = self
            .inner
            .trace_flight
            .claim(&key, || self.cached_trace(&key))
        {
            self.inner.m.trace_hits.inc();
            self.inner.m.trace_hit_ns.observe_since(started);
            return Ok(t);
        }
        // This thread owns the computation; every path must release the
        // in-flight marker.
        let outcome = self.load_or_record_trace(spec, size, limit);
        if let Ok(trace) = &outcome {
            self.insert_trace(key.clone(), Arc::clone(trace));
        }
        self.inner.trace_flight.release(&key);
        self.inner.m.trace_miss_ns.observe_since(started);
        outcome
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

    fn insert_trace(&self, key: TraceKey, trace: Arc<Trace>) {
        let evicted = self
            .inner
            .traces
            .lock()
            .expect("trace cache poisoned")
            .insert(key, trace);
        self.inner.m.evictions.add(evicted);
    }

    fn cached_trace(&self, key: &TraceKey) -> Option<Arc<Trace>> {
        self.inner
            .traces
            .lock()
            .expect("trace cache poisoned")
            .get(key)
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
        let started = clock();
        let key = ProfileKey {
            workload: spec.name().to_string(),
            size,
            limit,
            hierarchy: hierarchy.clone(),
            l2s: l2s.to_vec(),
            predictors: predictors.to_vec(),
        };
        if let Some(p) = self.cached_profile(&key) {
            self.inner.m.profile_hits.inc();
            self.inner.m.profile_hit_ns.observe_since(started);
            return Ok(p);
        }
        if let Some(p) = self
            .inner
            .profile_flight
            .claim(&key, || self.cached_profile(&key))
        {
            self.inner.m.profile_hits.inc();
            self.inner.m.profile_hit_ns.observe_since(started);
            return Ok(p);
        }
        let outcome = self.load_or_compute_profile(spec, &key);
        if let Ok(profile) = &outcome {
            let evicted = self
                .inner
                .profiles
                .lock()
                .expect("profile cache poisoned")
                .insert(key.clone(), Arc::clone(profile));
            self.inner.m.evictions.add(evicted);
        }
        self.inner.profile_flight.release(&key);
        self.inner.m.profile_miss_ns.observe_since(started);
        outcome
    }

    /// Disk-then-compute miss path for [`profile`](WorkloadStore::profile).
    fn load_or_compute_profile(
        &self,
        spec: &WorkloadSpec,
        key: &ProfileKey,
    ) -> Result<Arc<WorkloadProfile>, EvalError> {
        let program = self.program(spec, key.size);
        if let Some(disk) = &self.inner.disk {
            if let Ok(Some(mut profile)) = disk.get_profile(
                &program,
                key.limit,
                &key.hierarchy,
                &key.l2s,
                &key.predictors,
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
            key.hierarchy.clone(),
            key.l2s.clone(),
            key.predictors.clone(),
        );
        let trace_key = (spec.name().to_string(), key.size, key.limit);
        let profile = match self.cached_trace(&trace_key) {
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
                &key.hierarchy,
                &key.l2s,
                &key.predictors,
                &profile,
            )
            .ok();
        }
        Ok(Arc::new(profile))
    }

    fn cached_profile(&self, key: &ProfileKey) -> Option<Arc<WorkloadProfile>> {
        self.inner
            .profiles
            .lock()
            .expect("profile cache poisoned")
            .get(key)
    }

    /// Number of cached profiles (used by tests to assert the one-pass
    /// invariant).
    pub fn cached_profiles(&self) -> usize {
        self.inner
            .profiles
            .lock()
            .expect("profile cache poisoned")
            .len()
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
        self.inner
            .traces
            .lock()
            .expect("trace cache poisoned")
            .len()
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
