//! Cell-level memoization: one computation per (workload, size, machine,
//! evaluator) cell, shared by every concurrent job that touches it.
//!
//! The [`WorkloadStore`](crate::WorkloadStore) deduplicates the expensive
//! *machine-independent* work (functional executions, profiling passes); a
//! [`CellMemo`] deduplicates the *machine-dependent* remainder — the model
//! evaluation or cycle-accurate simulation of one grid cell. A server
//! whose concurrent jobs sweep overlapping design points hands every
//! [`Experiment`](crate::Experiment) the same memo
//! ([`Experiment::with_cells`](crate::Experiment::with_cells)): identical
//! cells coalesce onto one in-flight computation, and repeated cells are
//! answered from memory, so overlapping sweeps batch structurally instead
//! of racing.
//!
//! Keys are content-addressed: a stable FNV-1a fingerprint over the
//! workload name, size, instruction limit, the **full** serialized
//! [`MachineConfig`] (not [`MachineConfig::id`], which elides latencies),
//! the evaluator name, and the evaluator knobs that change results
//! (energy, timeline interval). Two jobs that describe the same cell
//! differently (e.g. different design-space objects covering the same
//! point) still share one entry.
//!
//! The entries sit in the same crate-private memo as the store's
//! (`memo.rs`): hashed entries, their LRU order and the in-flight keys
//! under one lock, with a claim that is released even when the evaluator
//! panics — so a panicking
//! cell fails its own job and never wedges the jobs waiting on it.

use std::fmt::Write as _;
use std::sync::Arc;

use mim_core::MachineConfig;
use mim_isa::Fnv;
use mim_obs::{Counter, Registry};
use mim_workloads::WorkloadSize;
use serde::{Deserialize, Serialize};

use crate::memo::Memo;
use crate::result::{EvalError, EvalResult};

/// Hit/miss/eviction counters of a [`CellMemo`] — reported by the serve
/// layer's `stats` endpoint and asserted by the throughput bench's ≥80%
/// cell-hit gate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellStats {
    /// Cell requests answered from memory (or by joining an in-flight
    /// computation).
    pub hits: u64,
    /// Cell requests that computed fresh.
    pub misses: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
}

impl CellStats {
    /// Fraction of requests served without recomputation (1.0 when no
    /// requests were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct MemoInner {
    /// Hits time as `cells.hit_ns`; computing lookups as `cells.eval_ns`,
    /// the per-cell evaluate latency.
    cells: Memo<u64, EvalResult>,
    registry: Registry,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

/// A thread-safe, cheaply cloneable memo of evaluated grid cells, keyed by
/// content fingerprint (see the module docs). Concurrent requests for the
/// same missing cell coalesce onto one computation.
///
/// # Example
///
/// ```
/// use mim_core::MachineConfig;
/// use mim_runner::{CellMemo, EvalKind, Experiment};
/// use mim_workloads::{mibench, WorkloadSize};
///
/// let memo = CellMemo::new();
/// for _ in 0..2 {
///     Experiment::new()
///         .workloads([mibench::sha()])
///         .size(WorkloadSize::Tiny)
///         .evaluators([EvalKind::Model])
///         .with_cells(memo.clone())
///         .run()
///         .unwrap();
/// }
/// let stats = memo.stats();
/// assert_eq!((stats.misses, stats.hits), (1, 1));
/// ```
#[derive(Clone)]
pub struct CellMemo {
    inner: Arc<MemoInner>,
}

impl Default for CellMemo {
    fn default() -> CellMemo {
        CellMemo::new()
    }
}

impl CellMemo {
    /// Creates an empty, unbounded memo.
    pub fn new() -> CellMemo {
        CellMemo::bounded(None)
    }

    /// Creates a memo holding at most `capacity` cells, evicting
    /// least-recently-used entries beyond it (a capacity of 0 is treated
    /// as 1). Evicted cells recompute on the next request — bounded
    /// memory, unchanged results.
    pub fn with_capacity(capacity: usize) -> CellMemo {
        CellMemo::bounded(Some(capacity))
    }

    fn bounded(capacity: Option<usize>) -> CellMemo {
        let registry = Registry::new();
        let hits = registry.counter("cells.hit");
        let misses = registry.counter("cells.miss");
        let evictions = registry.counter("cells.evictions");
        let cells = Memo::new(
            capacity,
            hits.clone(),
            evictions.clone(),
            registry.histogram("cells.hit_ns"),
            registry.histogram("cells.eval_ns"),
        );
        CellMemo {
            inner: Arc::new(MemoInner {
                cells,
                registry,
                hits,
                misses,
                evictions,
            }),
        }
    }

    /// The memo's metrics registry: the [`CellStats`] counters plus the
    /// `cells.hit_ns` / `cells.eval_ns` latency histograms. Scoped to this
    /// memo — cloned handles share it, unrelated memos do not.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Content fingerprint of one evaluation cell. Stable across
    /// processes and builds, so it can key protocol-level dedup too.
    ///
    /// `timeline` is the per-interval CPI-timeline width when the
    /// experiment requests one — part of the key because a cached result
    /// carries (or lacks) the timeline it was computed with.
    pub fn key(
        workload: &str,
        size: WorkloadSize,
        limit: Option<u64>,
        machine: &MachineConfig,
        evaluator: &str,
        energy: bool,
        timeline: Option<u64>,
    ) -> u64 {
        let mut h = Fnv::new();
        write!(
            h,
            "{workload}\u{1f}{size}\u{1f}{}\u{1f}{evaluator}\u{1f}{energy}\u{1f}{}\u{1f}",
            limit.map_or(u64::MAX, |l| l),
            timeline.map_or(0, |t| t),
        )
        .expect("hashing is infallible");
        serde_json::to_writer(&mut h, machine).expect("hashing is infallible");
        h.finish()
    }

    /// Returns the memoized result for `key`, or computes (and memoizes)
    /// it. Concurrent callers with the same missing key wait for the
    /// first caller's computation instead of duplicating it; a failed
    /// computation is not memoized, and one waiter retries it. A panicking
    /// computation unwinds through its own caller only: the cell is
    /// released on the way out, so later callers recompute it.
    ///
    /// # Errors
    ///
    /// Propagates the error of the computation this caller ran itself.
    pub fn get_or_compute(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<EvalResult, EvalError>,
    ) -> Result<EvalResult, EvalError> {
        self.inner.cells.get_or_try(key, |_| {
            self.inner.misses.inc();
            compute()
        })
    }

    /// Number of memoized cells currently held.
    pub fn len(&self) -> usize {
        self.inner.cells.len()
    }

    /// Whether the memo holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A consistent snapshot of the memo's counters, read back from the
    /// same [`Registry`] instruments the hot path records into (see
    /// [`registry`](CellMemo::registry)).
    pub fn stats(&self) -> CellStats {
        CellStats {
            hits: self.inner.hits.get(),
            misses: self.inner.misses.get(),
            evictions: self.inner.evictions.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(cpi: f64) -> EvalResult {
        EvalResult {
            workload: "w".into(),
            evaluator: "model".into(),
            kind: crate::EvalKind::Model,
            machine_id: "m".into(),
            machine_index: 0,
            instructions: 100,
            cycles: 150.0,
            cpi,
            stack: None,
            misses: None,
            branch: None,
            energy: None,
            sampling: None,
            timeline: None,
            wall_seconds: 0.0,
        }
    }

    #[test]
    fn memoizes_and_counts() {
        let memo = CellMemo::new();
        let r1 = memo.get_or_compute(7, || Ok(dummy(1.5))).unwrap();
        let r2 = memo
            .get_or_compute(7, || panic!("must not recompute"))
            .unwrap();
        assert_eq!(r1.cpi, r2.cpi);
        assert_eq!(
            memo.stats(),
            CellStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn errors_are_not_memoized() {
        let memo = CellMemo::new();
        let err = memo.get_or_compute(1, || Err(EvalError::new("w", "model", "boom")));
        assert!(err.is_err());
        // Next caller recomputes and can succeed.
        let ok = memo.get_or_compute(1, || Ok(dummy(2.0))).unwrap();
        assert_eq!(ok.cpi, 2.0);
        assert_eq!(memo.stats().misses, 2);
    }

    #[test]
    fn a_panicking_compute_frees_its_cell() {
        let memo = CellMemo::new();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_compute(5, || panic!("evaluator bug"))
        }));
        assert!(panicked.is_err());
        let (done, on_done) = std::sync::mpsc::channel();
        let other = memo.clone();
        // Not joined: if the cell stays claimed, the thread never returns,
        // and the timeout below fails the test instead of blocking it.
        std::thread::spawn(move || {
            let result = other.get_or_compute(5, || Ok(dummy(3.0)));
            done.send(result.map(|r| r.cpi).ok())
        });
        let cpi = on_done
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("a second caller hung on the panicked cell");
        assert_eq!(cpi, Some(3.0));
        assert_eq!(memo.stats().misses, 2);
    }

    #[test]
    fn capacity_bound_evicts_lru() {
        let memo = CellMemo::with_capacity(2);
        memo.get_or_compute(1, || Ok(dummy(1.0))).unwrap();
        memo.get_or_compute(2, || Ok(dummy(2.0))).unwrap();
        // Touch 1 so 2 becomes the LRU entry, then insert 3.
        memo.get_or_compute(1, || panic!("hit expected")).unwrap();
        memo.get_or_compute(3, || Ok(dummy(3.0))).unwrap();
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.stats().evictions, 1);
        // 2 was evicted; it recomputes deterministically.
        let r = memo.get_or_compute(2, || Ok(dummy(2.0))).unwrap();
        assert_eq!(r.cpi, 2.0);
    }

    #[test]
    fn keys_are_content_addressed() {
        let tiny = WorkloadSize::Tiny;
        let base = MachineConfig::default_config();
        let k1 = CellMemo::key("sha", tiny, None, &base, "model", false, None);
        let k2 = CellMemo::key("sha", tiny, None, &base, "model", false, None);
        assert_eq!(k1, k2);
        // Any differing component changes the key.
        let mut wide = base.clone();
        wide.width += 1;
        for other in [
            CellMemo::key("crc", tiny, None, &base, "model", false, None),
            CellMemo::key(
                "sha",
                WorkloadSize::Small,
                None,
                &base,
                "model",
                false,
                None,
            ),
            CellMemo::key("sha", tiny, Some(9), &base, "model", false, None),
            CellMemo::key("sha", tiny, None, &wide, "model", false, None),
            CellMemo::key("sha", tiny, None, &base, "sim", false, None),
            CellMemo::key("sha", tiny, None, &base, "model", true, None),
            CellMemo::key("sha", tiny, None, &base, "sim", false, Some(10_000)),
        ] {
            assert_ne!(k1, other);
        }
    }

    #[test]
    fn keys_are_pinned_so_cached_cells_stay_addressable() {
        // Keys that earlier builds computed: a change here orphans every
        // cell a client or a long-lived server already keyed.
        let base = MachineConfig::default_config();
        let tiny = WorkloadSize::Tiny;
        assert_eq!(
            CellMemo::key("sha", tiny, None, &base, "model", false, None),
            0xd03e_b205_94ca_a102
        );
        assert_eq!(
            CellMemo::key(
                "qsort",
                WorkloadSize::Small,
                Some(20_000),
                &base,
                "sim",
                true,
                Some(1_000)
            ),
            0xcf35_e061_2015_61f3
        );
    }
}
