//! The one memo protocol behind the [`WorkloadStore`](crate::WorkloadStore)'s
//! programs, traces and profiles and the [`CellMemo`](crate::CellMemo)'s
//! cells.
//!
//! A [`Memo`] is an LRU-ordered association list plus the keys some caller
//! is computing right now, both under one mutex. A lookup either hits
//! (refreshing the entry's recency), waits on the condvar while another
//! caller computes the same key, or claims the key and computes it outside
//! the lock. The claim is a drop guard: on return *and* while unwinding
//! out of a panicking computation it publishes the value (if any),
//! releases the key and wakes every waiter — so a failed or panicked
//! computation is retried by the next caller, never waited on forever.
//!
//! Entry counts are small (one per workload × size × sweep, or one per
//! grid cell), so linear scans beat hashing — and impose no `Hash` bound
//! on config types.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use mim_obs::{clock, Counter, Histogram};

struct State<K, V> {
    /// Least recently used first.
    entries: Vec<(K, V)>,
    /// Keys whose computation is in flight.
    pending: Vec<K>,
}

/// A thread-safe, optionally bounded memo whose concurrent misses for one
/// key coalesce onto a single computation (see the module docs).
pub(crate) struct Memo<K, V> {
    state: Mutex<State<K, V>>,
    wakeup: Condvar,
    capacity: Option<usize>,
    hits: Counter,
    evictions: Counter,
    hit_ns: Histogram,
    miss_ns: Histogram,
}

impl<K: Clone + PartialEq, V: Clone> Memo<K, V> {
    /// A memo holding at most `capacity` entries (0 is treated as 1; `None`
    /// is unbounded) that records into its owner's instruments: `hits`
    /// counts lookups answered from memory or by joining an in-flight
    /// computation, `evictions` entries dropped by the bound, and the two
    /// histograms the wall time of hits and of computing lookups.
    pub(crate) fn new(
        capacity: Option<usize>,
        hits: Counter,
        evictions: Counter,
        hit_ns: Histogram,
        miss_ns: Histogram,
    ) -> Memo<K, V> {
        Memo {
            state: Mutex::new(State {
                entries: Vec::new(),
                pending: Vec::new(),
            }),
            wakeup: Condvar::new(),
            capacity: capacity.map(|c| c.max(1)),
            hits,
            evictions,
            hit_ns,
            miss_ns,
        }
    }

    /// Returns the memoized value for `key`, or computes and memoizes it.
    /// Concurrent callers with the same missing key wait for the first
    /// caller's computation; an error is not memoized, and one waiter
    /// retries the computation.
    ///
    /// # Errors
    ///
    /// Propagates the error of the computation this caller ran itself.
    pub(crate) fn get_or_try<E>(
        &self,
        key: K,
        compute: impl FnOnce(&K) -> Result<V, E>,
    ) -> Result<V, E> {
        let started = clock();
        let mut state = self.lock();
        loop {
            if let Some(value) = state.get(&key) {
                drop(state);
                self.hits.inc();
                self.hit_ns.observe_since(started);
                return Ok(value);
            }
            if !state.pending.contains(&key) {
                break;
            }
            state = self
                .wakeup
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.pending.push(key.clone());
        drop(state);
        let mut claim = Claim {
            memo: self,
            key: &key,
            value: None,
        };
        let outcome = compute(&key);
        claim.value = outcome.as_ref().ok().cloned();
        drop(claim);
        self.miss_ns.observe_since(started);
        outcome
    }

    /// Looks up `key` without computing or counting, refreshing its
    /// recency on a hit.
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        self.lock().get(key)
    }

    /// Number of entries held.
    pub(crate) fn len(&self) -> usize {
        self.lock().entries.len()
    }
}

impl<K, V> Memo<K, V> {
    fn lock(&self) -> MutexGuard<'_, State<K, V>> {
        // Computations run outside the lock, so the lists are consistent
        // even if a panic poisoned it.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<K: PartialEq, V: Clone> State<K, V> {
    fn get(&mut self, key: &K) -> Option<V> {
        let i = self.entries.iter().position(|(k, _)| k == key)?;
        self.entries[i..].rotate_left(1);
        self.entries.last().map(|(_, v)| v.clone())
    }
}

/// One caller's right to compute `key`. Dropping it publishes `value`
/// (when the computation succeeded), releases the key and wakes every
/// waiter — also while unwinding out of a panicking computation.
struct Claim<'a, K: PartialEq, V> {
    memo: &'a Memo<K, V>,
    key: &'a K,
    value: Option<V>,
}

impl<K: PartialEq, V> Drop for Claim<'_, K, V> {
    fn drop(&mut self) {
        let memo = self.memo;
        let mut state = memo.lock();
        if let Some(i) = state.pending.iter().position(|k| k == self.key) {
            let key = state.pending.swap_remove(i);
            if let Some(value) = self.value.take() {
                state.entries.push((key, value));
                let excess = memo
                    .capacity
                    .map_or(0, |cap| state.entries.len().saturating_sub(cap));
                state.entries.drain(..excess);
                memo.evictions.add(excess as u64);
            }
        }
        drop(state);
        memo.wakeup.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{mpsc, Arc};
    use std::thread;
    use std::time::Duration;

    use super::*;

    fn memo(capacity: Option<usize>) -> Memo<u32, u32> {
        Memo::new(
            capacity,
            Counter::default(),
            Counter::default(),
            Histogram::default(),
            Histogram::default(),
        )
    }

    #[test]
    fn bound_evicts_the_least_recently_used_entry() {
        let memo = memo(Some(0));
        memo.get_or_try(1, |_| Ok::<_, ()>(10)).unwrap();
        memo.get_or_try(2, |_| Ok::<_, ()>(20)).unwrap();
        assert_eq!(memo.len(), 1, "capacity 0 holds one entry");
        assert_eq!((memo.get(&1), memo.get(&2)), (None, Some(20)));
        assert_eq!((memo.hits.get(), memo.evictions.get()), (0, 1));
    }

    #[test]
    fn a_failed_compute_releases_its_claim_to_a_waiter() {
        let memo = Arc::new(memo(None));
        let (claimed, on_claim) = mpsc::channel();
        let (fail, on_fail) = mpsc::channel::<()>();
        let owner = {
            let memo = Arc::clone(&memo);
            thread::spawn(move || {
                memo.get_or_try(1, |_| {
                    claimed.send(()).unwrap();
                    on_fail.recv().unwrap();
                    Err("boom")
                })
            })
        };
        on_claim.recv().unwrap();
        let (done, on_done) = mpsc::channel();
        let waiter = {
            let memo = Arc::clone(&memo);
            thread::spawn(move || done.send(memo.get_or_try(1, |_| Ok::<_, &str>(7))))
        };
        // Give the waiter time to park on the claim before it fails.
        thread::sleep(Duration::from_millis(50));
        fail.send(()).unwrap();
        assert_eq!(owner.join().unwrap(), Err("boom"));
        let retried = on_done
            .recv_timeout(Duration::from_secs(5))
            .expect("the waiter never woke after the claim failed");
        assert_eq!(retried, Ok(7), "the waiter retries the computation");
        waiter.join().unwrap().unwrap();
        assert_eq!(memo.get(&1), Some(7));
    }
}
