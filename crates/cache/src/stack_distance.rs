//! Mattson LRU stack-distance profiling.
//!
//! A single pass over an access stream yields the reuse (stack) distance of
//! every access; from the resulting histogram the miss count of a
//! fully-associative LRU cache of *any* capacity follows directly
//! (Mattson et al., 1970 — reference \[22\] of the paper). This is the
//! classical "single-pass cache simulation for a range of cache sizes" the
//! paper's profiler relies on (§2.1).

use std::collections::HashMap;

/// Fenwick (binary indexed) tree over live-block timestamps.
#[derive(Debug, Clone)]
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(n: usize) -> Fenwick {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Adds `delta` at position `i` (0-based).
    fn add(&mut self, i: usize, delta: i32) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + i64::from(delta)) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..=i`.
    fn prefix(&self, i: usize) -> u64 {
        let mut i = i + 1;
        let mut s = 0u64;
        while i > 0 {
            s += u64::from(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// Single-pass LRU stack-distance profiler.
///
/// Feed it a block-granular address stream with
/// [`access`](StackDistance::access); afterwards,
/// [`misses_for_capacity`](StackDistance::misses_for_capacity) returns the
/// exact miss count a fully-associative LRU cache of the given capacity
/// would have incurred on that stream — for every capacity, from one pass.
///
/// The implementation uses a Fenwick tree over last-access timestamps with
/// periodic renumbering, giving `O(log n)` per access and memory bounded by
/// the footprint (distinct blocks), not the trace length.
///
/// # Example
///
/// ```
/// use mim_cache::StackDistance;
///
/// let mut sd = StackDistance::new(64);
/// // Cyclic sweep over 4 blocks, twice.
/// for _ in 0..2 {
///     for b in 0..4u64 {
///         sd.access(b * 64);
///     }
/// }
/// // A 4-block cache holds the whole loop: only 4 cold misses.
/// assert_eq!(sd.misses_for_capacity(4), 4);
/// // A 3-block LRU cache thrashes: every access misses.
/// assert_eq!(sd.misses_for_capacity(3), 8);
/// ```
#[derive(Debug, Clone)]
pub struct StackDistance {
    block_bytes: u64,
    /// block number -> timestamp of its most recent access
    last: HashMap<u64, usize>,
    fenwick: Fenwick,
    time: usize,
    cold_misses: u64,
    accesses: u64,
    /// histogram\[d\] = number of accesses with stack distance exactly `d`
    histogram: Vec<u64>,
}

impl StackDistance {
    /// Creates a profiler for the given block (line) size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is zero.
    pub fn new(block_bytes: u64) -> StackDistance {
        assert!(block_bytes > 0, "block size must be nonzero");
        StackDistance {
            block_bytes,
            last: HashMap::new(),
            fenwick: Fenwick::new(1024),
            time: 0,
            cold_misses: 0,
            accesses: 0,
            histogram: Vec::new(),
        }
    }

    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Accesses that touched a never-before-seen block.
    pub fn cold_misses(&self) -> u64 {
        self.cold_misses
    }

    /// Number of distinct blocks touched (the footprint).
    pub fn footprint_blocks(&self) -> usize {
        self.last.len()
    }

    /// The stack-distance histogram: `histogram()[d]` counts accesses whose
    /// reuse distance was exactly `d` distinct blocks.
    pub fn histogram(&self) -> &[u64] {
        &self.histogram
    }

    /// Records one access to the byte address `addr`.
    pub fn access(&mut self, addr: u64) {
        let block = addr / self.block_bytes;
        self.accesses += 1;

        if self.time == self.fenwick.len() {
            self.compact();
        }

        let t = self.time;
        match self.last.get_mut(&block) {
            Some(prev_slot) => {
                let prev = *prev_slot;
                // Count live blocks with a timestamp strictly after `prev`:
                // those are the distinct blocks touched since.
                let live_total = self.fenwick.prefix(self.fenwick.len() - 1);
                let live_upto_prev = self.fenwick.prefix(prev);
                let distance = (live_total - live_upto_prev) as usize;
                if distance >= self.histogram.len() {
                    self.histogram.resize(distance + 1, 0);
                }
                self.histogram[distance] += 1;
                self.fenwick.add(prev, -1);
                *prev_slot = t;
            }
            None => {
                self.cold_misses += 1;
                self.last.insert(block, t);
            }
        }
        self.fenwick.add(t, 1);
        self.time += 1;
    }

    /// Renumbers live timestamps to keep the Fenwick tree compact.
    fn compact(&mut self) {
        let mut live: Vec<(u64, usize)> = self.last.iter().map(|(&b, &t)| (b, t)).collect();
        live.sort_unstable_by_key(|&(_, t)| t);
        let n = live.len();
        let cap = (2 * n).max(1024);
        let mut fenwick = Fenwick::new(cap);
        for (new_t, (block, _)) in live.iter().enumerate() {
            self.last.insert(*block, new_t);
            fenwick.add(new_t, 1);
        }
        self.fenwick = fenwick;
        self.time = n;
    }

    /// Exact miss count of a fully-associative LRU cache with
    /// `capacity_blocks` blocks on the observed stream.
    ///
    /// An access with stack distance `d` hits iff `d < capacity_blocks`;
    /// cold accesses always miss.
    pub fn misses_for_capacity(&self, capacity_blocks: usize) -> u64 {
        let far: u64 = self.histogram.iter().skip(capacity_blocks).sum();
        self.cold_misses + far
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SetAssocCache;
    use crate::config::CacheConfig;

    /// Brute-force reference: explicit LRU stack with linear search.
    struct NaiveLru {
        stack: Vec<u64>,
        misses: u64,
        capacity: usize,
    }

    impl NaiveLru {
        fn new(capacity: usize) -> NaiveLru {
            NaiveLru {
                stack: Vec::new(),
                misses: 0,
                capacity,
            }
        }
        fn access(&mut self, block: u64) {
            if let Some(pos) = self.stack.iter().position(|&b| b == block) {
                self.stack.remove(pos);
            } else {
                self.misses += 1;
                if self.stack.len() == self.capacity {
                    self.stack.pop();
                }
            }
            self.stack.insert(0, block);
        }
    }

    fn lcg_stream(n: usize, modulus: u64, seed: u64) -> Vec<u64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 24) % modulus
            })
            .collect()
    }

    #[test]
    fn matches_naive_lru_for_all_capacities() {
        let stream = lcg_stream(5_000, 300, 7);
        let mut sd = StackDistance::new(1);
        for &b in &stream {
            sd.access(b);
        }
        for capacity in [1usize, 2, 3, 7, 16, 50, 100, 299, 300, 400] {
            let mut naive = NaiveLru::new(capacity);
            for &b in &stream {
                naive.access(b);
            }
            assert_eq!(
                sd.misses_for_capacity(capacity),
                naive.misses,
                "capacity {capacity}"
            );
        }
    }

    #[test]
    fn matches_fully_associative_set_assoc_cache() {
        // A SetAssocCache with one set and N ways is a fully-assoc LRU cache.
        let stream = lcg_stream(3_000, 100, 99);
        let mut sd = StackDistance::new(64);
        let ways = 16u32;
        let mut cache =
            SetAssocCache::new(CacheConfig::new("fa", 64 * u64::from(ways), ways, 64).unwrap());
        let mut misses = 0;
        for &b in &stream {
            sd.access(b * 64);
            misses += u64::from(!cache.access(b * 64).hit);
        }
        assert_eq!(sd.misses_for_capacity(ways as usize), misses);
    }

    #[test]
    fn compaction_preserves_results() {
        // Long stream over a small footprint forces many compactions
        // (initial Fenwick capacity is 1024).
        let stream = lcg_stream(50_000, 40, 3);
        let mut sd = StackDistance::new(1);
        for &b in &stream {
            sd.access(b);
        }
        let mut naive = NaiveLru::new(10);
        for &b in &stream {
            naive.access(b);
        }
        assert_eq!(sd.misses_for_capacity(10), naive.misses);
        assert_eq!(sd.cold_misses(), 40);
        assert_eq!(sd.footprint_blocks(), 40);
    }

    #[test]
    fn miss_curve_is_monotone_nonincreasing() {
        let stream = lcg_stream(10_000, 500, 1234);
        let mut sd = StackDistance::new(1);
        for &b in &stream {
            sd.access(b);
        }
        let curve: Vec<u64> = (1..60).map(|i| sd.misses_for_capacity(i * 10)).collect();
        for w in curve.windows(2) {
            assert!(w[1] <= w[0]);
        }
        // At footprint capacity only cold misses remain.
        assert_eq!(sd.misses_for_capacity(500), sd.cold_misses());
    }

    #[test]
    fn histogram_mass_accounts_every_access() {
        let stream = lcg_stream(2_000, 64, 5);
        let mut sd = StackDistance::new(1);
        for &b in &stream {
            sd.access(b);
        }
        let reuse: u64 = sd.histogram().iter().sum();
        assert_eq!(reuse + sd.cold_misses(), sd.accesses());
    }

    #[test]
    fn sequential_stream_all_cold() {
        let mut sd = StackDistance::new(64);
        for i in 0..100u64 {
            sd.access(i * 64);
        }
        assert_eq!(sd.cold_misses(), 100);
        assert_eq!(sd.misses_for_capacity(1), 100);
    }
}
