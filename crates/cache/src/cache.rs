//! Set-associative LRU cache model.

use crate::config::CacheConfig;

/// Result of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// True if the access hit.
    pub hit: bool,
}

/// A set-associative cache with true LRU replacement.
///
/// The cache tracks tags only (no data), which is all that miss-count
/// profiling and timing simulation require. Accesses are classified as hit
/// or miss and update recency; misses allocate (write-allocate for stores).
///
/// # Example
///
/// ```
/// use mim_cache::{CacheConfig, SetAssocCache};
///
/// // Tiny 2-way cache with two sets of 64-byte blocks.
/// let mut c = SetAssocCache::new(CacheConfig::new("toy", 256, 2, 64).unwrap());
/// assert!(!c.access(0).hit);
/// assert!(!c.access(128).hit);  // same set (2 sets: block 0 and block 2 map to set 0)
/// assert!(c.access(0).hit);     // still resident
/// assert!(!c.access(256).hit);  // evicts LRU of set 0 (block 2)
/// assert!(!c.access(128).hit);  // block 2 was evicted
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Tags per set, most-recently-used first; `INVALID` marks empty ways.
    tags: Vec<u64>,
    /// `log2(block_bytes)`: an address's block number is `addr >> block_shift`.
    block_shift: u32,
    /// `sets - 1`: a block's set is `block & set_mask`.
    set_mask: u64,
    ways: usize,
}

const INVALID: u64 = u64::MAX;

impl SetAssocCache {
    /// Creates an empty (all-invalid) cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the block size or set count is not a power of two, which
    /// only a configuration that bypassed [`CacheConfig::new`] can have.
    pub fn new(config: CacheConfig) -> SetAssocCache {
        let sets = config.sets();
        let ways = config.assoc() as usize;
        assert!(
            config.block_bytes().is_power_of_two() && sets.is_power_of_two(),
            "cache geometry must be powers of two: {config}"
        );
        SetAssocCache {
            tags: vec![INVALID; (sets as usize) * ways],
            block_shift: config.block_bytes().trailing_zeros(),
            set_mask: sets - 1,
            ways,
        }
    }

    /// Accesses the byte address, updating LRU state.
    ///
    /// Reads and writes behave identically (write-allocate).
    #[inline]
    pub fn access(&mut self, addr: u64) -> AccessResult {
        let block = addr >> self.block_shift;
        let base = self.set_base(block);
        let set_tags = &mut self.tags[base..base + self.ways];

        // A hit in the MRU way changes nothing.
        if set_tags[0] == block {
            return AccessResult { hit: true };
        }
        // One pass from MRU to LRU: each way takes its more recent
        // neighbour's tag until the pass reaches the hit way, whose tag
        // moves to MRU, or falls off the LRU way (a miss evicts it).
        let mut carried = std::mem::replace(&mut set_tags[0], block);
        for way in &mut set_tags[1..] {
            let tag = std::mem::replace(way, carried);
            if tag == block {
                return AccessResult { hit: true };
            }
            carried = tag;
        }
        AccessResult { hit: false }
    }

    /// Index in `tags` of the first way of `block`'s set.
    #[inline]
    fn set_base(&self, block: u64) -> usize {
        (block & self.set_mask) as usize * self.ways
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    fn toy(size: u64, assoc: u32) -> SetAssocCache {
        SetAssocCache::new(CacheConfig::new("toy", size, assoc, 64).unwrap())
    }

    /// Misses among `addrs`, accessed in order.
    fn misses(c: &mut SetAssocCache, addrs: impl IntoIterator<Item = u64>) -> usize {
        addrs.into_iter().filter(|&a| !c.access(a).hit).count()
    }

    #[test]
    fn cold_misses_then_hits() {
        let mut c = toy(4096, 4);
        assert!(!c.access(0).hit);
        assert!(c.access(0).hit);
        assert!(c.access(63).hit); // same block
        assert!(!c.access(64).hit); // next block
        assert_eq!(misses(&mut toy(4096, 4), [0, 0, 63, 64]), 2);
    }

    #[test]
    fn lru_eviction_order() {
        // 1 set, 2 ways.
        let mut c = toy(128, 2);
        c.access(0); // block 0
        c.access(64); // block 1
        c.access(0); // touch block 0 -> block 1 is LRU
        assert!(!c.access(128).hit); // block 2 evicts block 1
        assert!(c.access(0).hit);
        assert!(c.access(128).hit);
        assert!(!c.access(64).hit);
    }

    #[test]
    fn conflict_misses_respect_set_mapping() {
        // 2 sets, 1 way: blocks 0,2,4.. -> set 0; 1,3,5.. -> set 1.
        let mut c = toy(128, 1);
        c.access(0); // set 0
        c.access(64); // set 1
        assert!(c.access(0).hit); // set 0 undisturbed
        c.access(128); // set 0, evicts block 0
        assert!(!c.access(0).hit);
        assert!(c.access(64).hit); // set 1 untouched throughout
    }

    #[test]
    fn bigger_cache_never_misses_more_lru_inclusion() {
        // LRU inclusion property: doubling associativity at same set count
        // cannot increase misses (checked on a pseudo-random trace).
        let mut small = SetAssocCache::new(CacheConfig::new("s", 2048, 2, 64).unwrap());
        let mut large = SetAssocCache::new(CacheConfig::new("l", 4096, 4, 64).unwrap());
        let mut x: u64 = 0x12345;
        let addrs: Vec<u64> = (0..10_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 20) % 65536
            })
            .collect();
        let small_misses = misses(&mut small, addrs.iter().copied());
        assert!(misses(&mut large, addrs) <= small_misses);
    }
}
