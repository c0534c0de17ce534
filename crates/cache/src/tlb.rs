//! Translation lookaside buffers.

use crate::cache::SetAssocCache;
use crate::config::TlbConfig;

/// A fully-associative, LRU-replaced TLB.
///
/// Internally modeled as a one-set cache whose "blocks" are pages. The
/// mechanistic model treats TLB misses exactly like cache misses: they block
/// the pipeline for a fixed walk latency (paper §3.3).
///
/// # Example
///
/// ```
/// use mim_cache::{Tlb, TlbConfig};
///
/// let mut tlb = Tlb::new(TlbConfig { entries: 2, page_bytes: 4096 });
/// assert!(!tlb.access(0).hit);        // page 0: cold miss
/// assert!(tlb.access(1234).hit);      // same page
/// assert!(!tlb.access(4096).hit);     // page 1
/// assert!(!tlb.access(2 * 4096).hit); // page 2 evicts page 0
/// assert!(!tlb.access(0).hit);
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    inner: SetAssocCache,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a nonzero power of two or `page_bytes` is
    /// not a power of two (TLB geometries in the design space are fixed, so
    /// this is a programming error rather than a user input).
    pub fn new(config: TlbConfig) -> Tlb {
        let cache_config = config.cache_config().expect("invalid TLB geometry");
        Tlb {
            inner: SetAssocCache::new(cache_config),
        }
    }

    /// Translates the byte address, returning hit/miss and updating LRU.
    #[inline]
    pub fn access(&mut self, addr: u64) -> crate::cache::AccessResult {
        self.inner.access(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tlb_is_fully_associative() {
        // 4 entries: pages 0..4 all resident regardless of address bits.
        let mut t = Tlb::new(TlbConfig {
            entries: 4,
            page_bytes: 4096,
        });
        for p in 0..4u64 {
            assert!(!t.access(p * 4096).hit);
        }
        for p in 0..4u64 {
            assert!(t.access(p * 4096 + 8).hit);
        }
    }

    #[test]
    fn default_geometry_matches_paper_setup() {
        // 32 entries of 4 KiB pages: 32 pages fit, a 33rd evicts the LRU.
        let mut t = Tlb::new(TlbConfig::default_tlb());
        let misses = |t: &mut Tlb, pages: std::ops::Range<u64>| {
            pages.filter(|p| !t.access(p * 4096 + 4095).hit).count()
        };
        assert_eq!(misses(&mut t, 0..32), 32);
        assert_eq!(misses(&mut t, 0..32), 0);
        assert_eq!(misses(&mut t, 32..33), 1);
        assert_eq!(misses(&mut t, 0..1), 1);
    }

    #[test]
    fn lru_within_tlb() {
        let mut t = Tlb::new(TlbConfig {
            entries: 2,
            page_bytes: 4096,
        });
        t.access(0); // page 0
        t.access(4096); // page 1
        t.access(100); // touch page 0
        t.access(8192); // page 2 evicts page 1
        assert!(t.access(50).hit); // page 0 survives
        assert!(!t.access(4096).hit); // page 1 gone
    }
}
