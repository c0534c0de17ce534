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
    config: TlbConfig,
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
            config,
        }
    }

    /// The TLB's geometry.
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Translates the byte address, returning hit/miss and updating LRU.
    pub fn access(&mut self, addr: u64) -> crate::cache::AccessResult {
        self.inner.access(addr)
    }

    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.inner.accesses()
    }

    /// Total misses observed.
    pub fn misses(&self) -> u64 {
        self.inner.misses()
    }

    /// Invalidates all entries and resets counters.
    pub fn flush(&mut self) {
        self.inner.flush();
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
        assert_eq!(t.misses(), 4);
        assert_eq!(t.accesses(), 8);
    }

    #[test]
    fn default_geometry_matches_paper_setup() {
        let t = Tlb::new(TlbConfig::default_tlb());
        assert_eq!(t.config().entries, 32);
        assert_eq!(t.config().page_bytes, 4096);
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
