//! Two-level cache hierarchy with TLBs, as used by the paper's machine.

use serde::{Deserialize, Serialize};

use crate::cache::SetAssocCache;
use crate::config::{CacheConfig, TlbConfig};
use crate::tlb::Tlb;

/// Which kind of memory reference is being performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemAccessKind {
    /// Instruction fetch.
    Fetch,
    /// Data load.
    Load,
    /// Data store.
    Store,
}

/// The line of the previous instruction fetch, so that fetching it again
/// skips the L1I and ITLB lookups.
///
/// Exact because only fetches touch the L1I and the ITLB: right after a
/// fetch, its line and its page are most-recently-used in both, and data
/// accesses in between cannot disturb them. Fetching the same line and
/// page again is therefore a hit in both that leaves every LRU stack as
/// it was. The key is the address shifted by the *smaller* of the L1I
/// block shift and the ITLB page shift, so equal keys mean the same line
/// and the same page for any geometry.
#[derive(Debug, Clone)]
pub(crate) struct FetchMemo {
    shift: u32,
    last: Option<u64>,
}

impl FetchMemo {
    pub(crate) fn new(l1i: &CacheConfig, itlb: TlbConfig) -> FetchMemo {
        FetchMemo {
            shift: l1i
                .block_bytes()
                .trailing_zeros()
                .min(itlb.page_bytes.trailing_zeros()),
            last: None,
        }
    }

    /// The memo's key of `addr`: fetches with equal keys share one L1I
    /// line and one ITLB page.
    #[inline(always)]
    pub(crate) fn key(&self, addr: u64) -> u64 {
        addr >> self.shift
    }

    /// Records a fetch of `addr`; true if it repeats the previous fetch's
    /// line and page (a state-free hit in the L1I and the ITLB).
    #[inline(always)]
    pub(crate) fn repeats(&mut self, addr: u64) -> bool {
        let key = Some(self.key(addr));
        let repeat = self.last == key;
        self.last = key;
        repeat
    }
}

/// The level of the memory hierarchy that serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemLevel {
    /// Hit in the first-level cache.
    L1,
    /// Missed L1, hit the unified L2.
    L2,
    /// Missed both caches; serviced by main memory.
    Memory,
}

/// Geometry of the full hierarchy (split L1 caches, unified L2, split TLBs).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// Instruction L1 cache.
    pub l1i: CacheConfig,
    /// Data L1 cache.
    pub l1d: CacheConfig,
    /// Unified second-level cache.
    pub l2: CacheConfig,
    /// Instruction TLB.
    pub itlb: TlbConfig,
    /// Data TLB.
    pub dtlb: TlbConfig,
}

impl HierarchyConfig {
    /// The paper's default hierarchy (Table 2): 32 KB 4-way split L1s with
    /// 64-byte blocks, 512 KB 8-way unified L2, 32-entry TLBs.
    pub fn default_hierarchy() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig::new("L1I", 32 * 1024, 4, 64).expect("valid L1I"),
            l1d: CacheConfig::new("L1D", 32 * 1024, 4, 64).expect("valid L1D"),
            l2: CacheConfig::new("L2", 512 * 1024, 8, 64).expect("valid L2"),
            itlb: TlbConfig::default_tlb(),
            dtlb: TlbConfig::default_tlb(),
        }
    }

    /// Same hierarchy with a different L2 geometry (used by the Table 2
    /// design-space sweep).
    pub fn with_l2(mut self, l2: CacheConfig) -> HierarchyConfig {
        self.l2 = l2;
        self
    }
}

/// Per-event miss counters accumulated by a [`Hierarchy`].
///
/// These are exactly the `misses_i` inputs of the mechanistic model
/// (paper Table 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MissCounts {
    /// Instruction fetch accesses (one per executed instruction).
    pub inst_accesses: u64,
    /// Data accesses (loads + stores).
    pub data_accesses: u64,
    /// L1 instruction-cache misses.
    pub l1i_misses: u64,
    /// L2 misses on the instruction path.
    pub l2i_misses: u64,
    /// L1 data-cache misses (loads + stores).
    pub l1d_misses: u64,
    /// L2 misses on the data path.
    pub l2d_misses: u64,
    /// L1 data-cache misses due to loads only.
    pub l1d_load_misses: u64,
    /// L2 misses due to loads only.
    pub l2d_load_misses: u64,
    /// Instruction-TLB misses.
    pub itlb_misses: u64,
    /// Data-TLB misses.
    pub dtlb_misses: u64,
}

impl MissCounts {
    /// L1I misses that hit in L2.
    pub fn l1i_l2_hits(&self) -> u64 {
        self.l1i_misses - self.l2i_misses
    }

    /// L1D misses that hit in L2.
    pub fn l1d_l2_hits(&self) -> u64 {
        self.l1d_misses - self.l2d_misses
    }
}

/// A stateful two-level hierarchy: split L1I/L1D, unified L2, split TLBs.
///
/// One instance models one design point. The profiler and the pipeline
/// simulator both drive this type so that model and detailed simulation see
/// identical miss behaviour.
///
/// A fetch from the same L1I line and ITLB page as the previous fetch
/// skips both lookups and reports an L1 hit without a TLB miss. That is
/// exact: only fetches touch the L1I and the ITLB, so the previous
/// fetch's line and page are still most-recently-used in both, and
/// hitting them again changes no state. Such fetches still count in
/// [`MissCounts::inst_accesses`].
///
/// # Example
///
/// ```
/// use mim_cache::{Hierarchy, HierarchyConfig, MemAccessKind, MemLevel};
///
/// let mut h = Hierarchy::new(HierarchyConfig::default_hierarchy());
/// let (level, tlb_miss) = h.access(MemAccessKind::Load, 0x4000);
/// assert_eq!(level, MemLevel::Memory); // cold
/// assert!(tlb_miss);
/// let (level, tlb_miss) = h.access(MemAccessKind::Load, 0x4008);
/// assert_eq!(level, MemLevel::L1);
/// assert!(!tlb_miss);
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    config: HierarchyConfig,
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    l2: SetAssocCache,
    itlb: Tlb,
    dtlb: Tlb,
    fetch: FetchMemo,
    counts: MissCounts,
}

impl Hierarchy {
    /// Creates an empty hierarchy.
    pub fn new(config: HierarchyConfig) -> Hierarchy {
        Hierarchy {
            l1i: SetAssocCache::new(config.l1i.clone()),
            l1d: SetAssocCache::new(config.l1d.clone()),
            l2: SetAssocCache::new(config.l2.clone()),
            itlb: Tlb::new(config.itlb),
            dtlb: Tlb::new(config.dtlb),
            fetch: FetchMemo::new(&config.l1i, config.itlb),
            config,
            counts: MissCounts::default(),
        }
    }

    /// The hierarchy's geometry.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Accumulated miss counters.
    pub fn counts(&self) -> MissCounts {
        self.counts
    }

    /// Performs one access; returns the servicing level and whether the
    /// corresponding TLB missed.
    pub fn access(&mut self, kind: MemAccessKind, addr: u64) -> (MemLevel, bool) {
        match kind {
            MemAccessKind::Fetch => {
                self.counts.inst_accesses += 1;
                if self.fetch.repeats(addr) {
                    return (MemLevel::L1, false);
                }
                let tlb_miss = !self.itlb.access(addr).hit;
                if tlb_miss {
                    self.counts.itlb_misses += 1;
                }
                if self.l1i.access(addr).hit {
                    (MemLevel::L1, tlb_miss)
                } else {
                    self.counts.l1i_misses += 1;
                    if self.l2.access(addr).hit {
                        (MemLevel::L2, tlb_miss)
                    } else {
                        self.counts.l2i_misses += 1;
                        (MemLevel::Memory, tlb_miss)
                    }
                }
            }
            MemAccessKind::Load | MemAccessKind::Store => {
                self.counts.data_accesses += 1;
                let is_load = kind == MemAccessKind::Load;
                let tlb_miss = !self.dtlb.access(addr).hit;
                if tlb_miss {
                    self.counts.dtlb_misses += 1;
                }
                if self.l1d.access(addr).hit {
                    (MemLevel::L1, tlb_miss)
                } else {
                    self.counts.l1d_misses += 1;
                    if is_load {
                        self.counts.l1d_load_misses += 1;
                    }
                    if self.l2.access(addr).hit {
                        (MemLevel::L2, tlb_miss)
                    } else {
                        self.counts.l2d_misses += 1;
                        if is_load {
                            self.counts.l2d_load_misses += 1;
                        }
                        (MemLevel::Memory, tlb_miss)
                    }
                }
            }
        }
    }

    /// Functional warming: performs the access's *state* updates (cache
    /// fills, LRU recency, TLB refills) without touching the miss
    /// counters.
    ///
    /// This is the cheap update path sampled simulation drives between
    /// detailed sample units, so the hierarchy enters each unit with the
    /// state a full run would have while [`counts`](Hierarchy::counts)
    /// reflects measured events only. The fill and replacement decisions
    /// are identical to [`access`](Hierarchy::access): interleaving warm
    /// and counted accesses evolves the same state as counting them all.
    pub fn warm(&mut self, kind: MemAccessKind, addr: u64) {
        match kind {
            MemAccessKind::Fetch => {
                if !self.fetch.repeats(addr) {
                    self.itlb.access(addr);
                    if !self.l1i.access(addr).hit {
                        self.l2.access(addr);
                    }
                }
            }
            MemAccessKind::Load | MemAccessKind::Store => {
                self.dtlb.access(addr);
                if !self.l1d.access(addr).hit {
                    self.l2.access(addr);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_hierarchy() -> Hierarchy {
        Hierarchy::new(HierarchyConfig {
            l1i: CacheConfig::new("L1I", 1024, 2, 64).unwrap(),
            l1d: CacheConfig::new("L1D", 1024, 2, 64).unwrap(),
            l2: CacheConfig::new("L2", 8192, 4, 64).unwrap(),
            itlb: TlbConfig {
                entries: 2,
                page_bytes: 4096,
            },
            dtlb: TlbConfig {
                entries: 2,
                page_bytes: 4096,
            },
        })
    }

    #[test]
    fn cold_access_goes_to_memory_then_warms() {
        let mut h = small_hierarchy();
        assert_eq!(h.access(MemAccessKind::Load, 0).0, MemLevel::Memory);
        assert_eq!(h.access(MemAccessKind::Load, 0).0, MemLevel::L1);
        let c = h.counts();
        assert_eq!(c.l1d_misses, 1);
        assert_eq!(c.l2d_misses, 1);
        assert_eq!(c.data_accesses, 2);
    }

    #[test]
    fn l2_captures_l1_victims() {
        let mut h = small_hierarchy();
        // L1D: 1024B/2way/64B = 8 sets. Blocks 0, 8, 16 map to set 0.
        h.access(MemAccessKind::Load, 0);
        h.access(MemAccessKind::Load, 8 * 64);
        h.access(MemAccessKind::Load, 16 * 64); // evicts block 0 from L1
        let (level, _) = h.access(MemAccessKind::Load, 0); // still in L2
        assert_eq!(level, MemLevel::L2);
    }

    #[test]
    fn instruction_and_data_paths_are_split() {
        let mut h = small_hierarchy();
        h.access(MemAccessKind::Fetch, 0);
        let c = h.counts();
        assert_eq!(c.l1i_misses, 1);
        assert_eq!(c.l1d_misses, 0);
        // data access at same address misses L1D but hits unified L2
        let (level, _) = h.access(MemAccessKind::Load, 0);
        assert_eq!(level, MemLevel::L2);
    }

    #[test]
    fn load_only_counters_exclude_stores() {
        let mut h = small_hierarchy();
        h.access(MemAccessKind::Store, 0); // cold store miss
        h.access(MemAccessKind::Load, 4096 * 8); // cold load miss, far page
        let c = h.counts();
        assert_eq!(c.l1d_misses, 2);
        assert_eq!(c.l1d_load_misses, 1);
        assert_eq!(c.l2d_load_misses, 1);
    }

    #[test]
    fn tlb_misses_counted_per_side() {
        let mut h = small_hierarchy();
        h.access(MemAccessKind::Fetch, 0);
        h.access(MemAccessKind::Load, 0);
        h.access(MemAccessKind::Load, 4096);
        h.access(MemAccessKind::Load, 2 * 4096); // evicts page 0 from 2-entry DTLB
        h.access(MemAccessKind::Load, 0);
        let c = h.counts();
        assert_eq!(c.itlb_misses, 1);
        assert_eq!(c.dtlb_misses, 4);
    }

    #[test]
    fn warming_updates_state_but_not_counters() {
        let mut warmed = small_hierarchy();
        warmed.warm(MemAccessKind::Load, 0);
        warmed.warm(MemAccessKind::Fetch, 4096);
        assert_eq!(warmed.counts(), MissCounts::default());
        // The warmed lines/pages now hit, exactly as if `access` had
        // brought them in.
        let (level, tlb_miss) = warmed.access(MemAccessKind::Load, 0);
        assert_eq!(level, MemLevel::L1);
        assert!(!tlb_miss);
        let (level, tlb_miss) = warmed.access(MemAccessKind::Fetch, 4096);
        assert_eq!(level, MemLevel::L1);
        assert!(!tlb_miss);

        // Warm and counted accesses evolve identical cache state: a
        // warm-then-access sequence leaves the same hit/miss future as
        // access-then-access, differing only in what was counted.
        let mut via_warm = small_hierarchy();
        let mut via_access = small_hierarchy();
        let addrs = [0u64, 8 * 64, 16 * 64, 0, 4096, 2 * 4096, 64];
        for (i, &addr) in addrs.iter().enumerate() {
            if i % 2 == 0 {
                via_warm.warm(MemAccessKind::Load, addr);
            } else {
                via_warm.access(MemAccessKind::Load, addr);
            }
            via_access.access(MemAccessKind::Load, addr);
        }
        for &addr in &addrs {
            assert_eq!(
                via_warm.access(MemAccessKind::Load, addr).0,
                via_access.access(MemAccessKind::Load, addr).0,
                "state diverged at {addr:#x}"
            );
        }
    }

    #[test]
    fn l2_hit_helpers() {
        let c = MissCounts {
            l1i_misses: 10,
            l2i_misses: 3,
            l1d_misses: 20,
            l2d_misses: 5,
            ..MissCounts::default()
        };
        assert_eq!(c.l1i_l2_hits(), 7);
        assert_eq!(c.l1d_l2_hits(), 15);
    }
}
