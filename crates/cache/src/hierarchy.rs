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
    fn key(&self, addr: u64) -> u64 {
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

    /// Splits the fetch addresses of one straight-line stretch of code, in
    /// program order, into [`FetchRun`]s: a new run starts wherever the
    /// key (the L1I line or the ITLB page) changes.
    pub(crate) fn runs(&self, addrs: impl IntoIterator<Item = u64>) -> Vec<FetchRun> {
        let mut runs: Vec<FetchRun> = Vec::new();
        for (offset, addr) in (0u32..).zip(addrs) {
            match runs.last_mut() {
                Some(run) if self.key(run.addr) == self.key(addr) => run.len += 1,
                _ => runs.push(FetchRun {
                    offset,
                    addr,
                    len: 1,
                }),
            }
        }
        runs
    }
}

/// Consecutive instruction fetches of one straight-line stretch of code
/// that share an L1I line and an ITLB page: only the first can miss, and
/// the rest repeat it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchRun {
    /// Position of the run's first fetch in the stretch.
    pub offset: u32,
    /// Address of the run's first fetch.
    pub addr: u64,
    /// Fetches in the run.
    pub len: u32,
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

/// A stateful two-level hierarchy: split L1I/L1D and split TLBs in front
/// of one or many unified L2 candidates.
///
/// One design point has one candidate ([`new`](Hierarchy::new)). A sweep
/// has the whole L2 axis ([`sweep`](Hierarchy::sweep)), the paper's
/// single-pass profiling trick (§2.1): the L1 geometry is fixed across the
/// design space (Table 2), so the L1 filter, and hence the L2 reference
/// stream, is the same for every candidate, and one pass warms them all.
/// The profiler and the pipeline simulator both drive this type, so model
/// and detailed simulation see identical miss behaviour.
///
/// A fetch from the same L1I line and ITLB page as the previous fetch
/// skips both lookups and every L2 candidate, and reports an L1 hit
/// without a TLB miss. That is exact: only fetches touch the L1I and the
/// ITLB, so the previous fetch's line and page are still most-recently-used
/// in both, and hitting them again changes no state. Such fetches still
/// count in [`MissCounts::inst_accesses`].
///
/// # Example
///
/// ```
/// use mim_cache::{CacheConfig, Hierarchy, HierarchyConfig, MemAccessKind, MemLevel};
///
/// let mut h = Hierarchy::new(HierarchyConfig::default_hierarchy());
/// let (level, tlb_miss) = h.access(MemAccessKind::Load, 0x4000);
/// assert_eq!(level, MemLevel::Memory); // cold
/// assert!(tlb_miss);
/// let (level, tlb_miss) = h.access(MemAccessKind::Load, 0x4008);
/// assert_eq!(level, MemLevel::L1);
/// assert!(!tlb_miss);
///
/// // Two L2 candidates behind one L1 front, in one pass.
/// let l2s = vec![
///     CacheConfig::new("L2-128K", 128 * 1024, 8, 64).unwrap(),
///     CacheConfig::new("L2-1M", 1024 * 1024, 8, 64).unwrap(),
/// ];
/// let mut sweep = Hierarchy::sweep(&HierarchyConfig::default_hierarchy(), l2s);
/// for i in 0..1000u64 {
///     sweep.access(MemAccessKind::Load, i * 64);
/// }
/// assert!(sweep.counts(1).l2d_misses <= sweep.counts(0).l2d_misses);
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    itlb: Tlb,
    dtlb: Tlb,
    fetch: FetchMemo,
    /// The L1 and TLB counts, shared by every candidate (the L2 fields
    /// stay zero).
    base: MissCounts,
    l2s: Vec<L2>,
}

/// One L2 candidate and its misses.
#[derive(Debug, Clone)]
struct L2 {
    cache: SetAssocCache,
    inst_misses: u64,
    data_misses: u64,
    load_misses: u64,
}

impl Hierarchy {
    /// Creates an empty hierarchy of one design point: its L2 is the one
    /// candidate.
    pub fn new(config: HierarchyConfig) -> Hierarchy {
        let l2 = config.l2.clone();
        Hierarchy::sweep(&config, vec![l2])
    }

    /// Creates an empty hierarchy with `base`'s L1 and TLB geometry in
    /// front of every cache of `l2s` (`base.l2` is not used). With no
    /// candidate, every L1 miss goes to memory.
    pub fn sweep(base: &HierarchyConfig, l2s: Vec<CacheConfig>) -> Hierarchy {
        Hierarchy {
            l1i: SetAssocCache::new(base.l1i.clone()),
            l1d: SetAssocCache::new(base.l1d.clone()),
            itlb: Tlb::new(base.itlb),
            dtlb: Tlb::new(base.dtlb),
            fetch: FetchMemo::new(&base.l1i, base.itlb),
            base: MissCounts::default(),
            l2s: l2s
                .into_iter()
                .map(|cache| L2 {
                    cache: SetAssocCache::new(cache),
                    inst_misses: 0,
                    data_misses: 0,
                    load_misses: 0,
                })
                .collect(),
        }
    }

    /// Number of L2 candidates.
    pub fn candidates(&self) -> usize {
        self.l2s.len()
    }

    /// Accumulated miss counters under the `i`-th L2 candidate.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.candidates()`.
    pub fn counts(&self, i: usize) -> MissCounts {
        let l2 = &self.l2s[i];
        MissCounts {
            l2i_misses: l2.inst_misses,
            l2d_misses: l2.data_misses,
            l2d_load_misses: l2.load_misses,
            ..self.base
        }
    }

    /// Splits the fetch addresses of one straight-line stretch of code, in
    /// program order, into [`FetchRun`]s: a new run starts wherever the
    /// L1I line or the ITLB page changes. Once a run's first address is
    /// fetched, each later fetch of the run is an L1 hit without a TLB
    /// miss that changes no state and only counts in
    /// [`MissCounts::inst_accesses`].
    pub fn fetch_runs(&self, addrs: impl IntoIterator<Item = u64>) -> Vec<FetchRun> {
        self.fetch.runs(addrs)
    }

    /// Charges the fetches of `run`: counts them all in `inst_accesses`
    /// and sends the first to the memo, the ITLB, the L1I and, on an L1I
    /// miss, every L2 candidate. Returns what
    /// [`access`](Hierarchy::access) returns for the first fetch. The L2s
    /// are unified, so the caller sends a run at its first fetch, in
    /// program order with the data accesses.
    #[inline]
    pub fn fetch_run(&mut self, run: &FetchRun) -> (MemLevel, bool) {
        let addr = run.addr;
        self.base.inst_accesses += u64::from(run.len);
        if self.fetch.repeats(addr) {
            return (MemLevel::L1, false);
        }
        let tlb_miss = !self.itlb.access(addr).hit;
        self.base.itlb_misses += u64::from(tlb_miss);
        if self.l1i.access(addr).hit {
            return (MemLevel::L1, tlb_miss);
        }
        self.base.l1i_misses += 1;
        (self.l2_access(MemAccessKind::Fetch, addr), tlb_miss)
    }

    /// Performs one access; returns the servicing level under the first
    /// L2 candidate and whether the corresponding TLB missed. A fetch is
    /// a one-fetch [`fetch_run`](Hierarchy::fetch_run).
    ///
    /// Always inlined, so the TLB and cache lookups it inlines in turn
    /// do not push it out of a simulator's per-instruction loop.
    #[inline(always)]
    pub fn access(&mut self, kind: MemAccessKind, addr: u64) -> (MemLevel, bool) {
        if kind == MemAccessKind::Fetch {
            return self.fetch_run(&FetchRun {
                offset: 0,
                addr,
                len: 1,
            });
        }
        let load = kind == MemAccessKind::Load;
        self.base.data_accesses += 1;
        let tlb_miss = !self.dtlb.access(addr).hit;
        self.base.dtlb_misses += u64::from(tlb_miss);
        if self.l1d.access(addr).hit {
            return (MemLevel::L1, tlb_miss);
        }
        self.base.l1d_misses += 1;
        self.base.l1d_load_misses += u64::from(load);
        (self.l2_access(kind, addr), tlb_miss)
    }

    /// Sends an L1 miss to every L2 candidate and counts each one's miss;
    /// returns the level that serviced it under the first candidate.
    fn l2_access(&mut self, kind: MemAccessKind, addr: u64) -> MemLevel {
        let mut level = None;
        for l2 in &mut self.l2s {
            let hit = l2.cache.access(addr).hit;
            if !hit {
                match kind {
                    MemAccessKind::Fetch => l2.inst_misses += 1,
                    MemAccessKind::Load => {
                        l2.data_misses += 1;
                        l2.load_misses += 1;
                    }
                    MemAccessKind::Store => l2.data_misses += 1,
                }
            }
            level.get_or_insert(if hit { MemLevel::L2 } else { MemLevel::Memory });
        }
        level.unwrap_or(MemLevel::Memory)
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
    #[inline]
    pub fn warm(&mut self, kind: MemAccessKind, addr: u64) {
        let (tlb, l1) = match kind {
            MemAccessKind::Fetch if self.fetch.repeats(addr) => return,
            MemAccessKind::Fetch => (&mut self.itlb, &mut self.l1i),
            MemAccessKind::Load | MemAccessKind::Store => (&mut self.dtlb, &mut self.l1d),
        };
        tlb.access(addr);
        if !l1.access(addr).hit {
            for l2 in &mut self.l2s {
                l2.cache.access(addr);
            }
        }
    }
}

/// The static fetch runs of the basic blocks seen so far, by entry pc, and
/// a countdown of where the current block execution stands among them.
///
/// A driver that sees whole blocks calls [`begin`](BlockFetches::begin)
/// at each block's entry and [`step`](BlockFetches::step) before each of
/// its instructions. Inside a block, only an instruction that starts a
/// fetch run needs to reach the hierarchy: every other fetch repeats the
/// previous one's L1I line and ITLB page, which the fetch memo answers as
/// an L1 hit without a TLB miss that changes no state. Outside a block
/// ([`in_block`](BlockFetches::in_block) false) every fetch goes to the
/// hierarchy.
#[derive(Debug, Clone, Default)]
pub struct BlockFetches {
    /// Index in `runs` of each entry pc's first run (`u32::MAX` for blocks
    /// not seen yet).
    first: Vec<u32>,
    /// Every seen block's fetch runs, in program order, block after block.
    runs: Vec<FetchRun>,
    /// Instructions of the current block execution still to arrive; 0
    /// outside a block.
    left: u64,
    /// `left` at the first instruction of the next fetch run, or 0 when
    /// the block has none left.
    run_at: u64,
    /// Index in `runs` of the next fetch run.
    next: usize,
}

impl BlockFetches {
    /// Enters the block at `entry_pc` of `len` instructions. The first
    /// time the block is seen, `addrs` gives its fetch addresses in
    /// program order, and `hierarchy` splits them into runs.
    ///
    /// # Panics
    ///
    /// Panics if the block's addresses are not `len` long: counting a
    /// block down from its length relies on every instruction retiring
    /// exactly once per whole execution.
    pub fn begin<I: IntoIterator<Item = u64>>(
        &mut self,
        hierarchy: &Hierarchy,
        entry_pc: u32,
        len: u64,
        addrs: impl FnOnce() -> I,
    ) {
        let pc = entry_pc as usize;
        if pc >= self.first.len() {
            self.first.resize(pc + 1, u32::MAX);
        }
        if self.first[pc] == u32::MAX {
            let runs = hierarchy.fetch_runs(addrs());
            let fetches: u64 = runs.iter().map(|run| u64::from(run.len)).sum();
            assert_eq!(fetches, len, "block at pc {entry_pc}: fetches vs length");
            self.first[pc] = self.runs.len() as u32;
            self.runs.extend(runs);
        }
        self.next = self.first[pc] as usize;
        self.left = len;
        self.run_at = len;
    }

    /// True while instructions of the current block execution are still
    /// to arrive.
    #[inline(always)]
    pub fn in_block(&self) -> bool {
        self.left > 0
    }

    /// Advances past the block's instruction about to retire; returns the
    /// fetch run it starts, if it starts one. Call only
    /// [`in_block`](BlockFetches::in_block).
    #[inline(always)]
    pub fn step(&mut self) -> Option<FetchRun> {
        let starts = self.left == self.run_at;
        let run = starts.then(|| {
            let run = self.runs[self.next];
            self.run_at = self.left - u64::from(run.len);
            self.next += 1;
            run
        });
        self.left -= 1;
        run
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
        let c = h.counts(0);
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
        let c = h.counts(0);
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
        let c = h.counts(0);
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
        let c = h.counts(0);
        assert_eq!(c.itlb_misses, 1);
        assert_eq!(c.dtlb_misses, 4);
    }

    #[test]
    fn warming_updates_state_but_not_counters() {
        let mut warmed = small_hierarchy();
        warmed.warm(MemAccessKind::Load, 0);
        warmed.warm(MemAccessKind::Fetch, 4096);
        assert_eq!(warmed.counts(0), MissCounts::default());
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

    fn base() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig::new("L1I", 1024, 2, 64).unwrap(),
            l1d: CacheConfig::new("L1D", 1024, 2, 64).unwrap(),
            l2: CacheConfig::new("L2", 8192, 4, 64).unwrap(),
            itlb: TlbConfig::default_tlb(),
            dtlb: TlbConfig::default_tlb(),
        }
    }

    /// A many-candidate sweep must agree exactly with simulating each
    /// hierarchy independently.
    #[test]
    fn matches_independent_hierarchies() {
        let base_cfg = base();
        let l2a = CacheConfig::new("L2a", 4096, 4, 64).unwrap();
        let l2b = CacheConfig::new("L2b", 16384, 8, 64).unwrap();

        let mut sweep = Hierarchy::sweep(&base_cfg, vec![l2a.clone(), l2b.clone()]);
        let mut ha = Hierarchy::new(base_cfg.clone().with_l2(l2a));
        let mut hb = Hierarchy::new(base_cfg.clone().with_l2(l2b));

        let mut x: u64 = 0xdeadbeef;
        for i in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let kind = match x % 3 {
                0 => MemAccessKind::Fetch,
                1 => MemAccessKind::Load,
                _ => MemAccessKind::Store,
            };
            let addr = ((x >> 16) % 262_144) & !7;
            sweep.access(kind, addr);
            ha.access(kind, addr);
            hb.access(kind, addr);
            if i == 10_000 {
                // spot-check mid-run too
                assert_eq!(sweep.counts(0), ha.counts(0));
            }
        }
        assert_eq!(sweep.counts(0), ha.counts(0));
        assert_eq!(sweep.counts(1), hb.counts(0));
    }

    /// Charging straight-line stretches run by run counts exactly what
    /// fetching one instruction at a time does, whether lines are smaller or larger
    /// than pages.
    #[test]
    fn fetch_runs_match_single_fetches() {
        for (line, page) in [(64, 4096), (256, 64)] {
            let cfg = HierarchyConfig {
                l1i: CacheConfig::new("L1I", 2048, 2, line).unwrap(),
                itlb: TlbConfig {
                    entries: 4,
                    page_bytes: page,
                },
                ..base()
            };
            let l2s = vec![CacheConfig::new("L2", 4096, 1, 64).unwrap()];
            let mut runs = Hierarchy::sweep(&cfg, l2s.clone());
            let mut single = Hierarchy::sweep(&cfg, l2s);
            let mut x: u64 = 7;
            for _ in 0..2_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let start = ((x >> 20) % 8192) & !3;
                let addrs: Vec<u64> = (0..(x >> 8) % 40).map(|i| start + 4 * i).collect();
                for run in runs.fetch_runs(addrs.iter().copied()) {
                    assert_eq!(addrs[run.offset as usize], run.addr);
                    runs.fetch_run(&run);
                }
                for &addr in &addrs {
                    single.access(MemAccessKind::Fetch, addr);
                }
                // A data access between stretches shares the L2.
                runs.access(MemAccessKind::Load, x >> 40);
                single.access(MemAccessKind::Load, x >> 40);
            }
            assert_eq!(
                runs.counts(0),
                single.counts(0),
                "{line} B lines, {page} B pages"
            );
        }
    }

    #[test]
    fn larger_l2_never_misses_more() {
        let base_cfg = base();
        let l2s: Vec<CacheConfig> = [4096u64, 8192, 16384, 32768]
            .iter()
            .map(|&s| CacheConfig::new(format!("L2-{s}"), s, 8, 64).unwrap())
            .collect();
        let mut sweep = Hierarchy::sweep(&base_cfg, l2s);
        let mut x: u64 = 42;
        for _ in 0..50_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            sweep.access(MemAccessKind::Load, ((x >> 12) % 131_072) & !7);
        }
        for i in 1..sweep.candidates() {
            assert!(
                sweep.counts(i).l2d_misses <= sweep.counts(i - 1).l2d_misses,
                "LRU inclusion violated between configs {} and {}",
                i - 1,
                i
            );
        }
    }

    /// Without an L2 candidate every L1 miss goes to memory, and the
    /// L1 and TLB counts are still kept.
    #[test]
    fn no_candidate_sends_l1_misses_to_memory() {
        let mut h = Hierarchy::sweep(&base(), Vec::new());
        assert_eq!(h.candidates(), 0);
        assert_eq!(h.access(MemAccessKind::Load, 0), (MemLevel::Memory, true));
        assert_eq!(h.access(MemAccessKind::Fetch, 64), (MemLevel::Memory, true));
        assert_eq!(h.access(MemAccessKind::Load, 8), (MemLevel::L1, false));
        h.warm(MemAccessKind::Store, 4096);
        assert_eq!(h.access(MemAccessKind::Store, 4096), (MemLevel::L1, false));
    }

    /// The countdown hands out each of a block's fetch runs at the
    /// instruction that starts it, every time the block runs.
    #[test]
    fn block_countdown_yields_each_run_at_its_start() {
        let h = Hierarchy::new(base());
        let addrs: Vec<u64> = (0..40).map(|i| 0x1f0 + 4 * i).collect();
        let runs = h.fetch_runs(addrs.iter().copied());
        let mut fetches = BlockFetches::default();
        assert!(!fetches.in_block());
        for _ in 0..2 {
            fetches.begin(&h, 7, addrs.len() as u64, || addrs.iter().copied());
            let mut seen = Vec::new();
            for offset in 0..addrs.len() as u32 {
                assert!(fetches.in_block());
                if let Some(run) = fetches.step() {
                    assert_eq!(run.offset, offset);
                    seen.push(run);
                }
            }
            assert!(!fetches.in_block());
            assert_eq!(seen, runs);
        }
    }
}
