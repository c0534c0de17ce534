//! Single-pass simulation of many L2 configurations at once.

use crate::cache::SetAssocCache;
use crate::config::CacheConfig;
use crate::hierarchy::{FetchMemo, HierarchyConfig, MemAccessKind, MissCounts};
use crate::tlb::Tlb;

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

/// Simulates one set of L1 caches/TLBs together with *many* candidate L2
/// configurations in a single pass over the access stream.
///
/// This is the paper's single-pass profiling trick (§2.1): because L1
/// geometry is fixed across the design space (Table 2), the L1 filter — and
/// hence the L2 reference stream — is identical for every L2 candidate, so
/// all candidates can be warmed simultaneously. One profiling run then
/// yields the `misses_i` model inputs for every design point.
///
/// Like [`Hierarchy`](crate::Hierarchy), a fetch from the same L1I line
/// and ITLB page as the previous fetch skips the shared L1I, the ITLB and
/// every L2 candidate. Only fetches touch the L1I and the ITLB, so that
/// line and page are still most-recently-used in both and the repeat is a
/// hit that changes no state; it still counts in `inst_accesses`.
///
/// [`fetch_run`](MultiConfig::fetch_run) charges a whole [`FetchRun`]
/// (consecutive fetches that share one line and page, split off by
/// [`fetch_runs`](MultiConfig::fetch_runs)) at once, and
/// `access(Fetch, addr)` is exactly a one-fetch run. The L2s are unified,
/// so the caller sends a run at its first fetch, in program order with the
/// data accesses.
///
/// # Example
///
/// ```
/// use mim_cache::{CacheConfig, HierarchyConfig, MemAccessKind, MultiConfig};
///
/// let base = HierarchyConfig::default_hierarchy();
/// let l2s = vec![
///     CacheConfig::new("L2-128K", 128 * 1024, 8, 64).unwrap(),
///     CacheConfig::new("L2-1M", 1024 * 1024, 8, 64).unwrap(),
/// ];
/// let mut multi = MultiConfig::new(&base, l2s);
/// for i in 0..1000u64 {
///     multi.access(MemAccessKind::Load, i * 64);
/// }
/// let small = multi.counts(0);
/// let large = multi.counts(1);
/// assert!(large.l2d_misses <= small.l2d_misses);
/// ```
#[derive(Debug, Clone)]
pub struct MultiConfig {
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    itlb: Tlb,
    dtlb: Tlb,
    l2s: Vec<SetAssocCache>,
    fetch: FetchMemo,
    /// Shared L1/TLB counters (identical across configs).
    base: MissCounts,
    /// Per-config L2 miss counters.
    l2i_misses: Vec<u64>,
    l2d_misses: Vec<u64>,
    l2d_load_misses: Vec<u64>,
}

impl MultiConfig {
    /// Creates a sweep sharing `base`'s L1/TLB geometry across all `l2s`.
    pub fn new(base: &HierarchyConfig, l2s: Vec<CacheConfig>) -> MultiConfig {
        let n = l2s.len();
        MultiConfig {
            l1i: SetAssocCache::new(base.l1i.clone()),
            l1d: SetAssocCache::new(base.l1d.clone()),
            itlb: Tlb::new(base.itlb),
            dtlb: Tlb::new(base.dtlb),
            l2s: l2s.into_iter().map(SetAssocCache::new).collect(),
            fetch: FetchMemo::new(&base.l1i, base.itlb),
            base: MissCounts::default(),
            l2i_misses: vec![0; n],
            l2d_misses: vec![0; n],
            l2d_load_misses: vec![0; n],
        }
    }

    /// Number of L2 configurations being simulated.
    pub fn num_configs(&self) -> usize {
        self.l2s.len()
    }

    /// Splits the fetch addresses of one straight-line stretch of code, in
    /// program order, into [`FetchRun`]s: a new run starts wherever the
    /// L1I line or the ITLB page changes.
    pub fn fetch_runs(&self, addrs: impl IntoIterator<Item = u64>) -> Vec<FetchRun> {
        let mut runs: Vec<FetchRun> = Vec::new();
        for (offset, addr) in (0u32..).zip(addrs) {
            match runs.last_mut() {
                Some(run) if self.fetch.key(run.addr) == self.fetch.key(addr) => run.len += 1,
                _ => runs.push(FetchRun {
                    offset,
                    addr,
                    len: 1,
                }),
            }
        }
        runs
    }

    /// Charges the fetches of `run`: counts them all in `inst_accesses`
    /// and sends the first to the memo, the ITLB, the L1I and, on an L1I
    /// miss, every L2 candidate.
    #[inline]
    pub fn fetch_run(&mut self, run: &FetchRun) {
        let addr = run.addr;
        self.base.inst_accesses += u64::from(run.len);
        if self.fetch.repeats(addr) {
            return;
        }
        if !self.itlb.access(addr).hit {
            self.base.itlb_misses += 1;
        }
        if !self.l1i.access(addr).hit {
            self.base.l1i_misses += 1;
            for (i, l2) in self.l2s.iter_mut().enumerate() {
                if !l2.access(addr).hit {
                    self.l2i_misses[i] += 1;
                }
            }
        }
    }

    /// Performs one access against the shared L1s and every L2 candidate.
    pub fn access(&mut self, kind: MemAccessKind, addr: u64) {
        match kind {
            MemAccessKind::Fetch => {
                self.fetch_run(&FetchRun {
                    offset: 0,
                    addr,
                    len: 1,
                });
            }
            MemAccessKind::Load | MemAccessKind::Store => {
                self.base.data_accesses += 1;
                let is_load = kind == MemAccessKind::Load;
                if !self.dtlb.access(addr).hit {
                    self.base.dtlb_misses += 1;
                }
                if !self.l1d.access(addr).hit {
                    self.base.l1d_misses += 1;
                    if is_load {
                        self.base.l1d_load_misses += 1;
                    }
                    for (i, l2) in self.l2s.iter_mut().enumerate() {
                        if !l2.access(addr).hit {
                            self.l2d_misses[i] += 1;
                            if is_load {
                                self.l2d_load_misses[i] += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Miss counters for the `config_index`-th L2 candidate.
    ///
    /// # Panics
    ///
    /// Panics if `config_index >= self.num_configs()`.
    pub fn counts(&self, config_index: usize) -> MissCounts {
        MissCounts {
            l2i_misses: self.l2i_misses[config_index],
            l2d_misses: self.l2d_misses[config_index],
            l2d_load_misses: self.l2d_load_misses[config_index],
            ..self.base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::Hierarchy;

    fn base() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig::new("L1I", 1024, 2, 64).unwrap(),
            l1d: CacheConfig::new("L1D", 1024, 2, 64).unwrap(),
            l2: CacheConfig::new("L2", 8192, 4, 64).unwrap(),
            itlb: crate::config::TlbConfig::default_tlb(),
            dtlb: crate::config::TlbConfig::default_tlb(),
        }
    }

    /// The multi-config sweep must agree exactly with simulating each
    /// hierarchy independently.
    #[test]
    fn matches_independent_hierarchies() {
        let base_cfg = base();
        let l2a = CacheConfig::new("L2a", 4096, 4, 64).unwrap();
        let l2b = CacheConfig::new("L2b", 16384, 8, 64).unwrap();

        let mut multi = MultiConfig::new(&base_cfg, vec![l2a.clone(), l2b.clone()]);
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
            multi.access(kind, addr);
            ha.access(kind, addr);
            hb.access(kind, addr);
            if i == 10_000 {
                // spot-check mid-run too
                assert_eq!(multi.counts(0), ha.counts());
            }
        }
        assert_eq!(multi.counts(0), ha.counts());
        assert_eq!(multi.counts(1), hb.counts());
    }

    /// Charging straight-line stretches run by run counts exactly what
    /// fetching one instruction at a time does, whether lines are smaller or larger
    /// than pages.
    #[test]
    fn fetch_runs_match_single_fetches() {
        for (line, page) in [(64, 4096), (256, 64)] {
            let cfg = HierarchyConfig {
                l1i: CacheConfig::new("L1I", 2048, 2, line).unwrap(),
                itlb: crate::config::TlbConfig {
                    entries: 4,
                    page_bytes: page,
                },
                ..base()
            };
            let l2s = vec![CacheConfig::new("L2", 4096, 1, 64).unwrap()];
            let mut runs = MultiConfig::new(&cfg, l2s.clone());
            let mut single = MultiConfig::new(&cfg, l2s);
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
        let mut multi = MultiConfig::new(&base_cfg, l2s);
        let mut x: u64 = 42;
        for _ in 0..50_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            multi.access(MemAccessKind::Load, ((x >> 12) % 131_072) & !7);
        }
        for i in 1..multi.num_configs() {
            assert!(
                multi.counts(i).l2d_misses <= multi.counts(i - 1).l2d_misses,
                "LRU inclusion violated between configs {} and {}",
                i - 1,
                i
            );
        }
    }
}
