//! Property-based tests for the cache substrate.

use mim_cache::{
    CacheConfig, Hierarchy, HierarchyConfig, MemAccessKind, MemLevel, MissCounts, SetAssocCache,
    StackDistance, Tlb, TlbConfig,
};
use proptest::prelude::*;

/// A reference fully-associative LRU cache (linear scan).
struct NaiveLru {
    stack: Vec<u64>,
    capacity: usize,
    misses: u64,
}

impl NaiveLru {
    fn new(capacity: usize) -> NaiveLru {
        NaiveLru {
            stack: Vec::new(),
            capacity,
            misses: 0,
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

/// The set-associative LRU as a way search and a rotation: a hit rotates
/// the hit way to MRU, a miss rotates the whole set and writes the block
/// into the MRU way.
struct RotateLru {
    /// Tags per set, most-recently-used first.
    tags: Vec<u64>,
    block_bytes: u64,
    sets: u64,
    ways: usize,
}

impl RotateLru {
    fn new(size: u64, ways: usize, block_bytes: u64) -> RotateLru {
        let sets = size / block_bytes / ways as u64;
        RotateLru {
            tags: vec![u64::MAX; sets as usize * ways],
            block_bytes,
            sets,
            ways,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let block = addr / self.block_bytes;
        let base = (block % self.sets) as usize * self.ways;
        let set = &mut self.tags[base..base + self.ways];
        if let Some(pos) = set.iter().position(|&t| t == block) {
            set[..=pos].rotate_right(1);
            true
        } else {
            set.rotate_right(1);
            set[0] = block;
            false
        }
    }
}

/// A memo-free reference for one L1/TLB geometry and several L2s, built
/// from the plain parts: every fetch looks up the ITLB and the L1I.
struct PlainHierarchies {
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    itlb: Tlb,
    dtlb: Tlb,
    l2s: Vec<SetAssocCache>,
    counts: Vec<MissCounts>,
}

impl PlainHierarchies {
    fn new(base: &HierarchyConfig, l2s: &[CacheConfig]) -> PlainHierarchies {
        PlainHierarchies {
            l1i: SetAssocCache::new(base.l1i.clone()),
            l1d: SetAssocCache::new(base.l1d.clone()),
            itlb: Tlb::new(base.itlb),
            dtlb: Tlb::new(base.dtlb),
            l2s: l2s.iter().cloned().map(SetAssocCache::new).collect(),
            counts: vec![MissCounts::default(); l2s.len()],
        }
    }

    /// One access, counted unless `warm`; returns the servicing level
    /// under each L2 and whether the TLB missed.
    fn access(&mut self, kind: MemAccessKind, addr: u64, warm: bool) -> (Vec<MemLevel>, bool) {
        let fetch = kind == MemAccessKind::Fetch;
        let load = kind == MemAccessKind::Load;
        let (tlb, l1) = if fetch {
            (&mut self.itlb, &mut self.l1i)
        } else {
            (&mut self.dtlb, &mut self.l1d)
        };
        let tlb_miss = !tlb.access(addr).hit;
        let l1_hit = l1.access(addr).hit;
        let levels: Vec<MemLevel> = self
            .l2s
            .iter_mut()
            .map(|l2| {
                if l1_hit {
                    MemLevel::L1
                } else if l2.access(addr).hit {
                    MemLevel::L2
                } else {
                    MemLevel::Memory
                }
            })
            .collect();
        if !warm {
            for (c, &level) in self.counts.iter_mut().zip(&levels) {
                let (l1_miss, l2_miss) = (level != MemLevel::L1, level == MemLevel::Memory);
                let n = u64::from;
                if fetch {
                    c.inst_accesses += 1;
                    c.itlb_misses += n(tlb_miss);
                    c.l1i_misses += n(l1_miss);
                    c.l2i_misses += n(l2_miss);
                } else {
                    c.data_accesses += 1;
                    c.dtlb_misses += n(tlb_miss);
                    c.l1d_misses += n(l1_miss);
                    c.l2d_misses += n(l2_miss);
                    c.l1d_load_misses += n(l1_miss && load);
                    c.l2d_load_misses += n(l2_miss && load);
                }
            }
        }
        (levels, tlb_miss)
    }
}

/// A base hierarchy whose L1I lines are `line` bytes and whose ITLB pages
/// are `page` bytes.
fn fetch_geometry(line: u64, page: u64) -> HierarchyConfig {
    HierarchyConfig {
        l1i: CacheConfig::new("L1I", 4 * line, 2, line).unwrap(),
        l1d: CacheConfig::new("L1D", 512, 2, 64).unwrap(),
        l2: CacheConfig::new("L2", 2048, 4, 64).unwrap(),
        itlb: TlbConfig {
            entries: 2,
            page_bytes: page,
        },
        dtlb: TlbConfig {
            entries: 2,
            page_bytes: 256,
        },
    }
}

/// Fetch runs of consecutive instructions (many fetches in one line),
/// loads and stores, each marked counted or warm: `(op, word, run, warm)`.
fn fetch_run_stream() -> impl Strategy<Value = Vec<(u64, u64, u64, u64)>> {
    proptest::collection::vec((0u64..6, 0u64..1024, 1u64..24, 0u64..4), 20..200)
}

fn addr_stream() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..4096, 50..800)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A one-set W-way SetAssocCache is exactly a W-entry LRU stack.
    #[test]
    fn fully_associative_cache_matches_reference(blocks in addr_stream(), ways_log in 1u32..5) {
        let ways = 1u32 << ways_log;
        let config = CacheConfig::new("fa", 64 * u64::from(ways), ways, 64).unwrap();
        let mut cache = SetAssocCache::new(config);
        let mut reference = NaiveLru::new(ways as usize);
        let mut misses = 0;
        for &b in &blocks {
            misses += u64::from(!cache.access(b * 64).hit);
            reference.access(b);
        }
        prop_assert_eq!(misses, reference.misses);
    }

    /// `SetAssocCache::access` and the TLB built on it answer every access
    /// as the rotating reference does, on a direct-mapped and a 4-way
    /// cache and a 32-entry TLB. Addresses fall on 256 blocks or pages, so
    /// each geometry sees hits in every way and conflict misses.
    #[test]
    fn single_pass_lru_matches_rotating_reference(
        accesses in proptest::collection::vec((0u64..256, 0u64..4096), 50..800),
    ) {
        let mut direct = SetAssocCache::new(CacheConfig::new("dm", 4096, 1, 64).unwrap());
        let mut four = SetAssocCache::new(CacheConfig::new("4w", 8192, 4, 64).unwrap());
        let mut tlb = Tlb::new(TlbConfig { entries: 32, page_bytes: 4096 });
        let mut direct_ref = RotateLru::new(4096, 1, 64);
        let mut four_ref = RotateLru::new(8192, 4, 64);
        let mut tlb_ref = RotateLru::new(32 * 4096, 32, 4096);
        for (i, &(unit, offset)) in accesses.iter().enumerate() {
            let line = unit * 64 + offset % 64;
            let page = unit * 4096 + offset;
            let got = [direct.access(line).hit, four.access(line).hit, tlb.access(page).hit];
            let want = [direct_ref.access(line), four_ref.access(line), tlb_ref.access(page)];
            prop_assert!(got == want, "access {i}: 1-way, 4-way, TLB hit {got:?}, reference {want:?}");
        }
    }

    /// Stack-distance profiling predicts the exact miss count of every
    /// fully-associative LRU capacity.
    #[test]
    fn stack_distance_matches_reference(blocks in addr_stream(), capacity in 1usize..64) {
        let mut sd = StackDistance::new(1);
        let mut reference = NaiveLru::new(capacity);
        for &b in &blocks {
            sd.access(b);
            reference.access(b);
        }
        prop_assert_eq!(sd.misses_for_capacity(capacity), reference.misses);
    }

    /// LRU inclusion: more ways at the same set count never miss more.
    #[test]
    fn associativity_inclusion(blocks in addr_stream()) {
        let mut two = SetAssocCache::new(CacheConfig::new("2w", 8 * 64 * 2, 2, 64).unwrap());
        let mut four = SetAssocCache::new(CacheConfig::new("4w", 8 * 64 * 4, 4, 64).unwrap());
        let (mut two_misses, mut four_misses) = (0, 0);
        for &b in &blocks {
            two_misses += u64::from(!two.access(b * 64).hit);
            four_misses += u64::from(!four.access(b * 64).hit);
        }
        prop_assert!(four_misses <= two_misses);
    }

    /// A many-candidate hierarchy agrees exactly with one-candidate
    /// hierarchies for arbitrary access streams.
    #[test]
    fn multi_config_equals_independent(accesses in proptest::collection::vec((0u64..3, 0u64..65_536), 100..600)) {
        let base = HierarchyConfig {
            l1i: CacheConfig::new("L1I", 1024, 2, 64).unwrap(),
            l1d: CacheConfig::new("L1D", 1024, 2, 64).unwrap(),
            l2: CacheConfig::new("L2", 8192, 4, 64).unwrap(),
            itlb: TlbConfig { entries: 4, page_bytes: 4096 },
            dtlb: TlbConfig { entries: 4, page_bytes: 4096 },
        };
        let l2a = CacheConfig::new("a", 4096, 4, 64).unwrap();
        let l2b = CacheConfig::new("b", 16384, 8, 64).unwrap();
        let mut sweep = Hierarchy::sweep(&base, vec![l2a.clone(), l2b.clone()]);
        let mut ha = Hierarchy::new(base.clone().with_l2(l2a));
        let mut hb = Hierarchy::new(base.clone().with_l2(l2b));
        for &(kind, addr) in &accesses {
            let kind = match kind {
                0 => MemAccessKind::Fetch,
                1 => MemAccessKind::Load,
                _ => MemAccessKind::Store,
            };
            let addr = addr & !7;
            sweep.access(kind, addr);
            ha.access(kind, addr);
            hb.access(kind, addr);
        }
        prop_assert_eq!(sweep.counts(0), ha.counts(0));
        prop_assert_eq!(sweep.counts(1), hb.counts(0));
    }

    /// The fetch-line memo is exact: with fetch runs, data accesses, and
    /// warm and counted accesses interleaved, a many-candidate hierarchy
    /// and one hierarchy per candidate agree with the memo-free reference
    /// on every reply and count (the many-candidate one replies for its
    /// first candidate). Geometry 1 has L1I lines larger than ITLB pages,
    /// which a memo keyed on the line alone gets wrong.
    #[test]
    fn fetch_memo_matches_memo_free_reference(ops in fetch_run_stream(), geometry in 0usize..3) {
        let (line, page) = [(64, 4096), (128, 64), (32, 256)][geometry];
        let base = fetch_geometry(line, page);
        let l2s = vec![
            CacheConfig::new("a", 1024, 2, 64).unwrap(),
            CacheConfig::new("b", 4096, 4, 128).unwrap(),
        ];
        let mut sweep = Hierarchy::sweep(&base, l2s.clone());
        let mut hierarchies: Vec<Hierarchy> =
            l2s.iter().map(|l2| Hierarchy::new(base.clone().with_l2(l2.clone()))).collect();
        let mut plain = PlainHierarchies::new(&base, &l2s);
        for &(op, word, run, warm) in &ops {
            let warm = warm == 0;
            let accesses: Vec<(MemAccessKind, u64)> = match op {
                0..=3 => (0..run).map(|i| (MemAccessKind::Fetch, (word + i) * 4)).collect(),
                4 => vec![(MemAccessKind::Load, word * 8)],
                _ => vec![(MemAccessKind::Store, word * 8)],
            };
            for (kind, addr) in accesses {
                let (levels, tlb_miss) = plain.access(kind, addr, warm);
                if warm {
                    sweep.warm(kind, addr);
                } else {
                    prop_assert_eq!(sweep.access(kind, addr), (levels[0], tlb_miss));
                }
                for (h, &level) in hierarchies.iter_mut().zip(&levels) {
                    if warm {
                        h.warm(kind, addr);
                    } else {
                        prop_assert_eq!(h.access(kind, addr), (level, tlb_miss));
                    }
                }
            }
        }
        for (i, h) in hierarchies.iter().enumerate() {
            prop_assert_eq!(sweep.counts(i), plain.counts[i]);
            prop_assert_eq!(h.counts(0), plain.counts[i]);
        }
    }

    /// Histogram mass conservation: every access is either a cold miss or
    /// appears in the reuse histogram.
    #[test]
    fn stack_distance_mass_conservation(blocks in addr_stream()) {
        let mut sd = StackDistance::new(1);
        for &b in &blocks {
            sd.access(b);
        }
        let reuse: u64 = sd.histogram().iter().sum();
        prop_assert_eq!(reuse + sd.cold_misses(), sd.accesses());
        prop_assert_eq!(sd.misses_for_capacity(usize::MAX >> 8), sd.cold_misses());
    }
}
