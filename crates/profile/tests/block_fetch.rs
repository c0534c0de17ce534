//! Block-level fetch against the per-instruction reference, on the one
//! interleaving the bundled workloads do not pin down.
//!
//! The block-hook profiler charges a block's fetches a run at a time (one
//! run per L1I line and ITLB page), yet an L1I miss must reach the unified
//! L2s at the missing instruction, after the data accesses before it in
//! the block — not when the block starts. Each program here is one straight-line block: a load misses the
//! L1D, then an instruction in the middle of the block misses the L1I,
//! and both lines map to one set of a direct-mapped L2 candidate. A later
//! load of the first line then hits that set only if the fetch miss
//! reached the L2 out of order, so the profile tells the orders apart.

use mim_bpred::PredictorConfig;
use mim_cache::{CacheConfig, HierarchyConfig, TlbConfig};
use mim_isa::{Program, ProgramBuilder, Reg, WORD_BYTES};
use mim_profile::{SweepProfiler, WorkloadProfile};
use mim_trace::LiveVm;

/// One straight-line block whose instruction at `mid_pc` starts a new
/// L1I line. Two instructions earlier, a load of `x` misses the L1D; after
/// the fetch miss, a load of `y` (same L1D set as `x`) evicts `x` from the
/// L1D, and a second load of `x` goes to the L2s again.
fn aliasing_block(mid_pc: usize, x: u64, y: u64) -> Program {
    let mut b = ProgramBuilder::named("aliasing-block");
    b.alloc_words((x.max(y) / WORD_BYTES + 1) as usize);
    b.li(Reg::R1, x as i64);
    b.li(Reg::R2, y as i64);
    while b.len() < mid_pc - 2 {
        b.nop();
    }
    b.ld(Reg::R3, Reg::R1, 0); // data miss, same L2 set as `mid_pc`'s line
    b.nop();
    assert_eq!(b.len(), mid_pc);
    b.nop(); // L1I miss in the middle of the block
    b.ld(Reg::R4, Reg::R2, 0); // evicts `x` from the L1D
    b.ld(Reg::R5, Reg::R1, 0); // `x` again: an L2 hit only if out of order
    for _ in 0..8 {
        b.nop();
    }
    b.halt();
    b.build()
}

/// Profiles `p` on the block engine and through `profile_source` over the
/// interpreter, requires identical JSON, and returns the reference.
fn assert_parity(profiler: &SweepProfiler, p: &Program) -> WorkloadProfile {
    let block = profiler.profile(p, None).unwrap();
    let interp = profiler
        .profile_source(&mut LiveVm::interpreted(p))
        .unwrap();
    assert_eq!(
        serde_json::to_string(&block).unwrap(),
        serde_json::to_string(&interp).unwrap(),
        "block-level fetch diverges from the per-instruction reference"
    );
    interp
}

fn cache(name: &str, size: u64, assoc: u32, block: u64) -> CacheConfig {
    CacheConfig::new(name, size, assoc, block).unwrap()
}

/// Runs the aliasing block under `base` against a direct-mapped L2 of
/// `l2_bytes` with `l2_block`-byte lines, a 2-way one and the default L2.
/// `x` and `y` must hit one L1D set; `x` must share its direct-mapped L2
/// set with the line of `mid_pc`, and `y` must not.
fn check(base: HierarchyConfig, l2_block: u64, l2_bytes: u64, mid_pc: usize, x: u64, y: u64) {
    let set = |addr: u64| (addr / l2_block) % (l2_bytes / l2_block);
    let mid = Program::inst_addr(mid_pc as u32);
    assert_eq!(set(x), set(mid), "x must alias the mid-block line");
    assert_ne!(set(y), set(mid), "y must leave that set alone");
    let direct = cache("L2-direct", l2_bytes, 1, l2_block);
    let two_way = cache("L2-2way", 2 * l2_bytes, 2, l2_block);
    let profiler = SweepProfiler::new(
        base,
        vec![direct, two_way, HierarchyConfig::default_hierarchy().l2],
        vec![PredictorConfig::gshare_1k()],
    );
    let profile = assert_parity(&profiler, &aliasing_block(mid_pc, x, y));
    let direct = profile.misses[0];
    // The block is one cold pass through the L1I, so every fetch miss
    // misses the L2 too.
    assert_eq!(direct.l2i_misses, direct.l1i_misses);
    assert!(direct.l1i_misses >= 2, "the fetch miss must be mid-block");
    // x, y, then x again after the fetch miss evicted it from the L2.
    assert_eq!((direct.l1d_misses, direct.l2d_misses), (3, 3));
}

/// L1I lines smaller than ITLB pages: the fetch key is the L1I line.
#[test]
fn fetch_miss_after_a_data_miss_in_one_l2_set() {
    let base = HierarchyConfig {
        l1i: cache("L1I", 1024, 2, 32),
        l1d: cache("L1D", 128, 1, 32),
        ..HierarchyConfig::default_hierarchy()
    };
    // L2: 512 B direct-mapped, 32 B lines, 16 sets. pc 40 is byte 160,
    // set 5; x = 672 is set 5 too; y = x + 128 shares x's L1D set.
    check(base, 32, 512, 40, 672, 800);
}

/// L1I lines larger than ITLB pages: the fetch key is the page, so a
/// block crosses several pages per line, and only the run that starts a
/// line can miss the L1I.
#[test]
fn fetch_miss_after_a_data_miss_with_lines_larger_than_pages() {
    let base = HierarchyConfig {
        l1i: cache("L1I", 2048, 2, 256),
        l1d: cache("L1D", 128, 1, 32),
        itlb: TlbConfig {
            entries: 4,
            page_bytes: 64,
        },
        ..HierarchyConfig::default_hierarchy()
    };
    // L2: 2 KB direct-mapped, 256 B lines, 8 sets. pc 64 is byte 256,
    // set 1; x = 2304 is set 1 too; y = x + 256 shares x's L1D set and
    // sits in set 2.
    check(base, 256, 2048, 64, 2304, 2560);
}
