//! A profile lookup that hits copies no configuration: every request for
//! the same sweep shares one interned copy of its hierarchy, L2 and
//! predictor candidates. Its own test binary, because it installs a
//! counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mim_core::{DesignSpace, MachineConfig};
use mim_runner::{WorkloadSpec, WorkloadStore};
use mim_workloads::{mibench, WorkloadSize};

/// The system allocator, counting allocations and their bytes.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn profile_hits_copy_no_configs() {
    let spec = WorkloadSpec::from(mibench::sha());
    let one = DesignSpace::new(MachineConfig::default_config());
    let table2 = DesignSpace::paper_table2();
    // (allocations, bytes) of a hit, per sweep.
    let mut hits = Vec::new();
    for space in [&one, &table2] {
        let store = WorkloadStore::new();
        let (hierarchy, l2s, predictors) = (
            &space.base().hierarchy,
            space.l2_configs(),
            space.predictor_configs(),
        );
        let miss = store
            .profile(&spec, WorkloadSize::Tiny, None, hierarchy, l2s, predictors)
            .unwrap();
        for _ in 0..3 {
            let (allocations, bytes) = (
                ALLOCATIONS.load(Ordering::Relaxed),
                BYTES.load(Ordering::Relaxed),
            );
            let hit = store
                .profile(&spec, WorkloadSize::Tiny, None, hierarchy, l2s, predictors)
                .unwrap();
            hits.push((
                ALLOCATIONS.load(Ordering::Relaxed) - allocations,
                BYTES.load(Ordering::Relaxed) - bytes,
            ));
            assert!(std::sync::Arc::ptr_eq(&miss, &hit));
        }
        assert_eq!(store.stats().profile_hits, 3);
        assert_eq!(store.stats().profile_misses, 1);
    }
    // A hit allocates the key's workload name and nothing else, whatever
    // the sweep's size (copying the configs took 7 allocations for one
    // candidate of each and 14 for the Table-2 sweep).
    assert!(
        hits.iter()
            .all(|&(allocations, bytes)| allocations <= 1 && bytes <= spec.name().len()),
        "hits allocated (allocations, bytes) {hits:?}"
    );
}
