//! A store file is judged by its header before anything else is read:
//! a huge file with a bad header is rejected without reading or
//! allocating its size. Its own test binary, because it installs a
//! counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use mim_core::MachineConfig;
use mim_profile::SweepProfiler;
use mim_runner::{DiskStore, StoreError};
use mim_workloads::{mibench, WorkloadSize};

/// The system allocator, recording the largest single request.
struct LargestAllocation;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

/// Every file under `dir` whose name ends in `.<ext>`.
fn files_with_ext(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            found.extend(files_with_ext(&path, ext));
        } else if path.extension().is_some_and(|e| e == ext) {
            found.push(path);
        }
    }
    found
}

#[test]
fn huge_file_with_a_bad_header_is_rejected_without_reading_it() {
    const GIB: u64 = 1 << 30;
    let root = std::env::temp_dir().join(format!("mim-store-headers-{}", std::process::id()));
    fs::remove_dir_all(&root).ok();
    let store = DiskStore::open(&root).unwrap();
    let machine = MachineConfig::default_config();
    let (hierarchy, l2s, predictors) = (
        machine.hierarchy.clone(),
        vec![machine.hierarchy.l2.clone()],
        vec![machine.predictor.clone()],
    );
    let program = mibench::sha().program(WorkloadSize::Tiny);
    let profile = SweepProfiler::new(hierarchy.clone(), l2s.clone(), predictors.clone())
        .profile(&program, None)
        .unwrap();
    store
        .put_profile(&program, None, &hierarchy, &l2s, &predictors, &profile)
        .unwrap();

    // Replace the entry with a 1 GiB sparse file of zeros: wrong magic.
    let [path] = files_with_ext(&root, "profile").try_into().unwrap();
    let file = fs::File::create(&path).unwrap();
    file.set_len(GIB).unwrap();
    drop(file);

    LARGEST.store(0, Ordering::Relaxed);
    let result = store.get_profile(&program, None, &hierarchy, &l2s, &predictors);
    let largest = LARGEST.load(Ordering::Relaxed);
    fs::remove_dir_all(&root).ok();

    assert!(
        matches!(result, Err(StoreError::Corrupt { ref message, .. }) if message == "bad magic"),
        "got {result:?}"
    );
    assert!(
        largest < 1 << 20,
        "rejecting the file allocated {largest} bytes at once"
    );
}
