//! # mim-cache — cache and TLB simulation
//!
//! Memory-hierarchy substrate for the MIM toolkit:
//!
//! * [`CacheConfig`] / [`SetAssocCache`] — set-associative LRU caches,
//! * [`Tlb`] — fully-associative LRU translation lookaside buffers,
//! * [`Hierarchy`] — the two-level hierarchy of the ISPASS 2012 paper's
//!   machine (Table 2): split L1s and TLBs in front of one unified L2, or
//!   of many L2 candidates at once, the single-pass technique the paper's
//!   profiler uses (§2.1) so one profiling run covers the whole design
//!   space; the simulator drives the one-candidate form,
//! * [`FetchRun`] / [`BlockFetches`] — a basic block's fetches split per
//!   L1I line and ITLB page, and the countdown that charges each run once
//!   per block execution,
//! * [`StackDistance`] — Mattson LRU stack-distance histograms, computing
//!   miss counts for *every* fully-associative capacity in one pass.
//!
//! ## Example
//!
//! ```
//! use mim_cache::{CacheConfig, SetAssocCache};
//!
//! let config = CacheConfig::new("L1D", 32 * 1024, 4, 64).unwrap();
//! let mut cache = SetAssocCache::new(config);
//! assert!(!cache.access(0x1000).hit); // cold miss
//! assert!(cache.access(0x1008).hit);  // same 64-byte block
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod hierarchy;
mod stack_distance;
mod tlb;

pub use cache::{AccessResult, SetAssocCache};
pub use config::{CacheConfig, CacheConfigError, TlbConfig};
pub use hierarchy::{
    BlockFetches, FetchRun, Hierarchy, HierarchyConfig, MemAccessKind, MemLevel, MissCounts,
};
pub use stack_distance::StackDistance;
pub use tlb::Tlb;
