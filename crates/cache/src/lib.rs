//! # mim-cache — cache and TLB simulation
//!
//! Memory-hierarchy substrate for the MIM toolkit:
//!
//! * [`CacheConfig`] / [`SetAssocCache`] — set-associative LRU caches,
//! * [`Tlb`] — fully-associative LRU translation lookaside buffers,
//! * [`Hierarchy`] — a two-level hierarchy (split L1s + unified L2 + TLBs)
//!   matching the machine in the ISPASS 2012 paper (Table 2),
//! * [`MultiConfig`] — single-pass simulation of many L2 configurations at
//!   once, the technique the paper's profiler uses (§2.1) so one profiling
//!   run covers the whole design space,
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
mod multi;
mod stack_distance;
mod tlb;

pub use cache::{AccessResult, SetAssocCache};
pub use config::{CacheConfig, CacheConfigError, TlbConfig};
pub use hierarchy::{Hierarchy, HierarchyConfig, MemAccessKind, MemLevel, MissCounts};
pub use multi::{FetchRun, MultiConfig};
pub use stack_distance::StackDistance;
pub use tlb::Tlb;
