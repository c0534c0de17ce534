//! Memory-level-parallelism estimation for the out-of-order comparator.
//!
//! The out-of-order interval model (paper reference \[8\], our
//! [`OooModel`](mim_core::OooModel)) divides the long-miss penalty by the
//! achievable MLP: independent L2 misses that fit in the reorder buffer
//! overlap, dependent ones (pointer chasing) serialize. This module
//! estimates a workload's MLP from the dynamic instruction stream with the
//! classic burst-and-dependence analysis:
//!
//! * L2 load misses within one ROB window of each other *may* overlap;
//! * a miss whose address is (transitively) data-dependent on a pending
//!   miss cannot overlap it and starts a new serialization group;
//! * MLP = misses / serialization groups.

use mim_cache::{Hierarchy, HierarchyConfig, MemAccessKind, MemLevel};
use mim_isa::{InstClass, Program, VmError, NUM_REGS};
use mim_trace::{LiveVm, TraceError, TraceSource};

/// MLP estimate for one workload against one cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlpEstimate {
    /// L2 load misses observed.
    pub misses: u64,
    /// Serialization groups (bursts of potentially-overlapping misses).
    pub groups: u64,
    /// The estimate itself (1.0 if there were no misses).
    pub mlp: f64,
}

/// Estimates memory-level parallelism of `program` on `hierarchy` with a
/// `rob_size`-entry instruction window.
///
/// # Errors
///
/// Propagates [`VmError`] if the program faults.
///
/// # Example
///
/// ```
/// use mim_cache::HierarchyConfig;
/// use mim_profile::estimate_mlp;
/// use mim_workloads::{spec, WorkloadSize};
///
/// # fn main() -> Result<(), mim_isa::VmError> {
/// let h = HierarchyConfig::default_hierarchy();
/// // Pointer chasing: every miss depends on the previous one -> MLP ~ 1.
/// let chase = spec::mcf_like().program(WorkloadSize::Tiny);
/// let mcf = estimate_mlp(&chase, &h, 128, None)?;
/// // Streaming: misses are independent -> MLP well above 1.
/// let stream = spec::libquantum_like().program(WorkloadSize::Tiny);
/// let lib = estimate_mlp(&stream, &h, 128, None)?;
/// assert!(mcf.mlp < 1.2);
/// assert!(lib.mlp > 1.5);
/// # Ok(())
/// # }
/// ```
pub fn estimate_mlp(
    program: &Program,
    hierarchy: &HierarchyConfig,
    rob_size: u32,
    limit: Option<u64>,
) -> Result<MlpEstimate, VmError> {
    estimate_mlp_source(
        &mut LiveVm::new(program).with_limit(limit),
        hierarchy,
        rob_size,
    )
    .map_err(TraceError::into_vm)
}

/// Estimates MLP from any [`TraceSource`] — the replay-friendly core of
/// [`estimate_mlp`], so sweep drivers reuse one recorded execution instead
/// of re-running the program per estimate.
///
/// # Errors
///
/// Propagates the source's [`TraceError`].
pub fn estimate_mlp_source<S: TraceSource>(
    source: &mut S,
    hierarchy: &HierarchyConfig,
    rob_size: u32,
) -> Result<MlpEstimate, TraceError> {
    let rob = u64::from(rob_size);
    let mut caches = Hierarchy::new(hierarchy.clone());
    // Per-register taint: sequence number of the pending miss whose value
    // (transitively) feeds this register, if recent enough to matter.
    let mut taint: [Option<u64>; NUM_REGS] = [None; NUM_REGS];
    let mut seq: u64 = 0;
    let mut misses: u64 = 0;
    let mut groups: u64 = 0;
    let mut group_start: Option<u64> = None;

    source.drive(&mut |ev| {
        seq += 1;
        // Warm the caches exactly like the profiler does.
        caches.access(MemAccessKind::Fetch, Program::inst_addr(ev.pc));
        let mut l2_load_miss = false;
        if let Some(addr) = ev.eff_addr {
            let kind = if ev.class == InstClass::Load {
                MemAccessKind::Load
            } else {
                MemAccessKind::Store
            };
            let (level, _) = caches.access(kind, addr);
            l2_load_miss = level == MemLevel::Memory && kind == MemAccessKind::Load;
        }

        // Is this instruction's input tainted by a still-pending miss?
        let tainted_input = ev
            .sources
            .into_iter()
            .flatten()
            .filter_map(|r| taint[r.index()])
            .any(|t| seq - t < rob);

        if l2_load_miss {
            let dependent = tainted_input;
            let same_window = group_start.is_some_and(|s| seq - s < rob);
            if dependent || !same_window {
                groups += 1;
                group_start = Some(seq);
            }
            misses += 1;
        }

        // Propagate taint: a load miss taints its destination; any
        // instruction consuming a tainted value taints its destination.
        if let Some(dst) = ev.dst {
            taint[dst.index()] = if l2_load_miss {
                Some(seq)
            } else if tainted_input {
                ev.sources
                    .into_iter()
                    .flatten()
                    .filter_map(|r| taint[r.index()])
                    .filter(|t| seq - t < rob)
                    .max()
            } else {
                None
            };
        }
    })?;

    let mlp = if groups == 0 {
        1.0
    } else {
        (misses as f64 / groups as f64).max(1.0)
    };
    Ok(MlpEstimate {
        misses,
        groups,
        mlp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mim_workloads::{mibench, spec, WorkloadSize};

    fn hierarchy() -> HierarchyConfig {
        HierarchyConfig::default_hierarchy()
    }

    #[test]
    fn pointer_chase_has_unit_mlp() {
        let p = spec::mcf_like().program(WorkloadSize::Tiny);
        let e = estimate_mlp(&p, &hierarchy(), 128, None).unwrap();
        assert!(e.misses > 500, "chase should miss a lot: {}", e.misses);
        assert!(e.mlp < 1.2, "dependent chase must serialize, MLP {}", e.mlp);
    }

    #[test]
    fn streaming_has_high_mlp() {
        let p = spec::libquantum_like().program(WorkloadSize::Tiny);
        let e = estimate_mlp(&p, &hierarchy(), 128, None).unwrap();
        assert!(
            e.mlp > 1.5,
            "independent stream should overlap, MLP {}",
            e.mlp
        );
    }

    #[test]
    fn bigger_windows_expose_more_mlp() {
        let p = spec::milc_like().program(WorkloadSize::Tiny);
        let small = estimate_mlp(&p, &hierarchy(), 16, None).unwrap();
        let large = estimate_mlp(&p, &hierarchy(), 256, None).unwrap();
        assert!(large.mlp >= small.mlp);
    }

    #[test]
    fn cache_resident_kernel_yields_default() {
        let p = mibench::sha().program(WorkloadSize::Tiny);
        let e = estimate_mlp(&p, &hierarchy(), 128, None).unwrap();
        // Few or no L2 load misses: the estimate stays near 1 and is finite.
        assert!(e.mlp >= 1.0);
        assert!(e.mlp.is_finite());
    }
}
