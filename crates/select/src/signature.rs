//! Microarchitecture-independent workload signatures.
//!
//! Following the Breughe & Eeckhout methodology, a workload is
//! characterized by statistics a profiler can measure **once**, without
//! committing to any machine configuration: instruction-mix fractions,
//! branch direction behaviour, LRU stack-distance (reuse) shape,
//! dependency-distance ILP, and achievable memory-level parallelism.
//! Workloads whose signatures are close behave alike across design
//! points, which is what makes cluster medoids usable as stand-ins for
//! the whole suite.

use mim_cache::{HierarchyConfig, StackDistance};
use mim_core::MAX_DEP_DISTANCE;
use mim_isa::InstClass;
use mim_profile::WorkloadProfile;
use mim_runner::{WorkloadSpec, WorkloadStore};
use mim_trace::TraceSource;
use mim_workloads::WorkloadSize;
use serde::{Deserialize, Serialize};

use crate::error::SelectError;

/// Cache-line granularity used for reuse-distance profiling. A fixed
/// constant (not a machine parameter): the reuse histogram is a property
/// of the address stream, compared like-for-like across workloads.
const LINE_BYTES: u64 = 64;

/// Reorder window used for the canonical MLP estimate. Like
/// [`LINE_BYTES`], a fixed reference — every workload is measured against
/// the same window, so the feature ranks workloads rather than machines.
const MLP_WINDOW: u32 = 128;

/// Log₂ cap used to squash unbounded counts (footprints, reuse
/// distances) into `[0, 1]` features.
const LOG_CAP: f64 = 32.0;

/// A microarchitecture-independent behavioural signature of one workload,
/// extracted from its recorded [`Trace`](mim_trace::Trace) and one-pass
/// [`WorkloadProfile`].
///
/// All rates are fractions in `[0, 1]`; distances are in dynamic
/// instructions; reuse distances are in distinct 64-byte lines. The
/// derived [`feature_vector`](Signature::feature_vector) is deterministic
/// and normalized, ready for clustering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Signature {
    /// Workload name (the report key).
    pub name: String,
    /// Dynamic instruction count observed.
    pub num_insts: u64,
    /// Fraction of unit-latency ALU instructions.
    pub frac_alu: f64,
    /// Fraction of multiplies.
    pub frac_mul: f64,
    /// Fraction of divides.
    pub frac_div: f64,
    /// Fraction of loads.
    pub frac_load: f64,
    /// Fraction of stores.
    pub frac_store: f64,
    /// Fraction of conditional branches.
    pub frac_branch: f64,
    /// Fraction of unconditional jumps.
    pub frac_jump: f64,
    /// Fraction of conditional branches whose direction was taken.
    pub branch_taken_rate: f64,
    /// Fraction of branch executions whose direction differed from the
    /// previous execution of the same static branch — the
    /// predictability axis (0 = perfectly repetitive, 0.5 ≈ random).
    pub branch_transition_rate: f64,
    /// Distinct 64-byte lines touched by loads and stores (footprint).
    pub footprint_blocks: u64,
    /// Fraction of data accesses that touched a never-before-seen line.
    pub cold_fraction: f64,
    /// Median reuse distance of data accesses, as `log2(1 + d)` lines.
    pub reuse_p50: f64,
    /// 90th-percentile reuse distance, as `log2(1 + d)` lines.
    pub reuse_p90: f64,
    /// 99th-percentile reuse distance, as `log2(1 + d)` lines.
    pub reuse_p99: f64,
    /// Mean nearest-producer dependency distance across all producer
    /// classes (the scalar ILP proxy: short = serial chains).
    pub mean_dep_distance: f64,
    /// Fraction of recorded dependencies at distance ≤ 3 (consumers that
    /// stall even modest-width in-order pipelines).
    pub short_dep_fraction: f64,
    /// Achievable memory-level parallelism against the canonical
    /// reference hierarchy and a 128-entry window (≥ 1.0).
    pub mlp: f64,
}

impl Signature {
    /// Names of the normalized features, in
    /// [`feature_vector`](Signature::feature_vector) order.
    pub fn feature_names() -> &'static [&'static str] {
        &[
            "frac_alu",
            "frac_mul",
            "frac_div",
            "frac_load",
            "frac_store",
            "frac_branch",
            "frac_jump",
            "branch_taken_rate",
            "branch_transition_rate",
            "footprint_log2",
            "cold_fraction",
            "reuse_p50",
            "reuse_p90",
            "reuse_p99",
            "mean_dep_distance",
            "short_dep_fraction",
            "mlp",
        ]
    }

    /// The deterministic normalized feature vector: every component is
    /// mapped into `[0, 1]` with fixed transforms (fractions pass
    /// through; log-scaled counts divide by a 2³² cap; dependency
    /// distances divide by [`MAX_DEP_DISTANCE`]; MLP maps `1..=8` onto
    /// the unit interval), so vectors are comparable across suites
    /// without data-dependent rescaling.
    pub fn feature_vector(&self) -> Vec<f64> {
        let unit = |v: f64| v.clamp(0.0, 1.0);
        vec![
            unit(self.frac_alu),
            unit(self.frac_mul),
            unit(self.frac_div),
            unit(self.frac_load),
            unit(self.frac_store),
            unit(self.frac_branch),
            unit(self.frac_jump),
            unit(self.branch_taken_rate),
            unit(self.branch_transition_rate),
            unit((1.0 + self.footprint_blocks as f64).log2() / LOG_CAP),
            unit(self.cold_fraction),
            unit(self.reuse_p50 / LOG_CAP),
            unit(self.reuse_p90 / LOG_CAP),
            unit(self.reuse_p99 / LOG_CAP),
            unit(self.mean_dep_distance / MAX_DEP_DISTANCE as f64),
            unit(self.short_dep_fraction),
            unit((self.mlp - 1.0) / 7.0),
        ]
    }

    /// Extracts the signature of one workload through a shared
    /// [`WorkloadStore`]: the store's single recording is replayed for
    /// the branch/reuse streams and the MLP estimate, and the one-pass
    /// profile supplies mix and dependency statistics — no additional
    /// functional execution beyond what any sweep already performs.
    ///
    /// # Errors
    ///
    /// Returns a [`SelectError`] if the workload faults while being
    /// recorded, profiled, or replayed.
    pub fn extract(
        store: &WorkloadStore,
        spec: &WorkloadSpec,
        size: WorkloadSize,
        limit: Option<u64>,
    ) -> Result<Signature, SelectError> {
        let program = store.program(spec, size);
        let trace = store.trace(spec, size, limit)?;
        // The canonical single-candidate profile: mix and dependency
        // histograms are machine-independent, so any candidate list
        // yields the same values for the fields the signature reads.
        let hierarchy = HierarchyConfig::default_hierarchy();
        let profile = store.profile(
            spec,
            size,
            limit,
            &hierarchy,
            std::slice::from_ref(&hierarchy.l2),
            &[mim_core::MachineConfig::default_config().predictor],
        )?;

        // One replay pass: per-PC branch transitions + the reuse stream.
        let mut transitions = 0u64;
        let mut last_direction: std::collections::HashMap<u32, bool> =
            std::collections::HashMap::new();
        let mut reuse = StackDistance::new(LINE_BYTES);
        let mut replay = trace
            .replay(&program)
            .map_err(|e| mim_runner::EvalError::trace(spec.name(), "signature", &e))?;
        replay
            .drive(&mut |ev| {
                if ev.class == InstClass::CondBranch {
                    let taken = ev.taken == Some(true);
                    if let Some(previous) = last_direction.insert(ev.pc, taken) {
                        if previous != taken {
                            transitions += 1;
                        }
                    }
                }
                if let Some(addr) = ev.eff_addr {
                    reuse.access(addr);
                }
            })
            .map_err(|e| mim_runner::EvalError::trace(spec.name(), "signature", &e))?;

        // Second replay: the canonical MLP estimate (needs its own cache
        // state, so it cannot share the pass above).
        let mut replay = trace
            .replay(&program)
            .map_err(|e| mim_runner::EvalError::trace(spec.name(), "signature", &e))?;
        let mlp = mim_profile::estimate_mlp_source(&mut replay, &hierarchy, MLP_WINDOW)
            .map_err(|e| mim_runner::EvalError::trace(spec.name(), "signature", &e))?
            .mlp;

        Ok(Signature::from_parts(
            spec.name(),
            &profile,
            trace.branches(),
            trace.taken_branches(),
            transitions,
            &reuse,
            mlp,
        ))
    }

    /// Assembles a signature from already-collected statistics (the
    /// replay-free core of [`extract`](Signature::extract)).
    pub(crate) fn from_parts(
        name: &str,
        profile: &WorkloadProfile,
        branches: u64,
        taken: u64,
        transitions: u64,
        reuse: &StackDistance,
        mlp: f64,
    ) -> Signature {
        let n = profile.num_insts.max(1) as f64;
        let frac = |count: u64| count as f64 / n;
        let deps_total =
            profile.deps_unit.total() + profile.deps_ll.total() + profile.deps_load.total();
        let short: u64 = (1..=3)
            .map(|d| profile.deps_unit.at(d) + profile.deps_ll.at(d) + profile.deps_load.at(d))
            .sum();
        let mean_dep = if deps_total == 0 {
            0.0
        } else {
            let weighted = profile.deps_unit.mean_distance() * profile.deps_unit.total() as f64
                + profile.deps_ll.mean_distance() * profile.deps_ll.total() as f64
                + profile.deps_load.mean_distance() * profile.deps_load.total() as f64;
            weighted / deps_total as f64
        };
        let accesses = reuse.accesses();
        Signature {
            name: name.to_string(),
            num_insts: profile.num_insts,
            frac_alu: frac(profile.mix.alu),
            frac_mul: frac(profile.mix.mul),
            frac_div: frac(profile.mix.div),
            frac_load: frac(profile.mix.load),
            frac_store: frac(profile.mix.store),
            frac_branch: frac(profile.mix.cond_branch),
            frac_jump: frac(profile.mix.jump),
            branch_taken_rate: ratio(taken, branches),
            branch_transition_rate: ratio(transitions, branches),
            footprint_blocks: reuse.footprint_blocks() as u64,
            cold_fraction: ratio(reuse.cold_misses(), accesses),
            reuse_p50: log_percentile(reuse.histogram(), 50),
            reuse_p90: log_percentile(reuse.histogram(), 90),
            reuse_p99: log_percentile(reuse.histogram(), 99),
            mean_dep_distance: mean_dep,
            short_dep_fraction: ratio(short, deps_total),
            mlp,
        }
    }
}

impl std::fmt::Display for Signature {
    /// One summary line per signature, e.g.
    /// `sha: 21514 insts, mem 23.4%, br 7.8% (taken 61% / flip 12%),
    /// reuse p90 2^3.1 over 142 lines, dep 2.4, mlp 1.00`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} insts, mem {:.1}%, br {:.1}% (taken {:.0}% / flip {:.0}%), \
             reuse p90 2^{:.1} over {} lines, dep {:.1}, mlp {:.2}",
            self.name,
            self.num_insts,
            100.0 * (self.frac_load + self.frac_store),
            100.0 * self.frac_branch,
            100.0 * self.branch_taken_rate,
            100.0 * self.branch_transition_rate,
            self.reuse_p90,
            self.footprint_blocks,
            self.mean_dep_distance,
            self.mlp,
        )
    }
}

/// `numerator / denominator`, 0.0 when the denominator is zero.
fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// The `percent`-th percentile of the reuse-distance histogram (reuse
/// accesses only — cold misses are tracked by `cold_fraction`), returned
/// as `log2(1 + distance)`. 0.0 for an empty histogram.
fn log_percentile(histogram: &[u64], percent: u64) -> f64 {
    let total: u64 = histogram.iter().sum();
    if total == 0 {
        return 0.0;
    }
    // Smallest distance d with cumulative count ≥ ceil(percent% of total).
    let target = (total * percent).div_ceil(100).max(1);
    let mut cumulative = 0u64;
    for (distance, &count) in histogram.iter().enumerate() {
        cumulative += count;
        if cumulative >= target {
            return (1.0 + distance as f64).log2();
        }
    }
    (histogram.len() as f64).log2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_percentile_walks_the_histogram() {
        // 10 accesses at distance 0, 10 at distance 7.
        let mut histogram = vec![0u64; 8];
        histogram[0] = 10;
        histogram[7] = 10;
        assert_eq!(log_percentile(&histogram, 50), 0.0); // log2(1+0)
        assert!((log_percentile(&histogram, 90) - 3.0).abs() < 1e-12); // log2(8)
        assert_eq!(log_percentile(&[], 90), 0.0);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(ratio(5, 0), 0.0);
        assert!((ratio(1, 4) - 0.25).abs() < 1e-12);
    }
}
