//! Model inputs: the program and program–machine statistics of Table 1.

use mim_bpred::BranchStats;
use mim_cache::MissCounts;
use serde::{Deserialize, Serialize};

/// Maximum dependency distance tracked by profiles.
///
/// The model itself needs distances up to `2W - 1` (paper §3.5.3); profiles
/// record up to this bound so that one profile serves any width up to
/// `MAX_DEP_DISTANCE / 2`.
pub const MAX_DEP_DISTANCE: usize = 64;

/// Dynamic instruction mix: the `N_i` counts of Table 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstMix {
    /// Unit-latency integer ALU instructions (including `li`, `nop`).
    pub alu: u64,
    /// Multiply instructions.
    pub mul: u64,
    /// Divide/remainder instructions.
    pub div: u64,
    /// Loads.
    pub load: u64,
    /// Stores.
    pub store: u64,
    /// Conditional branches.
    pub cond_branch: u64,
    /// Unconditional direct jumps.
    pub jump: u64,
}

impl InstMix {
    /// Total dynamic instruction count `N`.
    pub fn total(&self) -> u64 {
        self.alu + self.mul + self.div + self.load + self.store + self.cond_branch + self.jump
    }
}

/// Histogram of dependency distances: `at(d)` counts consumer instructions
/// whose *nearest* producer (of the histogram's class) is `d` dynamic
/// instructions earlier.
///
/// Distance 1 means back-to-back producer/consumer. Distances above
/// [`MAX_DEP_DISTANCE`] are not recorded — the model never reads them
/// (its sums stop at `2W - 1`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DepHistogram {
    counts: Vec<u64>,
}

impl DepHistogram {
    /// Creates an empty histogram.
    pub fn new() -> DepHistogram {
        DepHistogram {
            counts: vec![0; MAX_DEP_DISTANCE],
        }
    }

    /// Records a dependency at `distance` (ignored if 0 or beyond
    /// [`MAX_DEP_DISTANCE`]).
    #[inline]
    pub fn record(&mut self, distance: usize) {
        self.record_n(distance, 1);
    }

    /// Records `count` dependencies at `distance`, exactly as `count`
    /// calls of [`record`](DepHistogram::record) would.
    #[inline]
    pub fn record_n(&mut self, distance: usize, count: u64) {
        if (1..=MAX_DEP_DISTANCE).contains(&distance) {
            if self.counts.len() < MAX_DEP_DISTANCE {
                self.counts.resize(MAX_DEP_DISTANCE, 0);
            }
            self.counts[distance - 1] += count;
        }
    }

    /// Number of dependencies recorded at `distance` (0 if out of range).
    #[inline]
    pub fn at(&self, distance: usize) -> u64 {
        if distance >= 1 && distance <= self.counts.len() {
            self.counts[distance - 1]
        } else {
            0
        }
    }

    /// Total recorded dependencies.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean recorded dependency distance (0.0 for an empty histogram) —
    /// the scalar ILP proxy workload signatures use: short means tight
    /// serial chains, long means independent work in between.
    pub fn mean_distance(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as u64 + 1) * c)
            .sum();
        weighted as f64 / total as f64
    }
}

impl FromIterator<usize> for DepHistogram {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> DepHistogram {
        let mut h = DepHistogram::new();
        for d in iter {
            h.record(d);
        }
        h
    }
}

/// Everything the mechanistic model needs to predict performance of one
/// program on one machine configuration (paper Table 1).
///
/// Program statistics (`mix`, `deps_*`) are machine-independent and
/// collected once per binary. Program–machine statistics (`misses`,
/// `branch`) are selected from the profiler's single-pass sweeps for the
/// design point under evaluation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ModelInputs {
    /// Workload name (for reports).
    pub name: String,
    /// Dynamic instruction count `N`.
    pub num_insts: u64,
    /// Instruction mix (`N_i`).
    pub mix: InstMix,
    /// Dependencies on unit-latency producers (`deps_unit(d)`).
    pub deps_unit: DepHistogram,
    /// Dependencies on long-latency producers excluding loads
    /// (`deps_LL(d)`).
    pub deps_ll: DepHistogram,
    /// Dependencies on load producers (`deps_ld(d)`).
    pub deps_load: DepHistogram,
    /// Cache/TLB miss counts for the selected hierarchy (`misses_i`).
    pub misses: MissCounts,
    /// Branch statistics for the selected predictor.
    pub branch: BranchStats,
}

impl ModelInputs {
    /// A minimal synthetic profile: `n` unit-latency ALU instructions with
    /// no dependencies, misses, or branches. Useful for tests and doc
    /// examples — the model must predict exactly `N/W` cycles for it.
    pub fn synthetic(name: impl Into<String>, n: u64) -> ModelInputs {
        ModelInputs {
            name: name.into(),
            num_insts: n,
            mix: InstMix {
                alu: n,
                ..InstMix::default()
            },
            ..ModelInputs::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_total_sums_all_classes() {
        let mix = InstMix {
            alu: 10,
            mul: 1,
            div: 2,
            load: 3,
            store: 4,
            cond_branch: 5,
            jump: 6,
        };
        assert_eq!(mix.total(), 31);
    }

    #[test]
    fn histogram_records_in_range_only() {
        let mut h = DepHistogram::new();
        h.record(0); // ignored
        h.record(1);
        h.record(1);
        h.record(MAX_DEP_DISTANCE);
        h.record(MAX_DEP_DISTANCE + 1); // ignored
        assert_eq!(h.at(1), 2);
        assert_eq!(h.at(MAX_DEP_DISTANCE), 1);
        assert_eq!(h.at(0), 0);
        assert_eq!(h.at(MAX_DEP_DISTANCE + 5), 0);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn counted_records_match_repeated_records() {
        let mut counted = DepHistogram::default();
        let mut repeated = DepHistogram::default();
        for (d, n) in [
            (0, 4),
            (1, 3),
            (7, 0),
            (MAX_DEP_DISTANCE, 2),
            (MAX_DEP_DISTANCE + 1, 5),
        ] {
            counted.record_n(d, n);
            for _ in 0..n {
                repeated.record(d);
            }
        }
        assert_eq!(counted, repeated);
        assert_eq!(counted.total(), 5);
    }

    #[test]
    fn mean_distance_weights_by_count() {
        let h: DepHistogram = [1usize, 3, 3, 5].into_iter().collect();
        assert!((h.mean_distance() - 3.0).abs() < 1e-12);
        assert_eq!(DepHistogram::new().mean_distance(), 0.0);
    }

    #[test]
    fn histogram_from_iterator() {
        let h: DepHistogram = [1usize, 2, 2, 3].into_iter().collect();
        assert_eq!(h.at(2), 2);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn default_histogram_works_without_explicit_new() {
        // `Default` yields an empty counts vec; `record` must self-heal.
        let mut h = DepHistogram::default();
        h.record(5);
        assert_eq!(h.at(5), 1);
    }

    #[test]
    fn synthetic_profile_shape() {
        let p = ModelInputs::synthetic("s", 1000);
        assert_eq!(p.num_insts, 1000);
        assert_eq!(p.mix.alu, 1000);
        assert_eq!(p.deps_unit.total(), 0);
        assert_eq!(p.branch.mispredicts, 0);
    }
}
