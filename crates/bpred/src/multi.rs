//! Single-pass profiling of many predictors over one branch stream.

use serde::{Deserialize, Serialize};

use crate::predictor::{BranchPredictor, PredictorConfig};

/// Accuracy statistics for one predictor over a branch stream.
///
/// These are exactly the branch-related model inputs: `mispredicts` feeds
/// the branch-misprediction penalty (paper Eq. 4) and `taken_correct` feeds
/// the taken-branch hit penalty (§3.3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictorStats {
    /// Predictor name.
    pub name: String,
    /// Conditional branches observed.
    pub branches: u64,
    /// Mispredicted conditional branches.
    pub mispredicts: u64,
    /// Correctly predicted branches whose prediction was *taken* (each of
    /// these costs one fetch-redirect bubble even though it is a hit).
    pub taken_correct: u64,
}

/// Profiles several predictors simultaneously over a single branch stream.
///
/// Mirrors the paper's profiler, which collects "branch misprediction rates
/// for multiple branch predictors in a single run" (§2.1); the resulting
/// per-predictor statistics let the model evaluate any predictor
/// configuration in the design space without re-profiling.
///
/// # Example
///
/// ```
/// use mim_bpred::{MultiPredictor, PredictorConfig};
///
/// let mut multi = MultiPredictor::new(&[
///     PredictorConfig::gshare_1k(),
///     PredictorConfig::hybrid_3_5k(),
/// ]);
/// for i in 0..1000u32 {
///     multi.observe(0x10, i % 5 != 0); // 80%-taken loop branch
/// }
/// let stats = multi.stats();
/// assert_eq!(stats.len(), 2);
/// assert!(stats[0].branches == 1000);
/// ```
pub struct MultiPredictor {
    predictors: Vec<Box<dyn BranchPredictor>>,
    stats: Vec<PredictorStats>,
}

impl std::fmt::Debug for MultiPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiPredictor")
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl MultiPredictor {
    /// Instantiates one predictor per configuration.
    pub fn new(configs: &[PredictorConfig]) -> MultiPredictor {
        let predictors: Vec<Box<dyn BranchPredictor>> = configs.iter().map(|c| c.build()).collect();
        let stats = predictors
            .iter()
            .map(|p| PredictorStats {
                name: p.name().to_string(),
                branches: 0,
                mispredicts: 0,
                taken_correct: 0,
            })
            .collect();
        MultiPredictor { predictors, stats }
    }

    /// Number of predictors being profiled.
    pub fn len(&self) -> usize {
        self.predictors.len()
    }

    /// True if no predictors are configured.
    pub fn is_empty(&self) -> bool {
        self.predictors.is_empty()
    }

    /// Feeds one resolved conditional branch to every predictor.
    pub fn observe(&mut self, pc: u32, taken: bool) {
        for (p, s) in self.predictors.iter_mut().zip(&mut self.stats) {
            let pred = p.predict(pc);
            s.branches += 1;
            if pred != taken {
                s.mispredicts += 1;
            } else if taken {
                s.taken_correct += 1;
            }
            p.update(pc, taken);
        }
    }

    /// Per-predictor statistics, in configuration order.
    pub fn stats(&self) -> &[PredictorStats] {
        &self.stats
    }

    /// Consumes the profiler and returns the statistics.
    pub fn into_stats(self) -> Vec<PredictorStats> {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_consistent() {
        let mut m = MultiPredictor::new(&[
            PredictorConfig::Bimodal { index_bits: 8 },
            PredictorConfig::gshare_1k(),
        ]);
        let mut x: u64 = 1;
        for i in 0..5000u32 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            m.observe(i % 13, (x >> 33) & 3 != 0); // 75% taken
        }
        for s in m.stats() {
            assert_eq!(s.branches, 5000);
            assert!(s.mispredicts <= s.branches);
            assert!(s.taken_correct <= s.branches - s.mispredicts);
        }
    }

    #[test]
    fn matches_single_predictor_run() {
        // Profiling predictor P alongside others must not change P's stats.
        let branches: Vec<(u32, bool)> = (0..2000u32).map(|i| (i % 7, i % 3 != 0)).collect();

        let mut solo = MultiPredictor::new(&[PredictorConfig::gshare_1k()]);
        let mut multi = MultiPredictor::new(&[
            PredictorConfig::Bimodal { index_bits: 4 },
            PredictorConfig::gshare_1k(),
            PredictorConfig::hybrid_3_5k(),
        ]);
        for &(pc, t) in &branches {
            solo.observe(pc, t);
            multi.observe(pc, t);
        }
        let solo_stats = &solo.stats()[0];
        let multi_stats = &multi.stats()[1];
        assert_eq!(solo_stats.mispredicts, multi_stats.mispredicts);
        assert_eq!(solo_stats.taken_correct, multi_stats.taken_correct);
    }

    #[test]
    fn better_predictor_wins_on_patterned_stream() {
        let mut m = MultiPredictor::new(&[
            PredictorConfig::Bimodal { index_bits: 10 },
            PredictorConfig::hybrid_3_5k(),
        ]);
        // Period-6 loop pattern: T T T T T N — trivially learnable with
        // history, half-defeating for bimodal at the exit.
        for i in 0..30_000usize {
            m.observe(77, i % 6 != 5);
        }
        let s = m.stats();
        assert!(
            s[1].mispredicts < s[0].mispredicts,
            "hybrid {} vs bimodal {}",
            s[1].mispredicts,
            s[0].mispredicts
        );
    }
}
