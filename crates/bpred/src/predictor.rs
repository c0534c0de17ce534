//! The predictor trait, its configurations and the branch counts.

use serde::{Deserialize, Serialize};

use crate::gshare::Gshare;
use crate::hybrid::Hybrid;

/// A conditional-branch direction predictor.
///
/// Implementations are deterministic state machines; `predict` is
/// side-effect-free and `update` trains on the resolved outcome. Sampled
/// simulation warms a predictor between sample units with `update` alone.
pub trait BranchPredictor {
    /// Predicts the direction of the conditional branch at `pc`
    /// (an instruction index or byte address; implementations hash it).
    fn predict(&self, pc: u32) -> bool;

    /// Trains the predictor with the resolved direction of the branch at
    /// `pc`.
    fn update(&mut self, pc: u32, taken: bool);
}

/// Validated, serializable predictor configuration.
///
/// Use the provided constructors for the paper's two design-space points
/// ([`gshare_1k`](PredictorConfig::gshare_1k) and
/// [`hybrid_3_5k`](PredictorConfig::hybrid_3_5k)) or build custom
/// geometries; [`build`](PredictorConfig::build) instantiates the predictor.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PredictorConfig {
    /// Global-history XOR PC indexed table of 2-bit counters.
    Gshare {
        /// Number of global history bits (also log2 of the table size).
        history_bits: u32,
    },
    /// Hybrid (tournament) of a local and a global component with a
    /// global-history-indexed chooser.
    Hybrid {
        /// Local component: log2 of the history-register table.
        local_index_bits: u32,
        /// Local component: history length / pattern-table log2 size.
        local_history_bits: u32,
        /// Global component and chooser history length.
        global_history_bits: u32,
    },
}

impl PredictorConfig {
    /// The paper's "1KB global history" predictor: gshare with 12 bits of
    /// global history, i.e. 4096 two-bit counters = 1 KB of storage.
    pub fn gshare_1k() -> PredictorConfig {
        PredictorConfig::Gshare { history_bits: 12 }
    }

    /// The paper's "3.5KB hybrid, 10b local and 12b global history"
    /// predictor: 1024 x 10-bit local histories + 1024-entry local pattern
    /// table (1.5 KB) + 4096-counter global component (1 KB) + 4096-counter
    /// chooser (1 KB).
    pub fn hybrid_3_5k() -> PredictorConfig {
        PredictorConfig::Hybrid {
            local_index_bits: 10,
            local_history_bits: 10,
            global_history_bits: 12,
        }
    }

    /// Short name used in reports, config listings and stored profiles.
    pub fn name(&self) -> String {
        match self {
            PredictorConfig::Gshare { history_bits } => format!("gshare-{history_bits}b"),
            PredictorConfig::Hybrid {
                local_history_bits,
                global_history_bits,
                ..
            } => format!("hybrid-{local_history_bits}l-{global_history_bits}g"),
        }
    }

    /// Total predictor storage budget in bits (for reporting and the power
    /// model), from the geometry: two bits per counter, plus the local
    /// component's history registers.
    ///
    /// # Panics
    ///
    /// Panics on the widths [`build`](PredictorConfig::build) rejects.
    pub fn storage_bits(&self) -> u64 {
        let counters = |field, bits| check_bits(field, bits) as u64 * 2;
        match *self {
            PredictorConfig::Gshare { history_bits } => counters("history_bits", history_bits),
            PredictorConfig::Hybrid {
                local_index_bits,
                local_history_bits,
                global_history_bits,
            } => {
                // The global component and the chooser are the same size.
                let global = counters("global_history_bits", global_history_bits);
                let histories = check_bits("index_bits", local_index_bits) as u64
                    * u64::from(local_history_bits);
                histories + counters("history_bits", local_history_bits) + 2 * global
            }
        }
    }

    /// Instantiates the predictor.
    ///
    /// # Panics
    ///
    /// Panics if any bit-width parameter is 0 or exceeds 24 (tables would
    /// be unreasonably large); design-space configurations are far below
    /// this.
    pub fn build(&self) -> Box<dyn BranchPredictor> {
        match *self {
            PredictorConfig::Gshare { history_bits } => Box::new(Gshare::new(history_bits)),
            PredictorConfig::Hybrid {
                local_index_bits,
                local_history_bits,
                global_history_bits,
            } => Box::new(Hybrid::new(
                local_index_bits,
                local_history_bits,
                global_history_bits,
            )),
        }
    }
}

pub(crate) fn check_bits(field: &str, bits: u32) -> usize {
    assert!(
        bits > 0 && bits <= 24,
        "{field} must be in 1..=24, got {bits}"
    );
    1usize << bits
}

/// Branch-prediction counts of one predictor over a branch stream.
///
/// These are exactly the branch-related model inputs: `mispredicts` feeds
/// the branch-misprediction penalty (paper Eq. 4) and `taken_correct` feeds
/// the taken-branch hit penalty (§3.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchStats {
    /// Conditional branches executed.
    pub branches: u64,
    /// Mispredicted conditional branches.
    pub mispredicts: u64,
    /// Correctly predicted branches whose prediction was taken (each costs
    /// one fetch bubble — the taken-branch hit penalty, §3.3).
    pub taken_correct: u64,
}

impl BranchStats {
    /// Counts one conditional branch predicted `predicted` that resolved
    /// `taken`.
    #[inline(always)]
    pub fn record(&mut self, predicted: bool, taken: bool) {
        self.branches += 1;
        if predicted != taken {
            self.mispredicts += 1;
        } else if taken {
            self.taken_correct += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_have_expected_storage() {
        // 4096*2 bits = 1 KB.
        assert_eq!(PredictorConfig::gshare_1k().storage_bits(), 8_192);
        // 1024*10 (local histories) + 1024*2 (local PHT)
        // + 4096*2 (global) + 4096*2 (chooser) = 28672 bits = 3.5 KB
        assert_eq!(PredictorConfig::hybrid_3_5k().storage_bits(), 28_672);
    }

    #[test]
    fn storage_follows_every_width() {
        assert_eq!(
            PredictorConfig::Gshare { history_bits: 4 }.storage_bits(),
            32
        );
        // 8*4 (local histories) + 16*2 (local PHT) + 32*2 (global)
        // + 32*2 (chooser) = 192 bits.
        let hybrid = PredictorConfig::Hybrid {
            local_index_bits: 3,
            local_history_bits: 4,
            global_history_bits: 5,
        };
        assert_eq!(hybrid.storage_bits(), 192);
    }

    #[test]
    fn names_keep_their_stored_form() {
        assert_eq!(PredictorConfig::gshare_1k().name(), "gshare-12b");
        assert_eq!(PredictorConfig::hybrid_3_5k().name(), "hybrid-10l-12g");
    }

    #[test]
    #[should_panic(expected = "must be in 1..=24")]
    fn oversized_tables_are_rejected() {
        let _ = PredictorConfig::Gshare { history_bits: 30 }.build();
    }

    #[test]
    #[should_panic(expected = "must be in 1..=24")]
    fn oversized_tables_have_no_storage_budget() {
        let _ = PredictorConfig::Hybrid {
            local_index_bits: 10,
            local_history_bits: 25,
            global_history_bits: 12,
        }
        .storage_bits();
    }

    #[test]
    fn trait_is_object_safe_and_usable() {
        let mut p: Box<dyn BranchPredictor> = PredictorConfig::gshare_1k().build();
        let before = p.predict(12);
        p.update(12, !before);
    }

    #[test]
    fn record_counts_each_branch_once() {
        let mut stats = BranchStats::default();
        stats.record(true, true);
        stats.record(false, false);
        stats.record(true, false);
        stats.record(false, true);
        let expected = BranchStats {
            branches: 4,
            mispredicts: 2,
            taken_correct: 1,
        };
        assert_eq!(stats, expected);
    }
}
