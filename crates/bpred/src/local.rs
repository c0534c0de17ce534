//! Two-level local-history predictor.

use crate::counter::SatCounter;
use crate::predictor::{check_bits, BranchPredictor};

/// A two-level local predictor: per-branch history registers select entries
/// in a shared pattern-history table of 2-bit counters.
///
/// This is the local component of the paper's 3.5 KB hybrid predictor
/// (10-bit local histories).
#[derive(Debug, Clone)]
pub(crate) struct LocalPredictor {
    /// Per-branch local history registers, indexed by PC.
    histories: Vec<u32>,
    /// Pattern history table indexed by a local history value.
    pht: Vec<SatCounter>,
    index_mask: u32,
    history_mask: u32,
}

impl LocalPredictor {
    /// Creates a local predictor with `2^index_bits` history registers of
    /// `history_bits` bits each, and a `2^history_bits`-entry pattern table.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is 0 or exceeds 24.
    pub(crate) fn new(index_bits: u32, history_bits: u32) -> LocalPredictor {
        let entries = check_bits("index_bits", index_bits);
        let patterns = check_bits("history_bits", history_bits);
        LocalPredictor {
            histories: vec![0; entries],
            pht: vec![SatCounter::default(); patterns],
            index_mask: (entries - 1) as u32,
            history_mask: (patterns - 1) as u32,
        }
    }

    #[inline]
    fn history_of(&self, pc: u32) -> u32 {
        self.histories[(pc & self.index_mask) as usize]
    }
}

impl BranchPredictor for LocalPredictor {
    fn predict(&self, pc: u32) -> bool {
        self.pht[(self.history_of(pc) & self.history_mask) as usize].taken()
    }

    fn update(&mut self, pc: u32, taken: bool) {
        let h = self.history_of(pc);
        self.pht[(h & self.history_mask) as usize].train(taken);
        let slot = (pc & self.index_mask) as usize;
        self.histories[slot] = ((h << 1) | u32::from(taken)) & self.history_mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_per_branch_periodic_patterns() {
        // Branch A: always taken. Branch B: period-3 pattern T,T,N.
        // Local histories keep them separate even though they share the PHT.
        let mut p = LocalPredictor::new(10, 10);
        let pat_b = [true, true, false];
        for i in 0..512 {
            p.update(1, true);
            p.update(2, pat_b[i % 3]);
        }
        let mut misp = 0;
        // Keep the pattern phase continuous with the warmup loop.
        for i in 512..812 {
            if !p.predict(1) {
                misp += 1;
            }
            p.update(1, true);
            if p.predict(2) != pat_b[i % 3] {
                misp += 1;
            }
            p.update(2, pat_b[i % 3]);
        }
        assert_eq!(misp, 0);
    }

    #[test]
    fn history_register_is_bounded() {
        let mut p = LocalPredictor::new(4, 6);
        for _ in 0..1000 {
            p.update(5, true);
        }
        assert!(p.history_of(5) <= 0x3F);
    }
}
