//! Gshare global-history predictor.

use crate::counter::SatCounter;
use crate::predictor::{check_bits, BranchPredictor};

/// The gshare predictor: a table of 2-bit counters indexed by the XOR of
/// the global branch-history register and the branch PC.
///
/// `Gshare::new(12)` is the paper's "1 KB global history" configuration:
/// 2^12 = 4096 two-bit counters.
#[derive(Debug, Clone)]
pub(crate) struct Gshare {
    table: Vec<SatCounter>,
    history: u32,
    mask: u32,
}

impl Gshare {
    /// Creates a gshare predictor with `history_bits` of global history and
    /// a `2^history_bits`-entry counter table.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is 0 or exceeds 24.
    pub(crate) fn new(history_bits: u32) -> Gshare {
        let entries = check_bits("history_bits", history_bits);
        Gshare {
            table: vec![SatCounter::default(); entries],
            history: 0,
            mask: (entries - 1) as u32,
        }
    }

    /// Current global history register (low bits are the most recent
    /// outcomes).
    pub(crate) fn history(&self) -> u32 {
        self.history
    }

    #[inline]
    fn index(&self, pc: u32) -> usize {
        ((pc ^ self.history) & self.mask) as usize
    }
}

impl BranchPredictor for Gshare {
    fn predict(&self, pc: u32) -> bool {
        self.table[self.index(pc)].taken()
    }

    fn update(&mut self, pc: u32, taken: bool) {
        let i = self.index(pc);
        self.table[i].train(taken);
        self.history = ((self.history << 1) | u32::from(taken)) & self.mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_an_alternating_pattern_via_history() {
        // T/N/T/N has distinct history contexts, so gshare learns it while
        // bimodal cannot.
        let mut p = Gshare::new(10);
        let mut taken = true;
        // warmup
        for _ in 0..32 {
            p.update(7, taken);
            taken = !taken;
        }
        let mut mispredicts = 0;
        for _ in 0..100 {
            if p.predict(7) != taken {
                mispredicts += 1;
            }
            p.update(7, taken);
            taken = !taken;
        }
        assert_eq!(mispredicts, 0);
    }

    #[test]
    fn learns_a_short_loop_exit_pattern() {
        // A loop of 4 iterations: T,T,T,N repeating.
        let mut p = Gshare::new(12);
        let pattern = [true, true, true, false];
        for i in 0..64 {
            p.update(42, pattern[i % 4]);
        }
        let mut mispredicts = 0;
        for i in 0..200 {
            if p.predict(42) != pattern[i % 4] {
                mispredicts += 1;
            }
            p.update(42, pattern[i % 4]);
        }
        assert_eq!(mispredicts, 0, "period-4 loop should be fully learned");
    }

    #[test]
    fn history_register_is_masked() {
        let mut p = Gshare::new(4);
        for _ in 0..100 {
            p.update(0, true);
        }
        assert!(p.history() <= 0xF);
    }
}
