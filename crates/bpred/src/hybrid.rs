//! Hybrid (tournament) predictor with a chooser.

use crate::counter::SatCounter;
use crate::gshare::Gshare;
use crate::local::LocalPredictor;
use crate::predictor::{check_bits, BranchPredictor};

/// A tournament predictor combining a local and a global (gshare)
/// component; a global-history-indexed table of 2-bit chooser counters
/// selects which component's prediction to use, and trains toward whichever
/// component was correct.
///
/// `Hybrid::new(10, 10, 12)` is the paper's "3.5 KB hybrid, 10b local and
/// 12b global history" design point.
#[derive(Debug, Clone)]
pub(crate) struct Hybrid {
    local: LocalPredictor,
    global: Gshare,
    /// Chooser: state >= 2 selects the global component.
    chooser: Vec<SatCounter>,
    chooser_mask: u32,
}

impl Hybrid {
    /// Creates a hybrid predictor.
    ///
    /// # Panics
    ///
    /// Panics if any bit-width is 0 or exceeds 24.
    pub(crate) fn new(
        local_index_bits: u32,
        local_history_bits: u32,
        global_history_bits: u32,
    ) -> Hybrid {
        let chooser_entries = check_bits("global_history_bits", global_history_bits);
        Hybrid {
            local: LocalPredictor::new(local_index_bits, local_history_bits),
            global: Gshare::new(global_history_bits),
            chooser: vec![SatCounter::weakly_taken(); chooser_entries],
            chooser_mask: (chooser_entries - 1) as u32,
        }
    }

    #[inline]
    fn chooser_index(&self, pc: u32) -> usize {
        ((self.global.history() ^ pc) & self.chooser_mask) as usize
    }

    /// True if the chooser currently selects the global component for `pc`.
    fn selects_global(&self, pc: u32) -> bool {
        self.chooser[self.chooser_index(pc)].taken()
    }
}

impl BranchPredictor for Hybrid {
    fn predict(&self, pc: u32) -> bool {
        if self.selects_global(pc) {
            self.global.predict(pc)
        } else {
            self.local.predict(pc)
        }
    }

    fn update(&mut self, pc: u32, taken: bool) {
        let local_pred = self.local.predict(pc);
        let global_pred = self.global.predict(pc);
        // Train the chooser only when the components disagree: a select
        // between the trained and the current counter, not a branch.
        let i = self.chooser_index(pc);
        let current = self.chooser[i];
        let mut trained = current;
        trained.train(global_pred == taken);
        self.chooser[i] = if local_pred != global_pred {
            trained
        } else {
            current
        };
        self.local.update(pc, taken);
        self.global.update(pc, taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_local_periodic_pattern() {
        let mut p = Hybrid::new(10, 10, 12);
        let pat = [true, true, true, false];
        for i in 0..1024 {
            p.update(9, pat[i % 4]);
        }
        let mut misp = 0;
        for i in 0..200 {
            if p.predict(9) != pat[i % 4] {
                misp += 1;
            }
            p.update(9, pat[i % 4]);
        }
        assert!(
            misp <= 2,
            "hybrid should learn period-4 pattern, got {misp}"
        );
    }

    #[test]
    fn hybrid_not_worse_than_components_on_mixed_stream() {
        // Two interleaved branches: one purely local-periodic, one
        // correlated with global history. The hybrid should track the best
        // component within a small margin.
        fn run(p: &mut dyn BranchPredictor) -> u32 {
            let mut misp = 0;
            let mut x: u64 = 0xace1;
            let mut last_b1;
            for i in 0..20_000usize {
                // Branch 1: pseudo-random (PC 100).
                x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
                let b1 = (x >> 40) & 1 == 1;
                if i >= 4000 && p.predict(100) != b1 {
                    misp += 1;
                }
                p.update(100, b1);
                last_b1 = b1;
                // Branch 2: equals branch 1's outcome (global correlation, PC 200).
                let b2 = last_b1;
                if i >= 4000 && p.predict(200) != b2 {
                    misp += 1;
                }
                p.update(200, b2);
            }
            misp
        }
        let mut hybrid = Hybrid::new(10, 10, 12);
        let mut local = LocalPredictor::new(10, 10);
        let misp_hybrid = run(&mut hybrid);
        let misp_local = run(&mut local);
        // The correlated branch is learnable only via global history, so the
        // hybrid must beat the pure local predictor.
        assert!(
            misp_hybrid < misp_local,
            "hybrid {misp_hybrid} vs local {misp_local}"
        );
    }

    /// Feeds `stream` (pc, outcome) pairs and returns, for the branches
    /// at `target` where the two components disagreed, whether the
    /// chooser selected the global component: the first such branch and
    /// every one in the last quarter of the stream.
    fn chooser_at_disagreements(
        p: &mut Hybrid,
        stream: &[(u32, bool)],
        target: u32,
    ) -> (bool, Vec<bool>) {
        let mut first = None;
        let mut late = Vec::new();
        for (i, &(pc, taken)) in stream.iter().enumerate() {
            if pc == target && p.local.predict(pc) != p.global.predict(pc) {
                let global = p.selects_global(pc);
                first.get_or_insert(global);
                if i >= stream.len() * 3 / 4 {
                    late.push(global);
                }
            }
            p.update(pc, taken);
        }
        (first.expect("the components disagreed"), late)
    }

    #[test]
    fn chooser_turns_to_the_local_component_when_only_it_predicts() {
        // One branch with period 4 (T T T N): with two bits of global
        // history the gshare entry after T T sees T and N in turn and is
        // always wrong there, while eight bits of local history resolve it.
        let mut p = Hybrid::new(4, 8, 2);
        let pattern = [true, true, true, false];
        let stream: Vec<(u32, bool)> = (0..1024).map(|i| (5, pattern[i % 4])).collect();
        let (first, late) = chooser_at_disagreements(&mut p, &stream, 5);
        assert!(first, "a fresh chooser starts on the global component");
        assert!(!late.is_empty());
        assert!(
            late.iter().all(|&global| !global),
            "chooser still selects global at {} of {} late disagreements",
            late.iter().filter(|&&g| g).count(),
            late.len()
        );
    }

    #[test]
    fn chooser_turns_to_the_global_component_when_only_it_predicts() {
        // Branch 2 repeats branch 1's pseudo-random outcome: the global
        // history holds that outcome, branch 2's own local history does
        // not. Start from a chooser that selects local everywhere.
        let mut p = Hybrid::new(4, 4, 8);
        p.chooser.fill(SatCounter::weakly_not_taken());
        let mut x: u64 = 0xace1;
        let mut stream = Vec::new();
        for _ in 0..4096 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
            let outcome = (x >> 40) & 1 == 1;
            stream.push((1, outcome));
            stream.push((2, outcome));
        }
        let (first, late) = chooser_at_disagreements(&mut p, &stream, 2);
        assert!(!first, "the chooser starts on the local component");
        let global = late.iter().filter(|&&g| g).count();
        assert!(
            global * 10 >= late.len() * 9,
            "chooser selects global at only {global} of {} late disagreements",
            late.len()
        );
    }
}
