//! Saturating two-bit counters, the basic predictor storage element.

/// A 2-bit saturating counter with states 0 (strongly not-taken) through
/// 3 (strongly taken).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SatCounter(u8);

impl SatCounter {
    /// State 1: predict not-taken, one `taken` away from flipping.
    pub(crate) fn weakly_not_taken() -> SatCounter {
        SatCounter(1)
    }

    /// State 2: predict taken, one `not-taken` away from flipping.
    pub(crate) fn weakly_taken() -> SatCounter {
        SatCounter(2)
    }

    /// Current prediction: taken if the state is 2 or 3.
    #[inline]
    pub(crate) fn taken(self) -> bool {
        self.0 >= 2
    }

    /// Trains the counter toward the actual outcome, saturating at 0 and 3.
    #[inline]
    pub(crate) fn train(&mut self, taken: bool) {
        // A select between the two saturated steps, not a branch on the
        // (unpredictable) outcome.
        let up = (self.0 + 1).min(3);
        let down = self.0.saturating_sub(1);
        self.0 = if taken { up } else { down };
    }
}

impl Default for SatCounter {
    /// Weakly not-taken, the conventional reset state.
    fn default() -> SatCounter {
        SatCounter::weakly_not_taken()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturates_at_both_ends() {
        let mut c = SatCounter::default();
        for _ in 0..10 {
            c.train(false);
        }
        assert_eq!(c.0, 0);
        for _ in 0..10 {
            c.train(true);
        }
        assert_eq!(c.0, 3);
    }

    #[test]
    fn threshold_is_at_two() {
        assert!(!SatCounter(1).taken());
        assert!(SatCounter(2).taken());
    }

    #[test]
    fn hysteresis_requires_two_flips() {
        let mut c = SatCounter(3);
        c.train(false);
        assert!(c.taken());
        c.train(false);
        assert!(!c.taken());
    }
}
