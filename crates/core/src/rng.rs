//! The workspace's deterministic random stream.
//!
//! Every seeded component — explore's annealer and greedy restarts,
//! select's k-medoids initialization, synthetic-workload generation
//! helpers — wants the same property: the seed fully determines every
//! draw, so reports reproduce byte for byte. SplitMix64 is tiny, fast,
//! and well-distributed.
//!
//! This is not the workspace's only copy: `mim-workloads` keeps its own
//! `SplitMix64` (`util.rs`), seeded without this one's XOR, and every
//! generated program's data depends on that stream. Merging the two would
//! change every bundled workload, so they stay separate.

/// Deterministic SplitMix64 stream.
///
/// # Example
///
/// ```
/// use mim_core::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!(a.below(10) < 10);
/// assert!((0.0..1.0).contains(&a.unit()));
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the stream.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below(0) is meaningless");
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform value in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seed_deterministic_and_roughly_uniform() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        let mut hits = [0usize; 4];
        for _ in 0..4000 {
            hits[c.below(4)] += 1;
        }
        assert!(hits.iter().all(|&h| h > 800), "roughly uniform: {hits:?}");
        for _ in 0..1000 {
            let u = c.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
