//! Statistical workload synthesis (the §7.2 related-work technique).
//!
//! The paper's related work discusses statistical simulation (Eeckhout et
//! al., Oskin et al.): generate a *synthetic* program from a real
//! program's statistics — instruction mix and dependency-distance
//! distribution — and use it as a fast, shareable proxy. This module
//! implements that technique on the MIM substrate, which doubles as a
//! strong end-to-end test of the mechanistic model: a synthetic clone with
//! matched statistics must receive a matching model prediction.
//!
//! The generator reproduces:
//! * the dynamic instruction mix (ALU / mul / div / load / store /
//!   conditional branch),
//! * the dependency-distance histograms per producer class, by choosing
//!   each instruction's source register to point at the producer the
//!   sampled distance ago,
//! * branch behaviour, from perfectly predictable always-taken branches to
//!   data-dependent pseudo-random directions
//!   ([`branch_random_percent`](SyntheticRecipe::branch_random_percent)),
//! * memory behaviour, from a hot fixed working set through strided
//!   streams to uniform-random addressing over a configurable footprint
//!   (the stack-distance-shape knobs).
//!
//! Recipes are serializable and carry a human-readable
//! [`describe`](SyntheticRecipe::describe) line, so a validation report
//! can name the exact behaviour point that produced a disagreement and
//! anyone can regenerate the identical program from the JSON record.

use mim_isa::{Program, ProgramBuilder, Reg};
use serde::{Deserialize, Serialize};

use crate::util::SplitMix64;

/// Multiplier of the xorshift*-style generator the synthetic programs use
/// for data-dependent branch directions and random addressing.
const LCG_MUL: i64 = 0x2545_F491_4F6C_DD1Du64 as i64;

/// Statistical recipe for a synthetic workload.
///
/// All fields are rates/histograms that a profiler can measure on a real
/// workload; [`generate`](SyntheticRecipe::generate) emits a program
/// whose profile approximates them. The recipe is the coordinate system of
/// `mim-validate`'s behavior space: each axis of that grid varies one of
/// these fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticRecipe {
    /// Dynamic instructions to emit per loop iteration (body size).
    pub block_size: usize,
    /// Number of loop iterations (dynamic length = roughly
    /// `block_size x iterations`).
    pub iterations: u64,
    /// Instruction-mix weights `(alu, mul, div, load, store)`; branches
    /// are added by the loop structure and the branch knobs below.
    pub mix: (u32, u32, u32, u32, u32),
    /// Dependency-distance histogram: `dep_distances[d-1]` is the relative
    /// weight of distance `d`. Empty = no enforced dependencies.
    pub dep_distances: Vec<u32>,
    /// Number of data words the memory operations roam over (footprint).
    pub footprint_words: usize,
    /// Percent (0–50) of body slots that emit a conditional-branch site in
    /// addition to the loop back-edge. `0` reproduces the historical
    /// loop-branch-only behaviour.
    pub branch_percent: u32,
    /// Percent (0–100) of branch sites whose direction is data-dependent
    /// pseudo-random (hard to predict); the remaining sites are
    /// always-taken and perfectly predictable after warmup. This is the
    /// behavior space's branch-predictability axis.
    pub branch_random_percent: u32,
    /// When nonzero, memory operations stream through the footprint with
    /// this stride (in words) per iteration instead of reusing fixed
    /// slots — a long-stack-distance access shape.
    pub stride_words: usize,
    /// When true, each iteration addresses a pseudo-random line of the
    /// footprint (overrides `stride_words`) — the cache-hostile end of the
    /// stack-distance axis.
    pub random_addresses: bool,
    /// RNG seed.
    pub seed: u64,
}

// Register plan: r1 = loop counter, r2 = bound, r3 = base pointer,
// r4 = nonzero divisor, r5..r26 = rotating destinations so recent
// producers sit at predictable distances, r27 = branch-bit scratch,
// r28 = moving pointer, r29 = effective address base, r30 = LCG state,
// r31 = LCG multiplier.
const DEST_BASE: usize = 5;
const DEST_COUNT: usize = 22;
const SCRATCH: Reg = Reg::R27;
const PTR: Reg = Reg::R28;
const ADDR: Reg = Reg::R29;
const LCG: Reg = Reg::R30;
const LCG_MULR: Reg = Reg::R31;

impl SyntheticRecipe {
    /// A default recipe loosely resembling an integer-codec kernel.
    pub fn codec_like() -> SyntheticRecipe {
        SyntheticRecipe {
            block_size: 40,
            iterations: 2_000,
            mix: (60, 5, 1, 20, 10),
            dep_distances: vec![8, 6, 4, 3, 2, 1],
            footprint_words: 4_096,
            branch_percent: 0,
            branch_random_percent: 0,
            stride_words: 0,
            random_addresses: false,
            seed: 0x5eed,
        }
    }

    /// True when the generated program needs the pseudo-random state
    /// registers (data-dependent branches or random addressing).
    fn needs_lcg(&self) -> bool {
        (self.branch_percent > 0 && self.branch_random_percent > 0) || self.random_addresses
    }

    /// True when memory operations address through the moving pointer
    /// instead of fixed arena slots.
    fn moving_pointer(&self) -> bool {
        self.random_addresses || self.stride_words > 0
    }

    /// The footprint rounded up to a power of two (moving-pointer modes
    /// wrap the pointer with a bitmask).
    fn footprint_pow2(&self) -> usize {
        self.footprint_words.max(1).next_power_of_two()
    }

    /// Number of setup instructions executed once before the loop.
    fn setup_len(&self) -> u64 {
        let mut n = 4 + DEST_COUNT as u64;
        if self.needs_lcg() {
            n += 2; // li LCG state, li LCG multiplier
        }
        if self.moving_pointer() {
            n += 1; // li PTR, 0
        }
        n
    }

    /// Per-iteration bookkeeping slots consumed before the sampled body
    /// (LCG update, pointer advance/wrap, effective-address formation).
    fn overhead_slots(&self) -> usize {
        let mut n = 0;
        if self.needs_lcg() {
            n += 2; // mul + addi LCG update
        }
        if self.random_addresses {
            n += 2; // andi wrap + add base
        } else if self.stride_words > 0 {
            n += 3; // addi advance + andi wrap + add base
        }
        n
    }

    /// An upper bound on the dynamic instruction count of the generated
    /// program: the program always executes `halt` within this many
    /// retired instructions. The bound is exact up to the final `halt`.
    pub fn max_dynamic_length(&self) -> u64 {
        let body = self.block_size.max(self.overhead_slots()) as u64 + 2;
        self.setup_len() + self.iterations * body
    }

    /// One-line human-readable summary, used by validation reports to make
    /// worst-offender rows self-describing.
    pub fn describe(&self) -> String {
        let (alu, mul, div, load, store) = self.mix;
        let pattern = if self.random_addresses {
            "random".to_string()
        } else if self.stride_words > 0 {
            format!("stride {}w", self.stride_words)
        } else {
            "fixed".to_string()
        };
        format!(
            "block {}x{} iters, mix a{alu}/m{mul}/d{div}/l{load}/s{store}, deps {:?}, \
             footprint {}w ({pattern}), branches {}% ({}% random), seed {:#x}",
            self.block_size,
            self.iterations,
            self.dep_distances,
            self.footprint_words,
            self.branch_percent,
            self.branch_random_percent,
            self.seed,
        )
    }

    /// Generates the synthetic program.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero or the mix has no weight.
    pub fn generate(&self) -> Program {
        assert!(self.block_size > 0, "block size must be nonzero");
        let total_mix: u32 = self.mix.0 + self.mix.1 + self.mix.2 + self.mix.3 + self.mix.4;
        assert!(total_mix > 0, "instruction mix must have weight");

        let mut rng = SplitMix64::new(self.seed);
        let mut b = ProgramBuilder::named("synthetic");
        // Leave slack above the wrap mask so pointer-relative offsets stay
        // in bounds.
        let arena_words = if self.moving_pointer() {
            self.footprint_pow2() + 64
        } else {
            self.footprint_words.max(1)
        };
        let arena = b.alloc_words(arena_words);
        let fp_mask = (self.footprint_pow2() as i64) * 8 - 8;

        let (i, bound, base, divisor) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4);
        b.li(i, 0);
        b.li(bound, self.iterations as i64);
        b.li(base, arena as i64);
        b.li(divisor, 17);
        for k in 0..DEST_COUNT {
            b.li(Reg::from_index(DEST_BASE + k).unwrap(), k as i64 + 1);
        }
        if self.needs_lcg() {
            b.li(LCG, (self.seed | 1) as i64);
            b.li(LCG_MULR, LCG_MUL);
        }
        if self.moving_pointer() {
            b.li(PTR, 0);
        }

        let top = b.here();
        let mut pos = 0usize;
        // Per-iteration bookkeeping, counted against the block budget so
        // the dynamic length stays `~block_size + 2` per iteration.
        if self.needs_lcg() {
            b.mul(LCG, LCG, LCG_MULR);
            b.addi(LCG, LCG, 0x9e37);
            pos += 2;
        }
        if self.random_addresses {
            b.andi(PTR, LCG, fp_mask);
            b.add(ADDR, base, PTR);
            pos += 2;
        } else if self.stride_words > 0 {
            b.addi(PTR, PTR, self.stride_words as i64 * 8);
            b.andi(PTR, PTR, fp_mask);
            b.add(ADDR, base, PTR);
            pos += 3;
        }

        // `pos` counts instructions in this block so destination rotation
        // maps an instruction's position to its register.
        let mut branch_sites = 0usize;
        while pos < self.block_size {
            // Branch sites: predictable (always-taken) or data-dependent
            // pseudo-random, per the predictability knobs. Targets are the
            // next instruction, so direction never changes the retired
            // stream — only the predictor's success rate.
            if self.branch_percent > 0 && rng.below(100) < u64::from(self.branch_percent) {
                let random_site = self.branch_random_percent > 0
                    && rng.below(100) < u64::from(self.branch_random_percent);
                if random_site && pos + 2 <= self.block_size {
                    // Test a rotating bit of the LCG state: ~50% taken,
                    // uncorrelated with history.
                    let bit = 1 + (branch_sites * 13) % 48;
                    b.andi(SCRATCH, LCG, 1i64 << bit);
                    let next = b.label();
                    b.beq(SCRATCH, Reg::R0, next);
                    b.bind(next);
                    pos += 2;
                    branch_sites += 1;
                    continue;
                }
                let next = b.label();
                b.beq(Reg::R0, Reg::R0, next); // always taken, predictable
                b.bind(next);
                pos += 1;
                branch_sites += 1;
                continue;
            }

            let dst = Reg::from_index(DEST_BASE + pos % DEST_COUNT).unwrap();
            // Pick a source at a sampled dependency distance: the
            // instruction `d` slots ago wrote register (pos - d) mod 22.
            let src = if self.dep_distances.is_empty() {
                dst
            } else {
                let d = 1 + Self::sample(&mut rng, &self.dep_distances);
                let d = d.min(pos.max(1)).min(DEST_COUNT - 1);
                Reg::from_index(DEST_BASE + (pos + DEST_COUNT - d) % DEST_COUNT).unwrap()
            };
            let roll = rng.below(u64::from(total_mix)) as u32;
            let (alu, mul, div, load, _) = self.mix;
            if roll < alu {
                b.add(dst, src, i);
            } else if roll < alu + mul {
                b.mul(dst, src, divisor);
            } else if roll < alu + mul + div {
                b.div(dst, src, divisor);
            } else if roll < alu + mul + div + load {
                let (reg, slot) = self.mem_operand(&mut rng);
                b.ld(dst, if reg { ADDR } else { base }, slot * 8);
            } else {
                let (reg, slot) = self.mem_operand(&mut rng);
                b.st(src, if reg { ADDR } else { base }, slot * 8);
            }
            pos += 1;
        }
        b.addi(i, i, 1);
        b.blt(i, bound, top);
        b.halt();
        b.build()
    }

    /// Chooses a memory operand: `(pointer-relative?, word offset)`.
    /// Moving-pointer modes cluster offsets near the pointer (spatial
    /// locality within an iteration); fixed mode reuses arena slots.
    fn mem_operand(&self, rng: &mut SplitMix64) -> (bool, i64) {
        if self.moving_pointer() {
            (
                true,
                rng.below(64.min(self.footprint_words.max(1)) as u64) as i64,
            )
        } else {
            (false, rng.below(self.footprint_words.max(1) as u64) as i64)
        }
    }

    fn sample(rng: &mut SplitMix64, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        if total == 0 {
            return 0;
        }
        let mut roll = rng.below(total);
        for (idx, &w) in weights.iter().enumerate() {
            let w = u64::from(w);
            if roll < w {
                return idx;
            }
            roll -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mim_isa::{InstClass, Vm};

    #[test]
    fn synthetic_program_halts_and_has_requested_length() {
        let recipe = SyntheticRecipe {
            iterations: 100,
            ..SyntheticRecipe::codec_like()
        };
        let p = recipe.generate();
        let mut vm = Vm::new(&p);
        let outcome = vm.run(Some(10_000_000)).unwrap();
        assert!(outcome.halted());
        let expected = 100 * (recipe.block_size as u64 + 2); // + addi + blt
        let slack = expected / 10;
        assert!(
            outcome.instructions().abs_diff(expected + 27) < slack,
            "dynamic length {} vs expected ~{expected}",
            outcome.instructions()
        );
        assert!(
            outcome.instructions() <= recipe.max_dynamic_length(),
            "length bound violated: {} > {}",
            outcome.instructions(),
            recipe.max_dynamic_length()
        );
    }

    #[test]
    fn mix_fractions_are_respected() {
        let recipe = SyntheticRecipe {
            mix: (50, 10, 0, 30, 10),
            iterations: 200,
            ..SyntheticRecipe::codec_like()
        };
        let p = recipe.generate();
        let mut counts = std::collections::HashMap::new();
        Vm::new(&p)
            .run_with(Some(10_000_000), |ev| {
                *counts.entry(ev.class).or_insert(0u64) += 1;
            })
            .unwrap();
        let loads = counts[&InstClass::Load] as f64;
        let muls = counts[&InstClass::Mul] as f64;
        let total: u64 = counts.values().sum();
        // Loads ~30% of the body; allow generous sampling noise.
        let load_frac = loads / total as f64;
        assert!((0.2..0.4).contains(&load_frac), "load fraction {load_frac}");
        assert!(muls > 0.0);
        assert!(!counts.contains_key(&InstClass::Div));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SyntheticRecipe::codec_like().generate();
        let b = SyntheticRecipe::codec_like().generate();
        assert_eq!(a.text(), b.text());
        let c = SyntheticRecipe {
            seed: 999,
            ..SyntheticRecipe::codec_like()
        }
        .generate();
        assert_ne!(a.text(), c.text());
    }

    #[test]
    fn short_distance_recipe_produces_short_distance_profile() {
        // A recipe with all weight on distance 1 must yield many more
        // adjacent dependencies than one spread over long distances.
        let close = SyntheticRecipe {
            dep_distances: vec![100],
            iterations: 300,
            ..SyntheticRecipe::codec_like()
        };
        let far = SyntheticRecipe {
            dep_distances: vec![0, 0, 0, 0, 0, 0, 0, 100, 100, 100],
            iterations: 300,
            ..SyntheticRecipe::codec_like()
        };
        let count_adjacent = |p: &Program| {
            // Count static consumer-follows-producer pairs.
            let text = p.text();
            text.windows(2)
                .filter(|w| {
                    w[0].writes()
                        .is_some_and(|d| w[1].sources().iter().flatten().any(|&s| s == d))
                })
                .count()
        };
        let pc = close.generate();
        let pf = far.generate();
        assert!(
            count_adjacent(&pc) > 3 * count_adjacent(&pf),
            "close {} vs far {}",
            count_adjacent(&pc),
            count_adjacent(&pf)
        );
    }

    #[test]
    fn random_branches_raise_misprediction_pressure() {
        let predictable = SyntheticRecipe {
            branch_percent: 20,
            branch_random_percent: 0,
            iterations: 400,
            ..SyntheticRecipe::codec_like()
        };
        let random = SyntheticRecipe {
            branch_random_percent: 100,
            ..predictable.clone()
        };
        // Count conditional-branch direction changes as a predictor-free
        // proxy for predictability: the random recipe's branch outcomes
        // must be far less stable than the always-taken recipe's.
        let flips = |recipe: &SyntheticRecipe| {
            let p = recipe.generate();
            let mut last = std::collections::HashMap::new();
            let mut flips = 0u64;
            let mut branches = 0u64;
            Vm::new(&p)
                .run_with(Some(1_000_000), |ev| {
                    if ev.class == InstClass::CondBranch {
                        branches += 1;
                        let taken = ev.taken == Some(true);
                        if let Some(prev) = last.insert(ev.pc, taken) {
                            if prev != taken {
                                flips += 1;
                            }
                        }
                    }
                })
                .unwrap();
            assert!(branches > 500, "recipe must emit branches: {branches}");
            flips as f64 / branches as f64
        };
        let f_pred = flips(&predictable);
        let f_rand = flips(&random);
        assert!(
            f_rand > f_pred + 0.1,
            "random sites should flip more: {f_rand:.3} vs {f_pred:.3}"
        );
    }

    #[test]
    fn addressing_patterns_shape_the_touched_footprint() {
        let base = SyntheticRecipe {
            footprint_words: 1 << 14,
            iterations: 400,
            ..SyntheticRecipe::codec_like()
        };
        let strided = SyntheticRecipe {
            stride_words: 64,
            ..base.clone()
        };
        let random = SyntheticRecipe {
            random_addresses: true,
            ..base.clone()
        };
        let lines_touched = |recipe: &SyntheticRecipe| {
            let p = recipe.generate();
            let mut lines = std::collections::HashSet::new();
            Vm::new(&p)
                .run_with(Some(1_000_000), |ev| {
                    if let Some(addr) = ev.eff_addr {
                        lines.insert(addr / 64);
                    }
                })
                .unwrap();
            lines.len()
        };
        let fixed = lines_touched(&base);
        let streamed = lines_touched(&strided);
        let randomized = lines_touched(&random);
        // Fixed slots reuse a handful of lines; moving pointers roam.
        assert!(
            streamed > 10 * fixed,
            "stride should spread lines: {streamed} vs fixed {fixed}"
        );
        assert!(
            randomized > 10 * fixed,
            "random should spread lines: {randomized} vs fixed {fixed}"
        );
    }

    #[test]
    fn all_pattern_variants_halt_within_the_declared_bound() {
        for recipe in [
            SyntheticRecipe::codec_like(),
            SyntheticRecipe {
                branch_percent: 25,
                branch_random_percent: 50,
                iterations: 200,
                ..SyntheticRecipe::codec_like()
            },
            SyntheticRecipe {
                stride_words: 16,
                footprint_words: 5_000, // non-power-of-two: rounded up
                iterations: 200,
                ..SyntheticRecipe::codec_like()
            },
            SyntheticRecipe {
                random_addresses: true,
                iterations: 200,
                ..SyntheticRecipe::codec_like()
            },
        ] {
            let p = recipe.generate();
            let mut vm = Vm::new(&p);
            let outcome = vm.run(Some(recipe.max_dynamic_length() + 1)).unwrap();
            assert!(outcome.halted(), "{}", recipe.describe());
            assert!(outcome.instructions() <= recipe.max_dynamic_length());
        }
    }

    #[test]
    fn describe_round_trips_through_serde() {
        let recipe = SyntheticRecipe {
            branch_percent: 10,
            branch_random_percent: 75,
            random_addresses: true,
            ..SyntheticRecipe::codec_like()
        };
        let text = recipe.describe();
        assert!(text.contains("75% random"), "{text}");
        assert!(text.contains("random"), "{text}");
        let json = serde_json::to_string(&recipe).unwrap();
        let back: SyntheticRecipe = serde_json::from_str(&json).unwrap();
        assert_eq!(back, recipe);
    }
}
