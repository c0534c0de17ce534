//! Differential property tests: the block-compiled engine versus the
//! per-step interpreter over random synthetic programs.
//!
//! Random [`SyntheticRecipe`]s cover the generator's whole behavior space
//! (mix, dependency distances, branch predictability, addressing
//! patterns), each run under a random instruction limit so the limit
//! edge cases — zero, mid-block, exactly-exhausted, beyond-the-end — are
//! exercised too. The offline proptest stand-in does not shrink, so a
//! failing case is re-minimized by a greedy recipe shrinker before the
//! test reports it.

use mim_isa::{BlockEngine, EventHooks, Program, Reg, RunOutcome, TraceEvent, Vm, VmError};
use mim_trace::Trace;
use mim_workloads::synth::SyntheticRecipe;
use proptest::prelude::*;

/// Everything observable about one functional run: the outcome, the full
/// event stream, and the final architectural state.
#[derive(Debug, Clone, PartialEq)]
struct RunState {
    result: Result<RunOutcome, VmError>,
    events: Vec<TraceEvent>,
    regs: Vec<i64>,
    mem: Vec<i64>,
    pc: u32,
    halted: bool,
    retired: u64,
}

fn interp_run(p: &Program, limit: Option<u64>) -> RunState {
    let mut vm = Vm::new(p);
    let mut events = Vec::new();
    let result = vm.run_with(limit, |ev| events.push(*ev));
    RunState {
        result,
        events,
        regs: (0..32)
            .map(|i| vm.reg(Reg::from_index(i).unwrap()))
            .collect(),
        mem: vm.memory().to_vec(),
        pc: vm.pc(),
        halted: vm.is_halted(),
        retired: vm.retired(),
    }
}

fn block_run(p: &Program, limit: Option<u64>) -> RunState {
    let mut engine = BlockEngine::new(p);
    let mut events = Vec::new();
    let result = engine.run_hooks(limit, &mut EventHooks::new(|ev| events.push(*ev)));
    RunState {
        result,
        events,
        regs: (0..32)
            .map(|i| engine.vm().reg(Reg::from_index(i).unwrap()))
            .collect(),
        mem: engine.vm().memory().to_vec(),
        pc: engine.vm().pc(),
        halted: engine.vm().is_halted(),
        retired: engine.vm().retired(),
    }
}

/// Compares the two backends on one `(program, limit)` point, returning a
/// description of the first divergence.
fn mismatch(p: &Program, limit: Option<u64>) -> Option<String> {
    let a = interp_run(p, limit);
    let b = block_run(p, limit);
    if a == b {
        return None;
    }
    if a.result != b.result {
        return Some(format!("outcome {:?} vs {:?}", a.result, b.result));
    }
    if a.events != b.events {
        let i = a
            .events
            .iter()
            .zip(&b.events)
            .position(|(x, y)| x != y)
            .unwrap_or(a.events.len().min(b.events.len()));
        return Some(format!(
            "event streams diverge at index {i} (lens {} vs {}): {:?} vs {:?}",
            a.events.len(),
            b.events.len(),
            a.events.get(i),
            b.events.get(i)
        ));
    }
    Some(format!(
        "final state: regs match={} mem match={} pc {} vs {} halted {} vs {} retired {} vs {}",
        a.regs == b.regs,
        a.mem == b.mem,
        a.pc,
        b.pc,
        a.halted,
        b.halted,
        a.retired,
        b.retired
    ))
}

/// Greedy shrinker: repeatedly applies the first recipe/limit reduction
/// that keeps the case failing, until none does. Returns the minimized
/// case and its divergence.
fn shrink(
    mut recipe: SyntheticRecipe,
    mut limit: Option<u64>,
    mut why: String,
) -> (SyntheticRecipe, Option<u64>, String) {
    let still_failing =
        |r: &SyntheticRecipe, l: Option<u64>| -> Option<String> { mismatch(&r.generate(), l) };
    loop {
        let mut reduced = false;
        let mut candidates: Vec<(SyntheticRecipe, Option<u64>)> = Vec::new();
        if recipe.iterations > 1 {
            candidates.push((
                SyntheticRecipe {
                    iterations: recipe.iterations / 2,
                    ..recipe.clone()
                },
                limit,
            ));
        }
        if recipe.block_size > 1 {
            candidates.push((
                SyntheticRecipe {
                    block_size: recipe.block_size / 2,
                    ..recipe.clone()
                },
                limit,
            ));
        }
        if !recipe.dep_distances.is_empty() {
            candidates.push((
                SyntheticRecipe {
                    dep_distances: Vec::new(),
                    ..recipe.clone()
                },
                limit,
            ));
        }
        if recipe.branch_percent > 0 {
            candidates.push((
                SyntheticRecipe {
                    branch_percent: 0,
                    branch_random_percent: 0,
                    ..recipe.clone()
                },
                limit,
            ));
        }
        if recipe.random_addresses || recipe.stride_words > 0 {
            candidates.push((
                SyntheticRecipe {
                    random_addresses: false,
                    stride_words: 0,
                    ..recipe.clone()
                },
                limit,
            ));
        }
        if recipe.footprint_words > 4 {
            candidates.push((
                SyntheticRecipe {
                    footprint_words: 4,
                    ..recipe.clone()
                },
                limit,
            ));
        }
        let (alu, mul, div, load, store) = recipe.mix;
        for simpler in [
            (alu.max(1), 0, 0, load, store),
            (alu.max(1), mul, div, 0, 0),
            (1, 0, 0, 0, 0),
        ] {
            if simpler != recipe.mix {
                candidates.push((
                    SyntheticRecipe {
                        mix: simpler,
                        ..recipe.clone()
                    },
                    limit,
                ));
            }
        }
        if let Some(l) = limit {
            if l > 0 {
                candidates.push((recipe.clone(), Some(l / 2)));
            }
            candidates.push((recipe.clone(), None));
        }
        for (cand_recipe, cand_limit) in candidates {
            if let Some(msg) = still_failing(&cand_recipe, cand_limit) {
                recipe = cand_recipe;
                limit = cand_limit;
                why = msg;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return (recipe, limit, why);
        }
    }
}

/// Random recipes spanning the synthesis behavior space. `div` is safe to
/// include: synthetic programs divide by a fixed nonzero register.
fn recipe_strategy() -> impl Strategy<Value = SyntheticRecipe> {
    (
        (1usize..40, 1u64..40),
        (0u32..8, 0u32..4, 0u32..3, 0u32..6, 0u32..4),
        proptest::collection::vec(0u32..10, 0..6),
        (1usize..300, 0u32..40, 0u32..101),
        (0usize..24, 0u64..4, 0u64..u64::MAX),
    )
        .prop_map(
            |(
                (block_size, iterations),
                mut mix,
                dep_distances,
                (footprint_words, branch_percent, branch_random_percent),
                (stride_words, addr_mode, seed),
            )| {
                if mix.0 + mix.1 + mix.2 + mix.3 + mix.4 == 0 {
                    mix.0 = 1;
                }
                SyntheticRecipe {
                    block_size,
                    iterations,
                    mix,
                    dep_distances,
                    footprint_words,
                    branch_percent,
                    branch_random_percent,
                    stride_words,
                    random_addresses: addr_mode == 0,
                    seed,
                }
            },
        )
}

/// Maps a selector to an instruction limit: `None`, zero, a fraction of
/// the program's dynamic length, or just beyond its end.
fn limit_for(recipe: &SyntheticRecipe, sel: u64) -> Option<u64> {
    match sel {
        105.. => None,
        s => Some(recipe.max_dynamic_length() * s / 100),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The block engine and the interpreter are indistinguishable on
    /// random synthetic programs: identical `TraceEvent` streams,
    /// identical register files and memory, identical pc / halt /
    /// retired-count state, identical outcomes — at every limit.
    #[test]
    fn block_engine_matches_interpreter(recipe in recipe_strategy(), sel in 0u64..110) {
        let limit = limit_for(&recipe, sel);
        let p = recipe.generate();
        if let Some(why) = mismatch(&p, limit) {
            let (min_recipe, min_limit, min_why) = shrink(recipe, limit, why);
            prop_assert!(
                false,
                "backends diverge: {min_why}\nminimal recipe: {} (limit {:?})",
                min_recipe.describe(),
                min_limit
            );
        }
    }

    /// `Trace::record` (block engine) and `Trace::record_interpreted`
    /// serialize to the same bytes for every random program and limit.
    #[test]
    fn recordings_are_byte_identical(recipe in recipe_strategy(), sel in 0u64..110) {
        let limit = limit_for(&recipe, sel);
        let p = recipe.generate();
        let block = Trace::record(&p, limit);
        let interp = Trace::record_interpreted(&p, limit);
        match (block, interp) {
            (Ok(b), Ok(i)) => prop_assert_eq!(b.to_bytes(), i.to_bytes()),
            (b, i) => prop_assert_eq!(b, i),
        }
    }
}
