//! Property-based tests for the ISA: VM execution invariants over random
//! programs.

use mim_isa::{Program, ProgramBuilder, Reg, Vm};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Rrr(u8, u8, u8, u8), // opcode-select, dst, a, b
    Rri(u8, u8, u8, i32),
    Li(u8, i32),
    Ld(u8, u8),
    St(u8, u8),
    Br(u8, u8, u8, u8), // cond-select, a, b, forward skip
    J(u8),              // forward skip
}

/// Straight-line operations only (no control flow), for properties that
/// need every instruction to retire exactly once.
fn linear_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..13, 1u8..28, 0u8..28, 0u8..28).prop_map(|(o, d, a, b)| Op::Rrr(o, d, a, b)),
        (0u8..8, 1u8..28, 0u8..28, -1000i32..1000).prop_map(|(o, d, a, i)| Op::Rri(o, d, a, i)),
        (1u8..28, -100_000i32..100_000).prop_map(|(d, i)| Op::Li(d, i)),
        (1u8..28, 0u8..16).prop_map(|(d, s)| Op::Ld(d, s)),
        (0u8..28, 0u8..16).prop_map(|(v, s)| Op::St(v, s)),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => linear_op_strategy(),
        1 => (0u8..6, 0u8..28, 0u8..28, 0u8..8).prop_map(|(c, a, b, s)| Op::Br(c, a, b, s)),
        1 => (0u8..8).prop_map(Op::J),
    ]
}

/// Builds a safe random program: registers initialized, divides excluded
/// from Rrr (no trap hazards), all memory inside a 16-word arena, and all
/// control flow strictly forward (guaranteed termination).
fn build(ops: &[Op]) -> Program {
    let mut b = ProgramBuilder::named("random");
    b.alloc_words(16);
    let base = Reg::R30;
    b.li(base, 0);
    for i in 0..28 {
        b.li(Reg::from_index(i).unwrap(), i as i64 + 1);
    }
    let reg = |i: u8| Reg::from_index(i as usize).unwrap();
    // One label per op position plus one for the final halt; branch
    // targets are always forward, so every path reaches `halt`.
    let labels: Vec<_> = (0..=ops.len()).map(|_| b.label()).collect();
    let target = |i: usize, skip: u8| labels[(i + 1 + skip as usize).min(ops.len())];
    for (i, op) in ops.iter().enumerate() {
        b.bind(labels[i]);
        match *op {
            Op::Rrr(o, d, a, c) => {
                let (d, a, c) = (reg(d), reg(a), reg(c));
                match o {
                    0 => b.add(d, a, c),
                    1 => b.sub(d, a, c),
                    2 => b.and(d, a, c),
                    3 => b.or(d, a, c),
                    4 => b.xor(d, a, c),
                    5 => b.sll(d, a, c),
                    6 => b.srl(d, a, c),
                    7 => b.sra(d, a, c),
                    8 => b.slt(d, a, c),
                    9 => b.sltu(d, a, c),
                    10 => b.mul(d, a, c),
                    11 => b.rem(d, a, reg(1)), // r1 initialized nonzero... may be overwritten
                    _ => b.add(d, a, c),
                }
            }
            Op::Rri(o, d, a, i) => {
                let (d, a, i) = (reg(d), reg(a), i64::from(i));
                match o {
                    0 => b.addi(d, a, i),
                    1 => b.andi(d, a, i),
                    2 => b.ori(d, a, i),
                    3 => b.xori(d, a, i),
                    4 => b.slli(d, a, i & 63),
                    5 => b.srli(d, a, i & 63),
                    6 => b.srai(d, a, i & 63),
                    _ => b.slti(d, a, i),
                }
            }
            Op::Li(d, i) => b.li(reg(d), i64::from(i)),
            Op::Ld(d, s) => b.ld(reg(d), base, i64::from(s) * 8),
            Op::St(v, s) => b.st(reg(v), base, i64::from(s) * 8),
            Op::Br(c, a, x, s) => {
                let t = target(i, s);
                let (a, x) = (reg(a), reg(x));
                match c {
                    0 => b.beq(a, x, t),
                    1 => b.bne(a, x, t),
                    2 => b.blt(a, x, t),
                    3 => b.bge(a, x, t),
                    4 => b.bltu(a, x, t),
                    _ => b.bgeu(a, x, t),
                }
            }
            Op::J(s) => b.jmp(target(i, s)),
        }
    }
    b.bind(labels[ops.len()]);
    b.halt();
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Two runs of the VM over the same program are bit-identical.
    #[test]
    fn vm_is_deterministic(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        let p = build(&ops);
        let run = |p: &Program| {
            let mut vm = Vm::new(p);
            let outcome = vm.run(Some(100_000));
            (outcome.ok(), vm.memory().to_vec(),
             (0..32).map(|i| vm.reg(Reg::from_index(i).unwrap())).collect::<Vec<_>>())
        };
        prop_assert_eq!(run(&p), run(&p));
    }

    /// The VM retires exactly the number of non-halt instructions for
    /// straight-line programs that do not fault.
    #[test]
    fn straight_line_retires_every_instruction(ops in proptest::collection::vec(linear_op_strategy(), 1..100)) {
        let p = build(&ops);
        let mut vm = Vm::new(&p);
        if let Ok(outcome) = vm.run(None) {
            prop_assert!(outcome.halted());
            prop_assert_eq!(outcome.instructions(), p.len() as u64 - 1);
        }
    }

    /// Forward-only control flow guarantees termination: every non-faulting
    /// run halts, retiring at most the static instruction count (taken
    /// branches skip instructions, so strictly fewer when any branch fires).
    #[test]
    fn forward_programs_always_halt(ops in proptest::collection::vec(op_strategy(), 1..100)) {
        let p = build(&ops);
        let mut vm = Vm::new(&p);
        if let Ok(outcome) = vm.run(Some(p.len() as u64 + 1)) {
            prop_assert!(outcome.halted(), "forward control flow must reach halt");
            prop_assert!(outcome.instructions() < p.len() as u64);
        }
    }

    /// Trace events are well-formed: memory ops carry addresses, control
    /// ops carry directions, and next_pc chains correctly for
    /// straight-line code.
    #[test]
    fn trace_events_are_well_formed(ops in proptest::collection::vec(op_strategy(), 1..100)) {
        let p = build(&ops);
        let mut vm = Vm::new(&p);
        let mut expected_pc = 0u32;
        let mut ok = true;
        let result = vm.run_with(None, |ev| {
            ok &= ev.pc == expected_pc;
            expected_pc = ev.next_pc;
            match ev.class {
                mim_isa::InstClass::Load | mim_isa::InstClass::Store => {
                    ok &= ev.eff_addr.is_some();
                }
                mim_isa::InstClass::CondBranch | mim_isa::InstClass::Jump => {
                    ok &= ev.taken.is_some();
                }
                _ => {
                    ok &= ev.eff_addr.is_none() && ev.taken.is_none();
                }
            }
        });
        if result.is_ok() {
            prop_assert!(ok, "malformed trace event");
        }
    }
}
