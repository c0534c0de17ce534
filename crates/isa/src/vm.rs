//! Functional (architectural) simulation of programs.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::block::{checked_word, event_template, BlockHooks, EventHooks, NoHooks};
use crate::error::VmError;
use crate::inst::{InstClass, Opcode};
use crate::program::Program;
use crate::reg::{Reg, NUM_REGS};

/// Process-wide count of functional execution passes, bumped once per
/// recording pass by whichever backend performs it.
static FUNCTIONAL_EXECUTIONS: AtomicU64 = AtomicU64::new(0);

/// Records the start of one functional execution pass. Called by every
/// functional backend's run entry point — [`Vm::run_hooks`] and
/// [`BlockEngine::run_hooks`](crate::BlockEngine::run_hooks) — so the
/// counter's meaning is backend-independent.
pub(crate) fn count_functional_execution() {
    FUNCTIONAL_EXECUTIONS.fetch_add(1, Ordering::Relaxed);
}

/// Number of functional execution passes started in this process so far.
///
/// A "pass" is one *recording run* — a [`Vm::run_hooks`]-family call
/// on the interpreter, or a
/// [`BlockEngine::run_hooks`](crate::BlockEngine::run_hooks)-family call
/// on the block-compiled engine — **not** one instruction step. Which
/// backend executed the pass is deliberately invisible here: the counter
/// measures how often the stack re-executes a program, the quantity the
/// record-once trace layer (`mim-trace`) exists to minimize. That layer
/// keeps this number at one per `(workload, size)` no matter how many
/// design points consume the dynamic instruction stream; tests assert the
/// invariant by sampling the counter around a sweep. Monotone, never
/// reset; measure deltas.
pub fn functional_executions() -> u64 {
    FUNCTIONAL_EXECUTIONS.load(Ordering::Relaxed)
}

/// One dynamically executed instruction, as observed by trace consumers.
///
/// [`EventHooks`] assembles one event per retired instruction. Events
/// carry everything the profiler and the cycle-accurate pipeline simulator
/// need: operand registers, effective address of memory operations, and
/// resolved control-flow direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Program counter (instruction index) of this instruction.
    pub pc: u32,
    /// Opcode, for consumers that distinguish more than [`InstClass`].
    pub opcode: Opcode,
    /// Behaviour class used by the model and simulator.
    pub class: InstClass,
    /// Destination register, if the instruction writes one.
    pub dst: Option<Reg>,
    /// Source registers in operand order (`None` for absent operands).
    pub sources: [Option<Reg>; 2],
    /// Effective byte address for loads and stores.
    pub eff_addr: Option<u64>,
    /// Resolved direction for control-flow instructions (`Some(true)` if
    /// taken); `None` for non-control instructions.
    pub taken: Option<bool>,
    /// Program counter of the next dynamic instruction.
    pub next_pc: u32,
}

/// Why a [`Vm::run`] call stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The program executed a `halt` instruction.
    Halted {
        /// Number of instructions retired (excluding the `halt`).
        instructions: u64,
    },
    /// The caller-provided instruction limit was reached first.
    LimitReached {
        /// Number of instructions retired.
        instructions: u64,
    },
}

impl RunOutcome {
    /// True if the program ran to completion (`halt`).
    pub fn halted(self) -> bool {
        matches!(self, RunOutcome::Halted { .. })
    }

    /// Number of instructions retired before stopping.
    pub fn instructions(self) -> u64 {
        match self {
            RunOutcome::Halted { instructions } | RunOutcome::LimitReached { instructions } => {
                instructions
            }
        }
    }
}

/// Deterministic functional simulator for a [`Program`].
///
/// The VM executes the architectural semantics only — no timing — and
/// holds the one copy of them: it is the reference interpreter, the
/// differential oracle of [`BlockEngine`](crate::BlockEngine), and that
/// engine's state and careful tail. Observers see its instructions
/// through [`BlockHooks`]. Because execution is fully deterministic, a
/// program needs to be profiled only once, which is the premise of the
/// mechanistic modeling framework (paper §2.1).
///
/// # Example
///
/// ```
/// use mim_isa::{ProgramBuilder, Reg, Vm};
///
/// # fn main() -> Result<(), mim_isa::VmError> {
/// let mut b = ProgramBuilder::new();
/// b.li(Reg::R1, 6);
/// b.li(Reg::R2, 7);
/// b.mul(Reg::R3, Reg::R1, Reg::R2);
/// b.halt();
/// let p = b.build();
///
/// let mut vm = Vm::new(&p);
/// let mut classes = Vec::new();
/// vm.run_with(None, |ev| classes.push(ev.class))?;
/// assert_eq!(vm.reg(Reg::R3), 42);
/// assert_eq!(classes.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Vm<'p> {
    pub(crate) program: &'p Program,
    pub(crate) regs: [i64; NUM_REGS],
    pub(crate) mem: Vec<i64>,
    pub(crate) pc: u32,
    pub(crate) halted: bool,
    pub(crate) retired: u64,
}

impl<'p> Vm<'p> {
    /// Creates a VM with zeroed registers and the program's initial data
    /// image loaded into memory.
    pub fn new(program: &'p Program) -> Vm<'p> {
        Vm {
            program,
            regs: [0; NUM_REGS],
            mem: program.data().to_vec(),
            pc: 0,
            halted: false,
            retired: 0,
        }
    }

    /// Current value of register `r`.
    #[inline]
    pub fn reg(&self, r: Reg) -> i64 {
        self.regs[r.index()]
    }

    /// Sets register `r` (useful for tests and for parameterizing kernels).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: i64) {
        self.regs[r.index()] = value;
    }

    /// Read-only view of data memory, in words.
    pub fn memory(&self) -> &[i64] {
        &self.mem
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// True once a `halt` instruction has executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions retired so far (excluding `halt`).
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Runs until `halt` or until `limit` instructions have retired.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] raised during execution.
    pub fn run(&mut self, limit: Option<u64>) -> Result<RunOutcome, VmError> {
        self.run_hooks(limit, &mut NoHooks)
    }

    /// Runs like [`run`](Vm::run) while invoking `observer` for every
    /// retired instruction (through [`EventHooks`]).
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] raised during execution.
    pub fn run_with<F>(&mut self, limit: Option<u64>, observer: F) -> Result<RunOutcome, VmError>
    where
        F: FnMut(&TraceEvent),
    {
        self.run_hooks(limit, &mut EventHooks::new(observer))
    }

    /// Runs one instruction at a time, firing `hooks` per instruction as
    /// described on [`BlockHooks`] — every hook but
    /// [`begin_block`](BlockHooks::begin_block), since the interpreter
    /// enters no blocks.
    ///
    /// Counts as one functional execution pass
    /// ([`functional_executions`]).
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on memory faults, division by zero, or control
    /// flow leaving the program text.
    pub fn run_hooks<H: BlockHooks>(
        &mut self,
        limit: Option<u64>,
        hooks: &mut H,
    ) -> Result<RunOutcome, VmError> {
        count_functional_execution();
        self.exec(limit.unwrap_or(u64::MAX), hooks)
    }

    /// The interpreter proper: at most `remaining` instructions, each
    /// decoded off the program text. It is also the block engine's tail,
    /// which is why it counts no execution pass of its own, and why it
    /// stays out of line: the engine's dispatch loop calls it at most once
    /// a run.
    #[inline(never)]
    pub(crate) fn exec<H: BlockHooks>(
        &mut self,
        mut remaining: u64,
        hooks: &mut H,
    ) -> Result<RunOutcome, VmError> {
        while remaining > 0 {
            if self.halted {
                return Ok(RunOutcome::Halted {
                    instructions: self.retired,
                });
            }
            let pc = self.pc;
            let inst = *self.program.fetch(pc).ok_or(VmError::PcOutOfRange {
                pc,
                text_len: self.program.len() as u32,
            })?;
            if inst.opcode == Opcode::Halt {
                // Halt fires no hooks and does not retire or advance the PC.
                self.halted = true;
                return Ok(RunOutcome::Halted {
                    instructions: self.retired,
                });
            }
            let ev = event_template(&inst, pc);
            hooks.before_instruction(&ev);
            let a = self.regs[inst.src1.index()];
            let b = self.regs[inst.src2.index()];
            let imm = inst.imm;
            let mut next_pc = pc + 1;
            let mut taken = false;
            let mut write: Option<i64> = None;
            match inst.opcode {
                Opcode::Add => write = Some(a.wrapping_add(b)),
                Opcode::Sub => write = Some(a.wrapping_sub(b)),
                Opcode::And => write = Some(a & b),
                Opcode::Or => write = Some(a | b),
                Opcode::Xor => write = Some(a ^ b),
                Opcode::Sll => write = Some(a.wrapping_shl((b & 63) as u32)),
                Opcode::Srl => write = Some(((a as u64).wrapping_shr((b & 63) as u32)) as i64),
                Opcode::Sra => write = Some(a.wrapping_shr((b & 63) as u32)),
                Opcode::Slt => write = Some(i64::from(a < b)),
                Opcode::SltU => write = Some(i64::from((a as u64) < (b as u64))),
                Opcode::Addi => write = Some(a.wrapping_add(imm)),
                Opcode::Andi => write = Some(a & imm),
                Opcode::Ori => write = Some(a | imm),
                Opcode::Xori => write = Some(a ^ imm),
                Opcode::Slli => write = Some(a.wrapping_shl((imm & 63) as u32)),
                Opcode::Srli => write = Some(((a as u64).wrapping_shr((imm & 63) as u32)) as i64),
                Opcode::Srai => write = Some(a.wrapping_shr((imm & 63) as u32)),
                Opcode::Slti => write = Some(i64::from(a < imm)),
                Opcode::Li => write = Some(imm),
                Opcode::Mul => write = Some(a.wrapping_mul(b)),
                Opcode::Div | Opcode::Rem => {
                    if b == 0 {
                        return Err(VmError::DivideByZero { pc });
                    }
                    write = Some(if inst.opcode == Opcode::Div {
                        a.wrapping_div(b)
                    } else {
                        a.wrapping_rem(b)
                    });
                }
                Opcode::Ld => {
                    let addr = a.wrapping_add(imm) as u64;
                    let word = checked_word(&self.mem, addr).map_err(|e| e.at(pc))?;
                    hooks.mem_access(&ev, addr);
                    write = Some(self.mem[word]);
                }
                Opcode::St => {
                    // src1 = value, src2 = base.
                    let addr = b.wrapping_add(imm) as u64;
                    let word = checked_word(&self.mem, addr).map_err(|e| e.at(pc))?;
                    hooks.mem_access(&ev, addr);
                    self.mem[word] = a;
                }
                Opcode::Br(cond) => {
                    taken = cond.eval(a, b);
                    hooks.cond_branch(&ev, taken);
                    if taken {
                        next_pc = imm as u32;
                    }
                }
                Opcode::J => {
                    taken = true;
                    next_pc = imm as u32;
                }
                Opcode::Nop => {}
                Opcode::Halt => unreachable!("handled before hooks fire"),
            }
            if let Some(v) = write {
                self.regs[inst.dst.index()] = v;
            }
            self.pc = next_pc;
            self.retired += 1;
            remaining -= 1;
            if taken {
                hooks.after_taken_branch(&ev, next_pc);
            } else {
                hooks.after_instruction(&ev);
            }
        }
        Ok(RunOutcome::LimitReached {
            instructions: self.retired,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn run_program(b: ProgramBuilder) -> Vm<'static> {
        let p = Box::leak(Box::new(b.build()));
        let mut vm = Vm::new(p);
        vm.run(None).expect("program faulted");
        vm
    }

    #[test]
    fn alu_semantics() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 10);
        b.li(Reg::R2, 3);
        b.add(Reg::R3, Reg::R1, Reg::R2);
        b.sub(Reg::R4, Reg::R1, Reg::R2);
        b.and(Reg::R5, Reg::R1, Reg::R2);
        b.or(Reg::R6, Reg::R1, Reg::R2);
        b.xor(Reg::R7, Reg::R1, Reg::R2);
        b.sll(Reg::R8, Reg::R1, Reg::R2);
        b.slt(Reg::R9, Reg::R2, Reg::R1);
        b.halt();
        let vm = run_program(b);
        assert_eq!(vm.reg(Reg::R3), 13);
        assert_eq!(vm.reg(Reg::R4), 7);
        assert_eq!(vm.reg(Reg::R5), 2);
        assert_eq!(vm.reg(Reg::R6), 11);
        assert_eq!(vm.reg(Reg::R7), 9);
        assert_eq!(vm.reg(Reg::R8), 80);
        assert_eq!(vm.reg(Reg::R9), 1);
    }

    #[test]
    fn shift_semantics_logical_vs_arithmetic() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, -8);
        b.srai(Reg::R2, Reg::R1, 1);
        b.srli(Reg::R3, Reg::R1, 1);
        b.halt();
        let vm = run_program(b);
        assert_eq!(vm.reg(Reg::R2), -4);
        assert_eq!(vm.reg(Reg::R3), ((-8i64) as u64 >> 1) as i64);
    }

    #[test]
    fn mul_div_rem() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, -17);
        b.li(Reg::R2, 5);
        b.mul(Reg::R3, Reg::R1, Reg::R2);
        b.div(Reg::R4, Reg::R1, Reg::R2);
        b.rem(Reg::R5, Reg::R1, Reg::R2);
        b.halt();
        let vm = run_program(b);
        assert_eq!(vm.reg(Reg::R3), -85);
        assert_eq!(vm.reg(Reg::R4), -3); // truncating
        assert_eq!(vm.reg(Reg::R5), -2);
    }

    #[test]
    fn divide_by_zero_is_reported() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 1);
        b.div(Reg::R2, Reg::R1, Reg::R0);
        b.halt();
        let p = b.build();
        let mut vm = Vm::new(&p);
        let err = vm.run(None).unwrap_err();
        assert_eq!(err, VmError::DivideByZero { pc: 1 });
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let mut b = ProgramBuilder::new();
        let addr = b.data_words(&[11, 22, 33]);
        b.li(Reg::R1, addr as i64);
        b.ld(Reg::R2, Reg::R1, 8);
        b.addi(Reg::R2, Reg::R2, 100);
        b.st(Reg::R2, Reg::R1, 16);
        b.ld(Reg::R3, Reg::R1, 16);
        b.halt();
        let vm = run_program(b);
        assert_eq!(vm.reg(Reg::R2), 122);
        assert_eq!(vm.reg(Reg::R3), 122);
        assert_eq!(vm.memory()[2], 122);
    }

    #[test]
    fn out_of_bounds_access_is_reported() {
        let mut b = ProgramBuilder::new();
        b.data_words(&[0]);
        b.li(Reg::R1, 64);
        b.ld(Reg::R2, Reg::R1, 0);
        b.halt();
        let p = b.build();
        let mut vm = Vm::new(&p);
        let err = vm.run(None).unwrap_err();
        assert!(matches!(err, VmError::MemoryOutOfBounds { addr: 64, .. }));
    }

    #[test]
    fn unaligned_access_is_reported() {
        let mut b = ProgramBuilder::new();
        b.data_words(&[0, 0]);
        b.li(Reg::R1, 4);
        b.ld(Reg::R2, Reg::R1, 0);
        b.halt();
        let p = b.build();
        let mut vm = Vm::new(&p);
        let err = vm.run(None).unwrap_err();
        assert!(matches!(err, VmError::UnalignedAccess { addr: 4, .. }));
    }

    #[test]
    fn falling_off_the_text_is_reported() {
        let mut b = ProgramBuilder::new();
        b.nop(); // no halt
        let p = b.build();
        let mut vm = Vm::new(&p);
        let err = vm.run(None).unwrap_err();
        assert!(matches!(err, VmError::PcOutOfRange { pc: 1, .. }));
    }

    #[test]
    fn branch_events_carry_direction_and_target() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 1);
        let skip = b.label();
        b.beq(Reg::R1, Reg::R0, skip); // not taken
        b.bne(Reg::R1, Reg::R0, skip); // taken
        b.nop(); // skipped
        b.bind(skip);
        b.halt();
        let p = b.build();
        let mut vm = Vm::new(&p);
        let mut events = Vec::new();
        vm.run_with(None, |ev| events.push(*ev)).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].taken, Some(false));
        assert_eq!(events[1].next_pc, 2);
        assert_eq!(events[2].taken, Some(true));
        assert_eq!(events[2].next_pc, 4);
    }

    #[test]
    fn run_limit_stops_infinite_loops() {
        let mut b = ProgramBuilder::new();
        let top = b.here();
        b.addi(Reg::R1, Reg::R1, 1);
        b.jmp(top);
        let p = b.build();
        let mut vm = Vm::new(&p);
        let outcome = vm.run(Some(100)).unwrap();
        assert!(!outcome.halted());
        assert_eq!(outcome.instructions(), 100);
    }

    #[test]
    fn determinism_two_runs_identical() {
        let mut b = ProgramBuilder::new();
        let data = b.data_words(&[5, 9, 2, 7]);
        b.li(Reg::R1, data as i64);
        b.li(Reg::R2, 0);
        b.li(Reg::R3, 4);
        let top = b.here();
        b.ld(Reg::R4, Reg::R1, 0);
        b.add(Reg::R2, Reg::R2, Reg::R4);
        b.addi(Reg::R1, Reg::R1, 8);
        b.addi(Reg::R3, Reg::R3, -1);
        b.bne(Reg::R3, Reg::R0, top);
        b.halt();
        let p = b.build();

        let mut trace1 = Vec::new();
        let mut trace2 = Vec::new();
        Vm::new(&p).run_with(None, |e| trace1.push(*e)).unwrap();
        Vm::new(&p).run_with(None, |e| trace2.push(*e)).unwrap();
        assert_eq!(trace1, trace2);
    }
}
