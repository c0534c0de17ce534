//! Block-compiled functional execution (the DBT-style engine).
//!
//! The interpreting [`Vm`](crate::Vm) re-decodes every instruction on
//! every dynamic execution: fetch, bounds check, a 30-arm opcode match,
//! operand-shape matches (`writes()`/`sources()`), and the construction
//! of a full [`TraceEvent`] per retired instruction. That per-step cost
//! is the hard floor under every trace recording and sweep profile.
//!
//! This module removes it the way dynamic binary translators do:
//!
//! * [`BlockCompiler`] decodes each **basic block** once — from an entry
//!   PC up to the first control-flow instruction — into a dense array of
//!   pre-resolved micro-ops (register *indices*, immediates, and the
//!   branch target as plain integers) plus one static [`TraceEvent`]
//!   template per instruction.
//! * [`BlockCache`] memoizes compiled blocks by entry PC. Programs are
//!   immutable, so the cache never invalidates; blocks additionally
//!   inline-cache their successor blocks, so steady-state dispatch never
//!   touches the hash map.
//! * [`BlockEngine`] executes cached blocks in a tight loop, invoking
//!   [`BlockHooks`] — a monomorphized, r2vm-`PipelineModel`-shaped hook
//!   interface (`begin_block` / `before_instruction` /
//!   `after_taken_branch`, …) — so consumers observe exactly the dynamic
//!   facts they need (a branch direction, an effective address) without
//!   the engine materializing events it will throw away.
//!
//! The interpreter is kept, bit-for-bit compatible, as the differential
//! oracle: the engine produces identical architectural state, identical
//! [`TraceEvent`] streams (via [`BlockEngine::run_with`]), identical
//! [`VmError`]s, and identical [`RunOutcome`]s, which the test suite
//! asserts on every bundled workload. Consumers that need the oracle
//! construct a [`Vm`](crate::Vm) explicitly.

use std::collections::HashMap;

use crate::error::VmError;
use crate::inst::{Cond, Inst, InstClass, Opcode};
use crate::program::{Program, WORD_BYTES};
use crate::reg::{Reg, NUM_REGS};
use crate::vm::{count_functional_execution, RunOutcome, TraceEvent};

// ---------------------------------------------------------------------------
// Hooks
// ---------------------------------------------------------------------------

/// Timing/observation hooks invoked by the block dispatch loop.
///
/// The shape follows r2vm's `PipelineModel`: the compiler-side static
/// facts arrive as pre-built [`TraceEvent`] templates (everything but
/// `eff_addr`/`taken`/a taken branch's `next_pc` is resolved at block
/// compile time), and the dispatch loop adds only the dynamic facts.
/// All methods default to no-ops; because the loop is monomorphized over
/// the hook type, unimplemented hooks compile away entirely — a consumer
/// pays only for the callbacks it uses.
///
/// Per retired instruction the engine fires, in order:
///
/// 1. [`before_instruction`](BlockHooks::before_instruction) — always;
/// 2. [`mem_access`](BlockHooks::mem_access) (loads/stores) or
///    [`cond_branch`](BlockHooks::cond_branch) (conditional branches);
/// 3. exactly one of [`after_instruction`](BlockHooks::after_instruction)
///    (sequential flow) or
///    [`after_taken_branch`](BlockHooks::after_taken_branch) (taken
///    conditional branch or jump).
///
/// [`begin_block`](BlockHooks::begin_block) fires once when dispatch
/// enters a block. A `halt` fires no hooks (it does not retire), and a
/// faulting instruction fires `before_instruction` but none of the
/// after-hooks — its effects never happen.
pub trait BlockHooks {
    /// Dispatch entered `block` (about to execute its first instruction).
    #[inline(always)]
    fn begin_block(&mut self, _block: &Block) {}

    /// An instruction is about to execute. `op` is its static template:
    /// `pc`, `opcode`, `class`, `dst`, `sources`, and the sequential
    /// `next_pc` are valid; `eff_addr`/`taken` are not yet known.
    #[inline(always)]
    fn before_instruction(&mut self, _op: &TraceEvent) {}

    /// A load or store computed effective address `addr` (and did not
    /// fault). Fires between `before_instruction` and
    /// `after_instruction`.
    #[inline(always)]
    fn mem_access(&mut self, _op: &TraceEvent, _addr: u64) {}

    /// A conditional branch resolved to `taken`. Fires between
    /// `before_instruction` and the matching after-hook.
    #[inline(always)]
    fn cond_branch(&mut self, _op: &TraceEvent, _taken: bool) {}

    /// The instruction retired and control continues sequentially (this
    /// includes not-taken conditional branches).
    #[inline(always)]
    fn after_instruction(&mut self, _op: &TraceEvent) {}

    /// The instruction retired as a taken control transfer to
    /// `target` (taken conditional branch, or a jump).
    #[inline(always)]
    fn after_taken_branch(&mut self, _op: &TraceEvent, _target: u32) {}
}

/// The hook set that observes nothing — bare functional execution.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHooks;

impl BlockHooks for NoHooks {}

// ---------------------------------------------------------------------------
// Compiled form
// ---------------------------------------------------------------------------

/// Pre-decoded operation selector of a [`MicroOp`]. One flat tag —
/// conditions folded in — so dispatch is a single-byte jump table.
///
/// The `XY`/`XYZ` variants are **superops**: the block compiler fuses
/// the hottest consecutive instruction pairs and triples (measured
/// across the bundled kernels) into one dispatch. A fused group still
/// occupies its original body slots — the trailing slots keep their
/// decoded form and are simply skipped over — so events, retirement
/// accounting, and fault PCs stay 1:1 with instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum OpKind {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    Slt,
    SltU,
    Addi,
    Andi,
    Ori,
    Xori,
    Slli,
    Srli,
    Srai,
    Slti,
    Li,
    Mul,
    Div,
    Rem,
    Ld,
    St,
    Nop,
    // Fused ALU/ALU pairs.
    SlliAdd,
    AddAddi,
    AddiAddi,
    MulAdd,
    SlliAddi,
    AddSlli,
    SlliSlli,
    AddiLi,
    SraiAdd,
    MulSrai,
    AddiSlli,
    LiLi,
    AndiSlli,
    AddAdd,
    XorAnd,
    XorXor,
    AndAdd,
    OrAnd,
    XorLi,
    AddAnd,
    SrliOr,
    AndAddi,
    // Fused pairs with a memory op in first or second position.
    AddiLd,
    AddLd,
    LdMul,
    LdSlli,
    LdAdd,
    LdSub,
    LdLd,
    LdAddi,
    StAddi,
    LdXor,
    XorLd,
    AndSt,
    // Fused triples (array-indexing, address-generation, schedule-xor
    // and rotate idioms).
    SlliAddLd,
    SlliSlliAdd,
    AddiLdMul,
    MulAddSlli,
    AddAddiLd,
    SlliAddiLd,
    StAddiAddi,
    SraiAddAddi,
    AddiAddiAddi,
    AndiSlliAdd,
    SlliSrliOr,
    OrAndSt,
    OrAndAdd,
    LdXorLd,
    AddAddAdd,
    XorAndXor,
    OrAndAddi,
}

/// Fusible pair table: `(first, second) -> fused`. Order matters only
/// for readability; the compile pass scans greedily left to right,
/// trying [`fuse_kinds3`] before this table at each position.
fn fuse_kinds(first: OpKind, second: OpKind) -> Option<OpKind> {
    Some(match (first, second) {
        (OpKind::Slli, OpKind::Add) => OpKind::SlliAdd,
        (OpKind::Add, OpKind::Addi) => OpKind::AddAddi,
        (OpKind::Addi, OpKind::Addi) => OpKind::AddiAddi,
        (OpKind::Mul, OpKind::Add) => OpKind::MulAdd,
        (OpKind::Slli, OpKind::Addi) => OpKind::SlliAddi,
        (OpKind::Add, OpKind::Slli) => OpKind::AddSlli,
        (OpKind::Slli, OpKind::Slli) => OpKind::SlliSlli,
        (OpKind::Addi, OpKind::Li) => OpKind::AddiLi,
        (OpKind::Srai, OpKind::Add) => OpKind::SraiAdd,
        (OpKind::Mul, OpKind::Srai) => OpKind::MulSrai,
        (OpKind::Addi, OpKind::Slli) => OpKind::AddiSlli,
        (OpKind::Li, OpKind::Li) => OpKind::LiLi,
        (OpKind::Andi, OpKind::Slli) => OpKind::AndiSlli,
        (OpKind::Add, OpKind::Add) => OpKind::AddAdd,
        (OpKind::Xor, OpKind::And) => OpKind::XorAnd,
        (OpKind::Xor, OpKind::Xor) => OpKind::XorXor,
        (OpKind::And, OpKind::Add) => OpKind::AndAdd,
        (OpKind::Or, OpKind::And) => OpKind::OrAnd,
        (OpKind::Xor, OpKind::Li) => OpKind::XorLi,
        (OpKind::Add, OpKind::And) => OpKind::AddAnd,
        (OpKind::Srli, OpKind::Or) => OpKind::SrliOr,
        (OpKind::And, OpKind::Addi) => OpKind::AndAddi,
        (OpKind::Addi, OpKind::Ld) => OpKind::AddiLd,
        (OpKind::Add, OpKind::Ld) => OpKind::AddLd,
        (OpKind::Ld, OpKind::Mul) => OpKind::LdMul,
        (OpKind::Ld, OpKind::Slli) => OpKind::LdSlli,
        (OpKind::Ld, OpKind::Add) => OpKind::LdAdd,
        (OpKind::Ld, OpKind::Sub) => OpKind::LdSub,
        (OpKind::Ld, OpKind::Ld) => OpKind::LdLd,
        (OpKind::Ld, OpKind::Addi) => OpKind::LdAddi,
        (OpKind::St, OpKind::Addi) => OpKind::StAddi,
        (OpKind::Ld, OpKind::Xor) => OpKind::LdXor,
        (OpKind::Xor, OpKind::Ld) => OpKind::XorLd,
        (OpKind::And, OpKind::St) => OpKind::AndSt,
        _ => return None,
    })
}

/// Fusible triple table, tried before pairs (longest match wins).
fn fuse_kinds3(first: OpKind, second: OpKind, third: OpKind) -> Option<OpKind> {
    Some(match (first, second, third) {
        (OpKind::Slli, OpKind::Add, OpKind::Ld) => OpKind::SlliAddLd,
        (OpKind::Slli, OpKind::Slli, OpKind::Add) => OpKind::SlliSlliAdd,
        (OpKind::Addi, OpKind::Ld, OpKind::Mul) => OpKind::AddiLdMul,
        (OpKind::Mul, OpKind::Add, OpKind::Slli) => OpKind::MulAddSlli,
        (OpKind::Add, OpKind::Addi, OpKind::Ld) => OpKind::AddAddiLd,
        (OpKind::Slli, OpKind::Addi, OpKind::Ld) => OpKind::SlliAddiLd,
        (OpKind::St, OpKind::Addi, OpKind::Addi) => OpKind::StAddiAddi,
        (OpKind::Srai, OpKind::Add, OpKind::Addi) => OpKind::SraiAddAddi,
        (OpKind::Addi, OpKind::Addi, OpKind::Addi) => OpKind::AddiAddiAddi,
        (OpKind::Andi, OpKind::Slli, OpKind::Add) => OpKind::AndiSlliAdd,
        (OpKind::Slli, OpKind::Srli, OpKind::Or) => OpKind::SlliSrliOr,
        (OpKind::Or, OpKind::And, OpKind::St) => OpKind::OrAndSt,
        (OpKind::Or, OpKind::And, OpKind::Add) => OpKind::OrAndAdd,
        (OpKind::Ld, OpKind::Xor, OpKind::Ld) => OpKind::LdXorLd,
        (OpKind::Add, OpKind::Add, OpKind::Add) => OpKind::AddAddAdd,
        (OpKind::Xor, OpKind::And, OpKind::Xor) => OpKind::XorAndXor,
        (OpKind::Or, OpKind::And, OpKind::Addi) => OpKind::OrAndAddi,
        _ => return None,
    })
}

/// One pre-decoded straight-line instruction: operand register *indices*
/// and the immediate, resolved once at compile time. 16 bytes.
#[derive(Debug, Clone, Copy)]
struct MicroOp {
    kind: OpKind,
    dst: u8,
    src1: u8,
    src2: u8,
    imm: i64,
}

/// How a compiled block ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Terminator {
    /// Conditional branch: taken to `target` (an absolute instruction
    /// index), else fall through.
    CondBr {
        cond: Cond,
        src1: u8,
        src2: u8,
        target: u32,
    },
    /// Unconditional direct jump to `target`.
    Jump { target: u32 },
    /// The machine halts (the `halt` itself does not retire).
    Halt,
    /// No control flow: the block was split at the length cap or at the
    /// end of the program text; execution continues at the next PC.
    FallThrough,
}

/// Straight-line blocks are split at this many instructions so compile
/// latency and limit-handling stay bounded.
const MAX_BLOCK_OPS: usize = 128;

/// Bitmask proving register indices in-bounds to the optimizer.
/// `Reg::index()` is always `< NUM_REGS`, so masking is the identity.
const REG_MASK: usize = NUM_REGS - 1;
const _: () = assert!(NUM_REGS.is_power_of_two());

/// One compiled basic block: the decoded straight-line body, its
/// terminator, and a static [`TraceEvent`] template per instruction (the
/// compile-time half of each event — hooks receive these, so no consumer
/// ever re-derives operand shapes per dynamic instruction).
#[derive(Debug, Clone)]
pub struct Block {
    entry_pc: u32,
    body: Vec<MicroOp>,
    term: Terminator,
    /// PC of the terminator instruction (== `entry_pc + body.len()`);
    /// for `FallThrough` this is the PC execution continues at.
    term_pc: u32,
    /// Static event templates: one per body op, plus one for a
    /// `CondBr`/`Jump` terminator.
    events: Vec<TraceEvent>,
    /// Instructions retired by a full (uninterrupted) execution of the
    /// block.
    retire_len: u64,
    /// Minimum remaining instruction budget for the no-limit-checks fast
    /// path (`retire_len`, plus one for a `Halt` terminator so the halt
    /// "step" itself stays within the caller's limit, exactly as the
    /// interpreter's per-step limit check behaves).
    fast_need: u64,
}

impl Block {
    /// Entry PC of the block (its cache key).
    pub fn entry_pc(&self) -> u32 {
        self.entry_pc
    }

    /// Number of instructions a full execution of this block retires.
    pub fn instructions(&self) -> u64 {
        self.retire_len
    }

    /// Static event templates of the block's instructions, in program
    /// order (`eff_addr`/`taken` unset; a taken terminator additionally
    /// overrides `next_pc` at run time).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }
}

/// Decodes basic blocks of an immutable [`Program`] into their dense
/// compiled form ([`Block`]).
///
/// The compiler performs, once per static block, all the work the
/// interpreter repeats per dynamic instruction: operand-shape resolution
/// (`writes()`/`sources()`), class assignment, branch-target decoding,
/// and bounds-safe fetching.
#[derive(Debug, Clone, Copy)]
pub struct BlockCompiler<'p> {
    program: &'p Program,
}

impl<'p> BlockCompiler<'p> {
    /// A compiler over `program`.
    pub fn new(program: &'p Program) -> BlockCompiler<'p> {
        BlockCompiler { program }
    }

    /// Compiles the basic block entered at `entry` (which must be inside
    /// the program text): instructions up to and including the first
    /// control-flow instruction or `halt`, split at `MAX_BLOCK_OPS`.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is outside the program text (callers check:
    /// entering text from outside is the interpreter's
    /// [`VmError::PcOutOfRange`], raised by the dispatch loop before
    /// compilation).
    pub fn compile(&self, entry: u32) -> Block {
        let started = mim_obs::clock();
        assert!(
            (entry as usize) < self.program.len(),
            "block entry {entry} outside program text"
        );
        let mut body = Vec::new();
        let mut events = Vec::new();
        let mut term = Terminator::FallThrough;
        let mut pc = entry;
        while let Some(inst) = self.program.fetch(pc) {
            match inst.opcode {
                Opcode::Br(cond) => {
                    term = Terminator::CondBr {
                        cond,
                        src1: inst.src1.index() as u8,
                        src2: inst.src2.index() as u8,
                        target: inst.imm as u32,
                    };
                    events.push(event_template(inst, pc));
                    break;
                }
                Opcode::J => {
                    term = Terminator::Jump {
                        target: inst.imm as u32,
                    };
                    events.push(event_template(inst, pc));
                    break;
                }
                Opcode::Halt => {
                    term = Terminator::Halt;
                    break;
                }
                _ => {
                    body.push(micro_op(inst));
                    events.push(event_template(inst, pc));
                    if body.len() >= MAX_BLOCK_OPS {
                        break;
                    }
                    pc += 1;
                }
            }
        }
        // Superop fusion: rewrite the first slot of each fusible group to
        // its fused kind, longest match first. The trailing slots stay as
        // decoded (the fused arm reads their operands and the dispatch
        // loop skips over them), so the slot/instruction correspondence
        // is untouched.
        let mut i = 0;
        while i < body.len() {
            if i + 2 < body.len() {
                if let Some(fused) = fuse_kinds3(body[i].kind, body[i + 1].kind, body[i + 2].kind) {
                    body[i].kind = fused;
                    i += 3;
                    continue;
                }
            }
            if i + 1 < body.len() {
                if let Some(fused) = fuse_kinds(body[i].kind, body[i + 1].kind) {
                    body[i].kind = fused;
                    i += 2;
                    continue;
                }
            }
            i += 1;
        }

        let term_pc = entry + body.len() as u32;
        let retire_len = body.len() as u64
            + match term {
                Terminator::CondBr { .. } | Terminator::Jump { .. } => 1,
                Terminator::Halt | Terminator::FallThrough => 0,
            };
        let fast_need = match term {
            Terminator::Halt => retire_len + 1,
            _ => retire_len,
        };
        let block = Block {
            entry_pc: entry,
            body,
            term,
            term_pc,
            events,
            retire_len,
            fast_need,
        };
        let obs = mim_obs::global();
        obs.counter("block.compiled").inc();
        obs.histogram("block.compile_ns").observe_since(started);
        block
    }
}

fn micro_op(inst: &Inst) -> MicroOp {
    let kind = match inst.opcode {
        Opcode::Add => OpKind::Add,
        Opcode::Sub => OpKind::Sub,
        Opcode::And => OpKind::And,
        Opcode::Or => OpKind::Or,
        Opcode::Xor => OpKind::Xor,
        Opcode::Sll => OpKind::Sll,
        Opcode::Srl => OpKind::Srl,
        Opcode::Sra => OpKind::Sra,
        Opcode::Slt => OpKind::Slt,
        Opcode::SltU => OpKind::SltU,
        Opcode::Addi => OpKind::Addi,
        Opcode::Andi => OpKind::Andi,
        Opcode::Ori => OpKind::Ori,
        Opcode::Xori => OpKind::Xori,
        Opcode::Slli => OpKind::Slli,
        Opcode::Srli => OpKind::Srli,
        Opcode::Srai => OpKind::Srai,
        Opcode::Slti => OpKind::Slti,
        Opcode::Li => OpKind::Li,
        Opcode::Mul => OpKind::Mul,
        Opcode::Div => OpKind::Div,
        Opcode::Rem => OpKind::Rem,
        Opcode::Ld => OpKind::Ld,
        Opcode::St => OpKind::St,
        Opcode::Nop => OpKind::Nop,
        Opcode::Br(_) | Opcode::J | Opcode::Halt => {
            unreachable!("control flow is a terminator, not a body op")
        }
    };
    MicroOp {
        kind,
        dst: inst.dst.index() as u8,
        src1: inst.src1.index() as u8,
        src2: inst.src2.index() as u8,
        imm: inst.imm,
    }
}

/// The compile-time half of a [`TraceEvent`]: everything the interpreter
/// recomputes per dynamic instruction. `eff_addr` and `taken` stay unset
/// (`None`) except for jumps, whose direction and target are static.
fn event_template(inst: &Inst, pc: u32) -> TraceEvent {
    let (taken, next_pc) = match inst.opcode {
        Opcode::J => (Some(true), inst.imm as u32),
        _ => (None, pc + 1),
    };
    TraceEvent {
        pc,
        opcode: inst.opcode,
        class: inst.class(),
        dst: inst.writes(),
        sources: inst.sources(),
        eff_addr: None,
        taken,
        next_pc,
    }
}

// ---------------------------------------------------------------------------
// Block cache
// ---------------------------------------------------------------------------

/// Unresolved successor-link marker.
const NO_SUCC: u32 = u32::MAX;

/// Compiled blocks of one program, keyed by entry PC.
///
/// Programs are immutable, so the cache is append-only and never
/// invalidates. Each block also carries two inline successor links
/// (taken / fall-through), filled in by the dispatch loop the first time
/// an edge is followed — steady-state block chaining is two array reads,
/// no hashing.
#[derive(Debug, Default, Clone)]
pub struct BlockCache {
    by_pc: HashMap<u32, u32>,
    blocks: Vec<Block>,
    /// `[taken, fallthrough]` successor block indices per block.
    succs: Vec<[u32; 2]>,
    /// Block entries resolved from an already-compiled block (by inline
    /// link or map hit) during dispatch, accumulated locally and flushed
    /// to the `block.cache_hits` counter at the end of each run.
    hits: u64,
}

impl BlockCache {
    /// An empty cache.
    pub fn new() -> BlockCache {
        BlockCache::default()
    }

    /// Number of distinct basic blocks compiled so far.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if nothing has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The block index for `pc`, compiling on first visit.
    ///
    /// # Errors
    ///
    /// [`VmError::PcOutOfRange`] if `pc` is outside the program text —
    /// the same fault, with the same payload, the interpreter raises when
    /// stepping there.
    fn lookup_or_compile(&mut self, program: &Program, pc: u32) -> Result<u32, VmError> {
        if let Some(&bid) = self.by_pc.get(&pc) {
            self.hits += 1;
            return Ok(bid);
        }
        if pc as usize >= program.len() {
            return Err(VmError::PcOutOfRange {
                pc,
                text_len: program.len() as u32,
            });
        }
        let block = BlockCompiler::new(program).compile(pc);
        let bid = self.blocks.len() as u32;
        self.blocks.push(block);
        self.succs.push([NO_SUCC, NO_SUCC]);
        self.by_pc.insert(pc, bid);
        Ok(bid)
    }

    /// Flushes locally accumulated cache-hit counts into the global
    /// `block.cache_hits` counter (one atomic add per run, not per
    /// block).
    fn flush_hits(&mut self) {
        if self.hits > 0 {
            mim_obs::global().counter("block.cache_hits").add(self.hits);
            self.hits = 0;
        }
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Block-compiled functional execution engine: interprets a program's
/// architectural semantics exactly like [`Vm`](crate::Vm), but through the
/// [`BlockCache`] and a hook-driven dispatch loop instead of a per-step
/// decode.
///
/// # Example
///
/// ```
/// use mim_isa::{BlockEngine, ProgramBuilder, Reg, Vm};
///
/// # fn main() -> Result<(), mim_isa::VmError> {
/// let mut b = ProgramBuilder::new();
/// b.li(Reg::R1, 6);
/// b.li(Reg::R2, 7);
/// b.mul(Reg::R3, Reg::R1, Reg::R2);
/// b.halt();
/// let p = b.build();
///
/// let mut engine = BlockEngine::new(&p);
/// let outcome = engine.run(None)?;
/// assert!(outcome.halted());
/// assert_eq!(engine.reg(Reg::R3), 42);
///
/// // The interpreter is the differential oracle: identical state.
/// let mut vm = Vm::new(&p);
/// vm.run(None)?;
/// assert_eq!(vm.reg(Reg::R3), engine.reg(Reg::R3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BlockEngine<'p> {
    program: &'p Program,
    cache: BlockCache,
    regs: [i64; NUM_REGS],
    mem: Vec<i64>,
    pc: u32,
    halted: bool,
    retired: u64,
}

impl<'p> BlockEngine<'p> {
    /// An engine with zeroed registers, the program's initial data image,
    /// and an empty block cache (blocks compile lazily on first
    /// execution).
    pub fn new(program: &'p Program) -> BlockEngine<'p> {
        BlockEngine {
            program,
            cache: BlockCache::new(),
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

    /// Sets register `r`.
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

    /// The engine's block cache (compiled-block count, for tests and
    /// instrumentation).
    pub fn cache(&self) -> &BlockCache {
        &self.cache
    }

    /// Runs until `halt` or until `limit` instructions have retired,
    /// with no observation — the cheapest possible functional pass.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] raised during execution.
    pub fn run(&mut self, limit: Option<u64>) -> Result<RunOutcome, VmError> {
        self.run_hooks(limit, &mut NoHooks)
    }

    /// Runs like [`run`](BlockEngine::run) while invoking `observer` for
    /// every retired instruction, reconstructing the exact
    /// [`TraceEvent`] stream the interpreter would emit (dynamic fields
    /// patched into the block's static templates).
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] raised during execution.
    pub fn run_with<F>(
        &mut self,
        limit: Option<u64>,
        mut observer: F,
    ) -> Result<RunOutcome, VmError>
    where
        F: FnMut(&TraceEvent),
    {
        let mut hooks = EventHooks {
            observer: &mut observer,
            pending: IDLE_EVENT,
        };
        self.run_hooks(limit, &mut hooks)
    }

    /// Runs the program on the compiled-block dispatch loop, firing
    /// `hooks` as described on [`BlockHooks`]. This is the engine's
    /// primary entry point: trace recording and sweep profiling are hook
    /// sets.
    ///
    /// Counts as one functional execution pass
    /// ([`functional_executions`](crate::functional_executions)), exactly
    /// like [`Vm::run_with`](crate::Vm::run_with).
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] raised during execution; on error the
    /// engine's state (registers, memory, `pc`, retired count) is
    /// identical to the interpreter's after the same fault.
    pub fn run_hooks<H: BlockHooks>(
        &mut self,
        limit: Option<u64>,
        hooks: &mut H,
    ) -> Result<RunOutcome, VmError> {
        count_functional_execution();
        let result = self.dispatch(limit.unwrap_or(u64::MAX), hooks);
        self.cache.flush_hits();
        result
    }

    /// The dispatch loop proper. Registers are staged in a local array
    /// (flushed on every exit path) so the optimizer can keep them out of
    /// memory; `retired`/`pc` advance in block-sized strides on the fast
    /// path.
    fn dispatch<H: BlockHooks>(
        &mut self,
        limit: u64,
        hooks: &mut H,
    ) -> Result<RunOutcome, VmError> {
        let program = self.program;
        let mut regs = self.regs;
        let mut pc = self.pc;
        let mut retired = self.retired;
        let mut remaining = limit;
        let mut hits: u64 = 0;
        // The inline-cached successor of the edge the previous block
        // exited through, plus that edge's home slot for filling in.
        let mut hint: u32 = NO_SUCC;
        let mut link: Option<(u32, usize)> = None;

        macro_rules! flush {
            () => {
                self.regs = regs;
                self.pc = pc;
                self.retired = retired;
                self.cache.hits += hits;
            };
        }

        // The interpreter's run loop checks the budget before looking at
        // machine state, so an exhausted budget wins over a halted VM.
        if remaining == 0 {
            return Ok(RunOutcome::LimitReached {
                instructions: retired,
            });
        }
        if self.halted {
            return Ok(RunOutcome::Halted {
                instructions: retired,
            });
        }

        // ALU evaluation by (pre-fusion) op kind, shared between the
        // halves of fused superop pairs.
        macro_rules! alu {
            (Add, $a:expr, $b:expr, $imm:expr) => {
                $a.wrapping_add($b)
            };
            (Sub, $a:expr, $b:expr, $imm:expr) => {
                $a.wrapping_sub($b)
            };
            (Addi, $a:expr, $b:expr, $imm:expr) => {
                $a.wrapping_add($imm)
            };
            (Slli, $a:expr, $b:expr, $imm:expr) => {
                $a.wrapping_shl(($imm & 63) as u32)
            };
            (Srai, $a:expr, $b:expr, $imm:expr) => {
                $a.wrapping_shr(($imm & 63) as u32)
            };
            (Andi, $a:expr, $b:expr, $imm:expr) => {
                $a & $imm
            };
            (And, $a:expr, $b:expr, $imm:expr) => {
                $a & $b
            };
            (Or, $a:expr, $b:expr, $imm:expr) => {
                $a | $b
            };
            (Xor, $a:expr, $b:expr, $imm:expr) => {
                $a ^ $b
            };
            (Srli, $a:expr, $b:expr, $imm:expr) => {
                (($a as u64).wrapping_shr(($imm & 63) as u32)) as i64
            };
            (Li, $a:expr, $b:expr, $imm:expr) => {
                $imm
            };
            (Mul, $a:expr, $b:expr, $imm:expr) => {
                $a.wrapping_mul($b)
            };
        }
        loop {
            if remaining == 0 {
                flush!();
                return Ok(RunOutcome::LimitReached {
                    instructions: retired,
                });
            }
            let bid = if hint != NO_SUCC {
                hits += 1;
                hint
            } else {
                let bid = match self.cache.lookup_or_compile(program, pc) {
                    Ok(bid) => bid,
                    Err(e) => {
                        flush!();
                        return Err(e);
                    }
                };
                if let Some((from, slot)) = link {
                    self.cache.succs[from as usize][slot] = bid;
                }
                bid
            };

            let block = &self.cache.blocks[bid as usize];
            if remaining < block.fast_need {
                // Not enough budget to run this block whole: flush and
                // finish the window one instruction at a time off the
                // program text. Bounded cold tail — fewer than
                // `MAX_BLOCK_OPS + 1` steps, at most once per run.
                flush!();
                return self.finish_careful(remaining, hooks);
            }
            hooks.begin_block(block);
            let body_len = block.body.len();

            // Body: straight-line pre-decoded ops. The budget admits the
            // whole block, so the loop carries no limit bookkeeping;
            // indexing equal-length slices lets the optimizer drop the
            // bounds checks too.
            let body = &block.body[..];
            let evs = &block.events[..body_len];
            let mem = &mut self.mem;
            let mut idx = 0;
            while idx < body_len {
                let op = &body[idx];
                let ev = &evs[idx];
                hooks.before_instruction(ev);
                let a = regs[op.src1 as usize & REG_MASK];
                let b = regs[op.src2 as usize & REG_MASK];
                let imm = op.imm;
                // Fused-group helpers. Defined here (not at the top of
                // `dispatch`) so macro hygiene lets them reach the loop
                // locals; `macro_rules!` in statement position is purely
                // syntactic and costs nothing per iteration. Each helper
                // executes the op in body slot `idx + $slot` with its full
                // hook sequence; slot 0's `before_instruction` was already
                // fired by the loop header, and slot 0's operand re-reads
                // fold into the header's via common-subexpression
                // elimination.
                macro_rules! h_alu {
                    ($k:ident, $slot:expr) => {{
                        let opn = &body[idx + $slot];
                        let evn = &evs[idx + $slot];
                        if $slot != 0 {
                            hooks.before_instruction(evn);
                        }
                        let an = regs[opn.src1 as usize & REG_MASK];
                        let bn = regs[opn.src2 as usize & REG_MASK];
                        let _ = (an, bn);
                        regs[opn.dst as usize & REG_MASK] = alu!($k, an, bn, opn.imm);
                        hooks.after_instruction(evn);
                    }};
                }
                macro_rules! h_ld {
                    ($slot:expr) => {{
                        let opn = &body[idx + $slot];
                        let evn = &evs[idx + $slot];
                        if $slot != 0 {
                            hooks.before_instruction(evn);
                        }
                        let an = regs[opn.src1 as usize & REG_MASK];
                        let addr = an.wrapping_add(opn.imm) as u64;
                        match checked_word(mem, addr) {
                            Ok(word) => {
                                hooks.mem_access(evn, addr);
                                regs[opn.dst as usize & REG_MASK] = mem[word];
                            }
                            Err(e) => {
                                retired += (idx + $slot) as u64;
                                pc = block.entry_pc + (idx + $slot) as u32;
                                flush!();
                                return Err(e.at(pc));
                            }
                        }
                        hooks.after_instruction(evn);
                    }};
                }
                macro_rules! h_st {
                    ($slot:expr) => {{
                        let opn = &body[idx + $slot];
                        let evn = &evs[idx + $slot];
                        if $slot != 0 {
                            hooks.before_instruction(evn);
                        }
                        // src1 = value, src2 = base.
                        let an = regs[opn.src1 as usize & REG_MASK];
                        let bn = regs[opn.src2 as usize & REG_MASK];
                        let addr = bn.wrapping_add(opn.imm) as u64;
                        match checked_word(mem, addr) {
                            Ok(word) => {
                                hooks.mem_access(evn, addr);
                                mem[word] = an;
                            }
                            Err(e) => {
                                retired += (idx + $slot) as u64;
                                pc = block.entry_pc + (idx + $slot) as u32;
                                flush!();
                                return Err(e.at(pc));
                            }
                        }
                        hooks.after_instruction(evn);
                    }};
                }
                macro_rules! skip {
                    ($n:expr) => {{
                        idx += $n;
                        continue;
                    }};
                }
                let value = match op.kind {
                    OpKind::Add => a.wrapping_add(b),
                    OpKind::Sub => a.wrapping_sub(b),
                    OpKind::And => a & b,
                    OpKind::Or => a | b,
                    OpKind::Xor => a ^ b,
                    OpKind::Sll => a.wrapping_shl((b & 63) as u32),
                    OpKind::Srl => ((a as u64).wrapping_shr((b & 63) as u32)) as i64,
                    OpKind::Sra => a.wrapping_shr((b & 63) as u32),
                    OpKind::Slt => i64::from(a < b),
                    OpKind::SltU => i64::from((a as u64) < (b as u64)),
                    OpKind::Addi => a.wrapping_add(imm),
                    OpKind::Andi => a & imm,
                    OpKind::Ori => a | imm,
                    OpKind::Xori => a ^ imm,
                    OpKind::Slli => a.wrapping_shl((imm & 63) as u32),
                    OpKind::Srli => ((a as u64).wrapping_shr((imm & 63) as u32)) as i64,
                    OpKind::Srai => a.wrapping_shr((imm & 63) as u32),
                    OpKind::Slti => i64::from(a < imm),
                    OpKind::Li => imm,
                    OpKind::Mul => a.wrapping_mul(b),
                    OpKind::Div | OpKind::Rem => {
                        if b == 0 {
                            retired += idx as u64;
                            pc = block.entry_pc + idx as u32;
                            flush!();
                            return Err(VmError::DivideByZero { pc });
                        }
                        if op.kind == OpKind::Div {
                            a.wrapping_div(b)
                        } else {
                            a.wrapping_rem(b)
                        }
                    }
                    OpKind::Ld => {
                        let addr = a.wrapping_add(imm) as u64;
                        match checked_word(mem, addr) {
                            Ok(word) => {
                                hooks.mem_access(ev, addr);
                                mem[word]
                            }
                            Err(e) => {
                                retired += idx as u64;
                                pc = block.entry_pc + idx as u32;
                                flush!();
                                return Err(e.at(pc));
                            }
                        }
                    }
                    OpKind::St => {
                        // src1 = value, src2 = base.
                        let addr = b.wrapping_add(imm) as u64;
                        match checked_word(mem, addr) {
                            Ok(word) => {
                                hooks.mem_access(ev, addr);
                                mem[word] = a;
                            }
                            Err(e) => {
                                retired += idx as u64;
                                pc = block.entry_pc + idx as u32;
                                flush!();
                                return Err(e.at(pc));
                            }
                        }
                        hooks.after_instruction(ev);
                        idx += 1;
                        continue;
                    }
                    OpKind::Nop => {
                        hooks.after_instruction(ev);
                        idx += 1;
                        continue;
                    }
                    // Fused superops: one dispatch executes two or three
                    // architectural instructions (see `fuse_kinds` /
                    // `fuse_kinds3`).
                    OpKind::SlliAdd => {
                        h_alu!(Slli, 0);
                        h_alu!(Add, 1);
                        skip!(2)
                    }
                    OpKind::AddAddi => {
                        h_alu!(Add, 0);
                        h_alu!(Addi, 1);
                        skip!(2)
                    }
                    OpKind::AddiAddi => {
                        h_alu!(Addi, 0);
                        h_alu!(Addi, 1);
                        skip!(2)
                    }
                    OpKind::MulAdd => {
                        h_alu!(Mul, 0);
                        h_alu!(Add, 1);
                        skip!(2)
                    }
                    OpKind::SlliAddi => {
                        h_alu!(Slli, 0);
                        h_alu!(Addi, 1);
                        skip!(2)
                    }
                    OpKind::AddSlli => {
                        h_alu!(Add, 0);
                        h_alu!(Slli, 1);
                        skip!(2)
                    }
                    OpKind::SlliSlli => {
                        h_alu!(Slli, 0);
                        h_alu!(Slli, 1);
                        skip!(2)
                    }
                    OpKind::AddiLi => {
                        h_alu!(Addi, 0);
                        h_alu!(Li, 1);
                        skip!(2)
                    }
                    OpKind::SraiAdd => {
                        h_alu!(Srai, 0);
                        h_alu!(Add, 1);
                        skip!(2)
                    }
                    OpKind::MulSrai => {
                        h_alu!(Mul, 0);
                        h_alu!(Srai, 1);
                        skip!(2)
                    }
                    OpKind::AddiSlli => {
                        h_alu!(Addi, 0);
                        h_alu!(Slli, 1);
                        skip!(2)
                    }
                    OpKind::LiLi => {
                        h_alu!(Li, 0);
                        h_alu!(Li, 1);
                        skip!(2)
                    }
                    OpKind::AndiSlli => {
                        h_alu!(Andi, 0);
                        h_alu!(Slli, 1);
                        skip!(2)
                    }
                    OpKind::AddAdd => {
                        h_alu!(Add, 0);
                        h_alu!(Add, 1);
                        skip!(2)
                    }
                    OpKind::XorAnd => {
                        h_alu!(Xor, 0);
                        h_alu!(And, 1);
                        skip!(2)
                    }
                    OpKind::XorXor => {
                        h_alu!(Xor, 0);
                        h_alu!(Xor, 1);
                        skip!(2)
                    }
                    OpKind::AndAdd => {
                        h_alu!(And, 0);
                        h_alu!(Add, 1);
                        skip!(2)
                    }
                    OpKind::OrAnd => {
                        h_alu!(Or, 0);
                        h_alu!(And, 1);
                        skip!(2)
                    }
                    OpKind::XorLi => {
                        h_alu!(Xor, 0);
                        h_alu!(Li, 1);
                        skip!(2)
                    }
                    OpKind::AddAnd => {
                        h_alu!(Add, 0);
                        h_alu!(And, 1);
                        skip!(2)
                    }
                    OpKind::SrliOr => {
                        h_alu!(Srli, 0);
                        h_alu!(Or, 1);
                        skip!(2)
                    }
                    OpKind::AndAddi => {
                        h_alu!(And, 0);
                        h_alu!(Addi, 1);
                        skip!(2)
                    }
                    OpKind::AddiLd => {
                        h_alu!(Addi, 0);
                        h_ld!(1);
                        skip!(2)
                    }
                    OpKind::AddLd => {
                        h_alu!(Add, 0);
                        h_ld!(1);
                        skip!(2)
                    }
                    OpKind::LdMul => {
                        h_ld!(0);
                        h_alu!(Mul, 1);
                        skip!(2)
                    }
                    OpKind::LdSlli => {
                        h_ld!(0);
                        h_alu!(Slli, 1);
                        skip!(2)
                    }
                    OpKind::LdAdd => {
                        h_ld!(0);
                        h_alu!(Add, 1);
                        skip!(2)
                    }
                    OpKind::LdSub => {
                        h_ld!(0);
                        h_alu!(Sub, 1);
                        skip!(2)
                    }
                    OpKind::LdLd => {
                        h_ld!(0);
                        h_ld!(1);
                        skip!(2)
                    }
                    OpKind::LdAddi => {
                        h_ld!(0);
                        h_alu!(Addi, 1);
                        skip!(2)
                    }
                    OpKind::StAddi => {
                        h_st!(0);
                        h_alu!(Addi, 1);
                        skip!(2)
                    }
                    OpKind::LdXor => {
                        h_ld!(0);
                        h_alu!(Xor, 1);
                        skip!(2)
                    }
                    OpKind::XorLd => {
                        h_alu!(Xor, 0);
                        h_ld!(1);
                        skip!(2)
                    }
                    OpKind::AndSt => {
                        h_alu!(And, 0);
                        h_st!(1);
                        skip!(2)
                    }
                    OpKind::SlliAddLd => {
                        h_alu!(Slli, 0);
                        h_alu!(Add, 1);
                        h_ld!(2);
                        skip!(3)
                    }
                    OpKind::SlliSlliAdd => {
                        h_alu!(Slli, 0);
                        h_alu!(Slli, 1);
                        h_alu!(Add, 2);
                        skip!(3)
                    }
                    OpKind::AddiLdMul => {
                        h_alu!(Addi, 0);
                        h_ld!(1);
                        h_alu!(Mul, 2);
                        skip!(3)
                    }
                    OpKind::MulAddSlli => {
                        h_alu!(Mul, 0);
                        h_alu!(Add, 1);
                        h_alu!(Slli, 2);
                        skip!(3)
                    }
                    OpKind::AddAddiLd => {
                        h_alu!(Add, 0);
                        h_alu!(Addi, 1);
                        h_ld!(2);
                        skip!(3)
                    }
                    OpKind::SlliAddiLd => {
                        h_alu!(Slli, 0);
                        h_alu!(Addi, 1);
                        h_ld!(2);
                        skip!(3)
                    }
                    OpKind::StAddiAddi => {
                        h_st!(0);
                        h_alu!(Addi, 1);
                        h_alu!(Addi, 2);
                        skip!(3)
                    }
                    OpKind::SraiAddAddi => {
                        h_alu!(Srai, 0);
                        h_alu!(Add, 1);
                        h_alu!(Addi, 2);
                        skip!(3)
                    }
                    OpKind::AddiAddiAddi => {
                        h_alu!(Addi, 0);
                        h_alu!(Addi, 1);
                        h_alu!(Addi, 2);
                        skip!(3)
                    }
                    OpKind::AndiSlliAdd => {
                        h_alu!(Andi, 0);
                        h_alu!(Slli, 1);
                        h_alu!(Add, 2);
                        skip!(3)
                    }
                    OpKind::SlliSrliOr => {
                        h_alu!(Slli, 0);
                        h_alu!(Srli, 1);
                        h_alu!(Or, 2);
                        skip!(3)
                    }
                    OpKind::OrAndSt => {
                        h_alu!(Or, 0);
                        h_alu!(And, 1);
                        h_st!(2);
                        skip!(3)
                    }
                    OpKind::OrAndAdd => {
                        h_alu!(Or, 0);
                        h_alu!(And, 1);
                        h_alu!(Add, 2);
                        skip!(3)
                    }
                    OpKind::LdXorLd => {
                        h_ld!(0);
                        h_alu!(Xor, 1);
                        h_ld!(2);
                        skip!(3)
                    }
                    OpKind::AddAddAdd => {
                        h_alu!(Add, 0);
                        h_alu!(Add, 1);
                        h_alu!(Add, 2);
                        skip!(3)
                    }
                    OpKind::XorAndXor => {
                        h_alu!(Xor, 0);
                        h_alu!(And, 1);
                        h_alu!(Xor, 2);
                        skip!(3)
                    }
                    OpKind::OrAndAddi => {
                        h_alu!(Or, 0);
                        h_alu!(And, 1);
                        h_alu!(Addi, 2);
                        skip!(3)
                    }
                };
                regs[op.dst as usize & REG_MASK] = value;
                hooks.after_instruction(ev);
                idx += 1;
            }

            // Terminator. The fast-path guarantee `remaining >=
            // fast_need` means the whole block — branch included — fits
            // the budget, so no limit checks are needed here. Halt
            // blocks reserve one extra budget slot (`retire_len + 1`),
            // so an exactly-exhausted budget takes the careful path
            // above and exits LimitReached without executing the halt,
            // like the interpreter's check-then-step loop.
            match block.term {
                Terminator::CondBr {
                    cond,
                    src1,
                    src2,
                    target,
                } => {
                    let ev = &block.events[body_len];
                    hooks.before_instruction(ev);
                    let taken = cond.eval(
                        regs[src1 as usize & REG_MASK],
                        regs[src2 as usize & REG_MASK],
                    );
                    hooks.cond_branch(ev, taken);
                    retired += block.retire_len;
                    remaining -= block.retire_len;
                    let (next, slot) = if taken {
                        hooks.after_taken_branch(ev, target);
                        (target, 0)
                    } else {
                        hooks.after_instruction(ev);
                        (block.term_pc + 1, 1)
                    };
                    pc = next;
                    hint = self.cache.succs[bid as usize][slot];
                    link = Some((bid, slot));
                }
                Terminator::Jump { target } => {
                    let ev = &block.events[body_len];
                    hooks.before_instruction(ev);
                    retired += block.retire_len;
                    remaining -= block.retire_len;
                    hooks.after_taken_branch(ev, target);
                    pc = target;
                    hint = self.cache.succs[bid as usize][0];
                    link = Some((bid, 0));
                }
                Terminator::Halt => {
                    retired += block.retire_len;
                    pc = block.term_pc;
                    self.halted = true;
                    flush!();
                    return Ok(RunOutcome::Halted {
                        instructions: retired,
                    });
                }
                Terminator::FallThrough => {
                    retired += block.retire_len;
                    remaining -= block.retire_len;
                    pc = block.term_pc;
                    hint = self.cache.succs[bid as usize][1];
                    link = Some((bid, 1));
                }
            }
        }
    }

    /// Cold tail of [`dispatch`](Self::dispatch): fewer budget steps
    /// remain than the next block needs to run whole, so the window is
    /// finished one instruction at a time straight off the program text,
    /// with [`Vm::step`](crate::Vm::step)-identical semantics and the same per-instruction
    /// hook protocol (no `begin_block` — no block is entered). Bounded:
    /// fewer than [`MAX_BLOCK_OPS`]` + 1` steps, at most once per run.
    #[cold]
    fn finish_careful<H: BlockHooks>(
        &mut self,
        mut remaining: u64,
        hooks: &mut H,
    ) -> Result<RunOutcome, VmError> {
        while remaining > 0 {
            let pc = self.pc;
            let Some(inst) = self.program.fetch(pc) else {
                return Err(VmError::PcOutOfRange {
                    pc,
                    text_len: self.program.len() as u32,
                });
            };
            let inst = *inst;
            if inst.opcode == Opcode::Halt {
                // Like the interpreter, halt fires no hooks and does not
                // retire or advance the PC.
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
            let mut taken_branch = false;
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
                Opcode::Div => {
                    if b == 0 {
                        return Err(VmError::DivideByZero { pc });
                    }
                    write = Some(a.wrapping_div(b));
                }
                Opcode::Rem => {
                    if b == 0 {
                        return Err(VmError::DivideByZero { pc });
                    }
                    write = Some(a.wrapping_rem(b));
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
                    let t = cond.eval(a, b);
                    hooks.cond_branch(&ev, t);
                    if t {
                        next_pc = imm as u32;
                        taken_branch = true;
                    }
                }
                Opcode::J => {
                    next_pc = imm as u32;
                    taken_branch = true;
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
            if taken_branch {
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

/// A word-granular memory fault, pre-`pc`: the dispatch loop stamps the
/// faulting PC on via [`MemFault::at`].
enum MemFault {
    Unaligned { addr: u64 },
    OutOfBounds { addr: u64, memory_bytes: u64 },
}

impl MemFault {
    fn at(self, pc: u32) -> VmError {
        match self {
            MemFault::Unaligned { addr } => VmError::UnalignedAccess { pc, addr },
            MemFault::OutOfBounds { addr, memory_bytes } => VmError::MemoryOutOfBounds {
                pc,
                addr,
                memory_bytes,
            },
        }
    }
}

#[inline(always)]
fn checked_word(mem: &[i64], addr: u64) -> Result<usize, MemFault> {
    if !addr.is_multiple_of(WORD_BYTES) {
        return Err(MemFault::Unaligned { addr });
    }
    let idx = (addr / WORD_BYTES) as usize;
    if idx >= mem.len() {
        return Err(MemFault::OutOfBounds {
            addr,
            memory_bytes: mem.len() as u64 * WORD_BYTES,
        });
    }
    Ok(idx)
}

/// Placeholder the event adapter starts from (overwritten by the first
/// `before_instruction`).
const IDLE_EVENT: TraceEvent = TraceEvent {
    pc: 0,
    opcode: Opcode::Nop,
    class: InstClass::IntAlu,
    dst: None,
    sources: [None, None],
    eff_addr: None,
    taken: None,
    next_pc: 0,
};

/// Hook adapter reconstructing the interpreter's exact per-instruction
/// [`TraceEvent`] stream from block templates plus the dynamic facts.
struct EventHooks<'o> {
    observer: &'o mut dyn FnMut(&TraceEvent),
    pending: TraceEvent,
}

impl BlockHooks for EventHooks<'_> {
    #[inline(always)]
    fn before_instruction(&mut self, op: &TraceEvent) {
        self.pending = *op;
    }

    #[inline(always)]
    fn mem_access(&mut self, _op: &TraceEvent, addr: u64) {
        self.pending.eff_addr = Some(addr);
    }

    #[inline(always)]
    fn cond_branch(&mut self, _op: &TraceEvent, taken: bool) {
        self.pending.taken = Some(taken);
    }

    #[inline(always)]
    fn after_instruction(&mut self, _op: &TraceEvent) {
        (self.observer)(&self.pending);
    }

    #[inline(always)]
    fn after_taken_branch(&mut self, _op: &TraceEvent, target: u32) {
        self.pending.next_pc = target;
        (self.observer)(&self.pending);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::vm::Vm;

    /// A kernel covering every event shape: ALU, mem, taken/untaken
    /// branches, jump, mul/div.
    fn kernel() -> Program {
        let mut b = ProgramBuilder::named("block-kernel");
        let data = b.data_words(&[3, 1, 4, 1, 5, 9, 2, 6]);
        b.li(Reg::R1, data as i64);
        b.li(Reg::R2, 0);
        b.li(Reg::R3, 8);
        let top = b.here();
        b.ld(Reg::R4, Reg::R1, 0);
        b.mul(Reg::R5, Reg::R4, Reg::R4);
        b.add(Reg::R2, Reg::R2, Reg::R5);
        b.st(Reg::R2, Reg::R1, 0);
        b.addi(Reg::R1, Reg::R1, 8);
        b.addi(Reg::R3, Reg::R3, -1);
        b.bne(Reg::R3, Reg::R0, top);
        b.halt();
        b.build()
    }

    fn interp_events(p: &Program, limit: Option<u64>) -> (Vec<TraceEvent>, RunOutcome, Vm<'_>) {
        let mut vm = Vm::new(p);
        let mut events = Vec::new();
        let outcome = vm.run_with(limit, |ev| events.push(*ev)).unwrap();
        (events, outcome, vm)
    }

    fn block_events(
        p: &Program,
        limit: Option<u64>,
    ) -> (Vec<TraceEvent>, RunOutcome, BlockEngine<'_>) {
        let mut engine = BlockEngine::new(p);
        let mut events = Vec::new();
        let outcome = engine.run_with(limit, |ev| events.push(*ev)).unwrap();
        (events, outcome, engine)
    }

    fn assert_state_matches(vm: &Vm<'_>, engine: &BlockEngine<'_>) {
        for r in Reg::ALL {
            assert_eq!(vm.reg(r), engine.reg(r), "register {r}");
        }
        assert_eq!(vm.memory(), engine.memory());
        assert_eq!(vm.pc(), engine.pc());
        assert_eq!(vm.is_halted(), engine.is_halted());
        assert_eq!(vm.retired(), engine.retired());
    }

    #[test]
    fn matches_interpreter_stream_and_state() {
        let p = kernel();
        let (ie, io, vm) = interp_events(&p, None);
        let (be, bo, engine) = block_events(&p, None);
        assert_eq!(ie, be);
        assert_eq!(io, bo);
        assert_state_matches(&vm, &engine);
    }

    #[test]
    fn matches_interpreter_at_every_limit() {
        let p = kernel();
        let (full, _, _) = interp_events(&p, None);
        for limit in 0..=(full.len() as u64 + 2) {
            let (ie, io, vm) = interp_events(&p, Some(limit));
            let (be, bo, engine) = block_events(&p, Some(limit));
            assert_eq!(ie, be, "limit {limit}");
            assert_eq!(io, bo, "limit {limit}");
            assert_state_matches(&vm, &engine);
        }
    }

    #[test]
    fn blocks_split_at_control_flow() {
        let p = kernel();
        let mut engine = BlockEngine::new(&p);
        engine.run(None).unwrap();
        // Setup block (li,li,li + loop body up to bne) compiles from 0;
        // back edge re-enters at `top` = 3; halt block at 10.
        assert_eq!(engine.cache().len(), 3);
        let entries: Vec<u32> = {
            let mut v: Vec<u32> = engine.cache.blocks.iter().map(|b| b.entry_pc()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(entries, vec![0, 3, 10]);
    }

    #[test]
    fn straight_line_blocks_split_at_cap() {
        let mut b = ProgramBuilder::new();
        for _ in 0..(MAX_BLOCK_OPS + 10) {
            b.addi(Reg::R1, Reg::R1, 1);
        }
        b.halt();
        let p = b.build();
        let (ie, io, vm) = interp_events(&p, None);
        let (be, bo, engine) = block_events(&p, None);
        assert_eq!(ie, be);
        assert_eq!(io, bo);
        assert_state_matches(&vm, &engine);
        assert_eq!(engine.cache().len(), 2); // cap block + tail block
    }

    #[test]
    fn divide_by_zero_matches_interpreter_fault_and_state() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 7);
        b.div(Reg::R2, Reg::R1, Reg::R0);
        b.halt();
        let p = b.build();
        let mut vm = Vm::new(&p);
        let ierr = vm.run(None).unwrap_err();
        let mut engine = BlockEngine::new(&p);
        let berr = engine.run(None).unwrap_err();
        assert_eq!(ierr, berr);
        assert_eq!(ierr, VmError::DivideByZero { pc: 1 });
        assert_state_matches(&vm, &engine);
    }

    #[test]
    fn memory_faults_match_interpreter() {
        for offset in [64i64, 4] {
            let mut b = ProgramBuilder::new();
            b.data_words(&[0]);
            b.li(Reg::R1, offset);
            b.ld(Reg::R2, Reg::R1, 0);
            b.halt();
            let p = b.build();
            let mut vm = Vm::new(&p);
            let ierr = vm.run(None).unwrap_err();
            let mut engine = BlockEngine::new(&p);
            let berr = engine.run(None).unwrap_err();
            assert_eq!(ierr, berr, "offset {offset}");
            assert_state_matches(&vm, &engine);
        }
    }

    #[test]
    fn falling_off_the_text_matches_interpreter() {
        let mut b = ProgramBuilder::new();
        b.nop(); // no halt
        let p = b.build();
        let mut vm = Vm::new(&p);
        let ierr = vm.run(None).unwrap_err();
        let mut engine = BlockEngine::new(&p);
        let berr = engine.run(None).unwrap_err();
        assert_eq!(ierr, berr);
        assert!(matches!(berr, VmError::PcOutOfRange { pc: 1, .. }));
        assert_state_matches(&vm, &engine);
    }

    #[test]
    fn branch_to_out_of_range_target_faults_like_interpreter() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 1);
        // A jump to an absolute target outside the text (no builder
        // helper emits one, so push the raw instruction).
        b.push(Inst {
            opcode: Opcode::J,
            dst: Reg::R0,
            src1: Reg::R0,
            src2: Reg::R0,
            imm: 1_000,
        });
        b.halt();
        let p = b.build();
        let mut vm = Vm::new(&p);
        let ierr = vm.run(None).unwrap_err();
        let mut engine = BlockEngine::new(&p);
        let berr = engine.run(None).unwrap_err();
        assert_eq!(ierr, berr);
        assert!(matches!(berr, VmError::PcOutOfRange { pc: 1_000, .. }));
        assert_state_matches(&vm, &engine);
        // ...but with the limit exhausted first, the jump retires and no
        // fault is raised — also like the interpreter.
        let mut engine = BlockEngine::new(&p);
        let outcome = engine.run(Some(2)).unwrap();
        assert_eq!(outcome, RunOutcome::LimitReached { instructions: 2 });
    }

    #[test]
    fn resumes_across_run_calls() {
        let p = kernel();
        let (full, fo, vm) = interp_events(&p, None);
        let mut engine = BlockEngine::new(&p);
        let mut events = Vec::new();
        // Drive in dribs and drabs; the event stream must concatenate to
        // the full run.
        loop {
            let out = engine.run_with(Some(7), |ev| events.push(*ev)).unwrap();
            if out.halted() {
                assert_eq!(out, fo);
                break;
            }
        }
        assert_eq!(events, full);
        assert_state_matches(&vm, &engine);
    }

    #[test]
    fn run_on_halted_engine_reports_halted() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let p = b.build();
        let mut engine = BlockEngine::new(&p);
        assert!(engine.run(None).unwrap().halted());
        assert!(engine.run(None).unwrap().halted());
        // With a zero limit the limit wins, exactly like the interpreter.
        assert_eq!(
            engine.run(Some(0)).unwrap(),
            RunOutcome::LimitReached { instructions: 0 }
        );
    }

    #[test]
    fn set_reg_parameterizes_like_vm() {
        let mut b = ProgramBuilder::new();
        b.addi(Reg::R2, Reg::R1, 5);
        b.halt();
        let p = b.build();
        let mut vm = Vm::new(&p);
        vm.set_reg(Reg::R1, 37);
        vm.run(None).unwrap();
        let mut engine = BlockEngine::new(&p);
        engine.set_reg(Reg::R1, 37);
        engine.run(None).unwrap();
        assert_eq!(vm.reg(Reg::R2), engine.reg(Reg::R2));
        assert_eq!(engine.reg(Reg::R2), 42);
    }

    #[test]
    fn hook_protocol_fires_in_documented_order() {
        #[derive(Default)]
        struct Log(Vec<String>);
        impl BlockHooks for Log {
            fn begin_block(&mut self, block: &Block) {
                self.0.push(format!("begin@{}", block.entry_pc()));
            }
            fn before_instruction(&mut self, op: &TraceEvent) {
                self.0.push(format!("before@{}", op.pc));
            }
            fn mem_access(&mut self, op: &TraceEvent, addr: u64) {
                self.0.push(format!("mem@{}:{addr}", op.pc));
            }
            fn cond_branch(&mut self, op: &TraceEvent, taken: bool) {
                self.0.push(format!("cond@{}:{taken}", op.pc));
            }
            fn after_instruction(&mut self, op: &TraceEvent) {
                self.0.push(format!("after@{}", op.pc));
            }
            fn after_taken_branch(&mut self, op: &TraceEvent, target: u32) {
                self.0.push(format!("taken@{}->{target}", op.pc));
            }
        }

        let mut b = ProgramBuilder::new();
        let data = b.data_words(&[11]);
        b.li(Reg::R1, data as i64); // pc 0
        b.ld(Reg::R2, Reg::R1, 0); // pc 1
        let skip = b.label();
        b.beq(Reg::R2, Reg::R0, skip); // pc 2: not taken
        b.bne(Reg::R2, Reg::R0, skip); // pc 3: taken
        b.nop(); // pc 4: skipped
        b.bind(skip);
        b.halt(); // pc 5
        let p = b.build();
        let mut log = Log::default();
        BlockEngine::new(&p).run_hooks(None, &mut log).unwrap();
        assert_eq!(
            log.0,
            vec![
                "begin@0",
                "before@0",
                "after@0",
                "before@1",
                "mem@1:0",
                "after@1",
                "before@2",
                "cond@2:false",
                "after@2",
                "begin@3",
                "before@3",
                "cond@3:true",
                "taken@3->5",
                "begin@5",
            ]
        );
    }

    #[test]
    fn successor_links_bypass_the_map_but_results_agree() {
        let p = kernel();
        let (a, ..) = block_events(&p, None);
        let (bevs, ..) = block_events(&p, None);
        assert_eq!(a, bevs);
    }
}
