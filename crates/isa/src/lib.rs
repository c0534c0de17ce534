//! # mim-isa — virtual ISA and functional simulator
//!
//! This crate defines the RISC-style virtual instruction set used throughout
//! the MIM (Mechanistic In-order Model) toolkit, together with:
//!
//! * [`Inst`]/[`Opcode`] — a flat, fixed-format instruction representation,
//! * [`ProgramBuilder`] — an ergonomic assembler with labels and a data
//!   segment, used by `mim-workloads` to express benchmark kernels,
//! * [`Vm`] — a deterministic functional simulator that executes a
//!   [`Program`] and emits one [`TraceEvent`] per dynamic instruction,
//! * [`BlockEngine`] — a block-compiled (DBT-style) functional backend
//!   producing bit-identical results at a multiple of the interpreter's
//!   throughput, with [`BlockHooks`] for timing-tool observation.
//!
//! The trace events drive both the single-pass profiler (`mim-profile`) and
//! the cycle-accurate pipeline simulator (`mim-pipeline`); the ISA is the
//! stand-in for the ARM/Alpha binaries the ISPASS 2012 paper ran under the
//! M5 simulator. The interpreter and the block engine implement the same
//! architectural semantics — [`Vm`] remains the reference (and the
//! differential oracle in tests); [`BlockEngine`] is the throughput
//! backend that recording and profiling run on.
//!
//! ## Example
//!
//! ```
//! use mim_isa::{ProgramBuilder, Reg, Vm};
//!
//! # fn main() -> Result<(), mim_isa::VmError> {
//! let mut b = ProgramBuilder::new();
//! let acc = Reg::R1;
//! let i = Reg::R2;
//! let n = Reg::R3;
//! b.li(n, 10);
//! b.li(acc, 0);
//! b.li(i, 0);
//! let top = b.here();
//! b.add(acc, acc, i);
//! b.addi(i, i, 1);
//! b.blt(i, n, top);
//! b.halt();
//!
//! let program = b.build();
//! let mut vm = Vm::new(&program);
//! let outcome = vm.run(None)?;
//! assert!(outcome.halted());
//! assert_eq!(vm.reg(acc), 45);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod builder;
mod disasm;
mod error;
mod inst;
mod program;
mod reg;
mod vm;

pub use block::{Block, BlockCache, BlockCompiler, BlockEngine, BlockHooks, EventHooks, NoHooks};
pub use builder::{Label, ProgramBuilder};
pub use error::VmError;
pub use inst::{Cond, Inst, InstClass, Opcode};
pub use program::{Fnv, Program, WORD_BYTES};
pub use reg::{Reg, NUM_REGS};
pub use vm::{functional_executions, RunOutcome, TraceEvent, Vm};
