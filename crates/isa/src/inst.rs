//! Instruction formats, opcodes, and modeling classes.

use crate::reg::Reg;

/// Condition codes for conditional branches.
///
/// Comparisons are performed on the signed 64-bit values of the two source
/// registers, except [`Cond::LtU`]/[`Cond::GeU`] which compare unsigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Branch if equal.
    Eq,
    /// Branch if not equal.
    Ne,
    /// Branch if (signed) less than.
    Lt,
    /// Branch if (signed) greater than or equal.
    Ge,
    /// Branch if (unsigned) less than.
    LtU,
    /// Branch if (unsigned) greater than or equal.
    GeU,
}

impl Cond {
    /// Evaluates the condition on the two operand values.
    ///
    /// ```
    /// use mim_isa::Cond;
    /// assert!(Cond::Lt.eval(-1, 0));
    /// assert!(!Cond::LtU.eval(-1, 0)); // -1 is u64::MAX unsigned
    /// ```
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Ge => a >= b,
            Cond::LtU => (a as u64) < (b as u64),
            Cond::GeU => (a as u64) >= (b as u64),
        }
    }

    /// Mnemonic suffix used by the disassembler (`eq`, `ne`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Ge => "ge",
            Cond::LtU => "ltu",
            Cond::GeU => "geu",
        }
    }
}

/// Operation selector of an [`Inst`].
///
/// The ISA is deliberately small but covers every behaviour class the
/// mechanistic model distinguishes: unit-latency integer ALU operations,
/// non-unit multiply/divide, loads and stores, and direct control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    // -- unit-latency register-register ALU --------------------------------
    /// `dst = src1 + src2`
    Add,
    /// `dst = src1 - src2`
    Sub,
    /// `dst = src1 & src2`
    And,
    /// `dst = src1 | src2`
    Or,
    /// `dst = src1 ^ src2`
    Xor,
    /// `dst = src1 << (src2 & 63)`
    Sll,
    /// `dst = ((src1 as u64) >> (src2 & 63)) as i64`
    Srl,
    /// `dst = src1 >> (src2 & 63)` (arithmetic)
    Sra,
    /// `dst = (src1 < src2) as i64` (signed)
    Slt,
    /// `dst = (src1 <u src2) as i64` (unsigned)
    SltU,
    // -- unit-latency register-immediate ALU -------------------------------
    /// `dst = src1 + imm`
    Addi,
    /// `dst = src1 & imm`
    Andi,
    /// `dst = src1 | imm`
    Ori,
    /// `dst = src1 ^ imm`
    Xori,
    /// `dst = src1 << (imm & 63)`
    Slli,
    /// `dst = ((src1 as u64) >> (imm & 63)) as i64`
    Srli,
    /// `dst = src1 >> (imm & 63)` (arithmetic)
    Srai,
    /// `dst = (src1 < imm) as i64` (signed)
    Slti,
    /// `dst = imm` (load immediate; no register sources)
    Li,
    // -- non-unit ("long-latency") arithmetic ------------------------------
    /// `dst = src1 * src2` (wrapping); multi-cycle on the modeled machine.
    Mul,
    /// `dst = src1 / src2` (signed, truncating); multi-cycle. Traps on zero.
    Div,
    /// `dst = src1 % src2` (signed); multi-cycle (divider). Traps on zero.
    Rem,
    // -- memory -------------------------------------------------------------
    /// `dst = mem[src1 + imm]` (8-byte word load; address must be 8-aligned)
    Ld,
    /// `mem[src2 + imm] = src1` (8-byte word store; `src1` is the value,
    /// `src2` the base address register)
    St,
    // -- control ------------------------------------------------------------
    /// Conditional branch: `if cond(src1, src2) pc = imm` (absolute target).
    Br(Cond),
    /// Unconditional direct jump to `imm` (absolute target).
    J,
    /// No operation.
    Nop,
    /// Stop the machine.
    Halt,
}

/// Behaviour class of an instruction as seen by the performance model and
/// the pipeline simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Unit-latency integer ALU operation (including `Li` and `Nop`).
    IntAlu,
    /// Integer multiply (non-unit latency).
    Mul,
    /// Integer divide/remainder (non-unit latency).
    Div,
    /// Memory load (produces its result in the memory stage).
    Load,
    /// Memory store.
    Store,
    /// Conditional branch (resolved in the execute stage).
    CondBranch,
    /// Unconditional direct jump (always taken).
    Jump,
    /// Halt marker.
    Halt,
}

impl InstClass {
    /// True for control-flow instructions (conditional or unconditional).
    #[inline]
    pub fn is_control(self) -> bool {
        matches!(self, InstClass::CondBranch | InstClass::Jump)
    }
}

/// A single fixed-format instruction.
///
/// All instructions share one flat layout (`opcode`, `dst`, `src1`, `src2`,
/// `imm`); which fields are meaningful depends on the opcode, as documented
/// on [`Opcode`]. Branch/jump targets are absolute instruction indices
/// stored in `imm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inst {
    /// Operation selector.
    pub opcode: Opcode,
    /// Destination register (ignored by stores, branches, `J`, `Nop`, `Halt`).
    pub dst: Reg,
    /// First source register.
    pub src1: Reg,
    /// Second source register.
    pub src2: Reg,
    /// Immediate operand, byte offset, or absolute branch target.
    pub imm: i64,
}

impl Inst {
    /// A canonical `nop`.
    pub const NOP: Inst = Inst {
        opcode: Opcode::Nop,
        dst: Reg::R0,
        src1: Reg::R0,
        src2: Reg::R0,
        imm: 0,
    };

    /// Returns the behaviour class used by the model and simulator.
    #[inline]
    pub fn class(&self) -> InstClass {
        match self.opcode {
            Opcode::Mul => InstClass::Mul,
            Opcode::Div | Opcode::Rem => InstClass::Div,
            Opcode::Ld => InstClass::Load,
            Opcode::St => InstClass::Store,
            Opcode::Br(_) => InstClass::CondBranch,
            Opcode::J => InstClass::Jump,
            Opcode::Halt => InstClass::Halt,
            _ => InstClass::IntAlu,
        }
    }

    /// Register operands read by this instruction, in operand order.
    ///
    /// The returned array holds up to two registers; absent sources are
    /// `None`. Used by the profiler to build dependency-distance profiles
    /// and by the pipeline simulator for hazard detection.
    #[inline]
    pub fn sources(&self) -> [Option<Reg>; 2] {
        use Opcode::*;
        match self.opcode {
            Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt | SltU | Mul | Div | Rem => {
                [Some(self.src1), Some(self.src2)]
            }
            Addi | Andi | Ori | Xori | Slli | Srli | Srai | Slti => [Some(self.src1), None],
            Li | Nop | Halt | J => [None, None],
            Ld => [Some(self.src1), None],
            St => [Some(self.src1), Some(self.src2)],
            Br(_) => [Some(self.src1), Some(self.src2)],
        }
    }

    /// The register written by this instruction, if any.
    #[inline]
    pub fn writes(&self) -> Option<Reg> {
        use Opcode::*;
        match self.opcode {
            St | Br(_) | J | Nop | Halt => None,
            _ => Some(self.dst),
        }
    }

    /// Absolute control-flow target (instruction index), if this is a
    /// branch or jump.
    #[inline]
    pub fn target(&self) -> Option<u32> {
        match self.opcode {
            Opcode::Br(_) | Opcode::J => Some(self.imm as u32),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(opcode: Opcode) -> Inst {
        Inst {
            opcode,
            dst: Reg::R1,
            src1: Reg::R2,
            src2: Reg::R3,
            imm: 42,
        }
    }

    #[test]
    fn classes_are_assigned_correctly() {
        assert_eq!(inst(Opcode::Add).class(), InstClass::IntAlu);
        assert_eq!(inst(Opcode::Li).class(), InstClass::IntAlu);
        assert_eq!(inst(Opcode::Mul).class(), InstClass::Mul);
        assert_eq!(inst(Opcode::Div).class(), InstClass::Div);
        assert_eq!(inst(Opcode::Rem).class(), InstClass::Div);
        assert_eq!(inst(Opcode::Ld).class(), InstClass::Load);
        assert_eq!(inst(Opcode::St).class(), InstClass::Store);
        assert_eq!(inst(Opcode::Br(Cond::Eq)).class(), InstClass::CondBranch);
        assert_eq!(inst(Opcode::J).class(), InstClass::Jump);
        assert_eq!(inst(Opcode::Halt).class(), InstClass::Halt);
    }

    #[test]
    fn sources_match_operand_shape() {
        assert_eq!(inst(Opcode::Add).sources(), [Some(Reg::R2), Some(Reg::R3)]);
        assert_eq!(inst(Opcode::Addi).sources(), [Some(Reg::R2), None]);
        assert_eq!(inst(Opcode::Li).sources(), [None, None]);
        assert_eq!(inst(Opcode::Ld).sources(), [Some(Reg::R2), None]);
        // store reads the value (src1) and the base (src2)
        assert_eq!(inst(Opcode::St).sources(), [Some(Reg::R2), Some(Reg::R3)]);
        assert_eq!(
            inst(Opcode::Br(Cond::Ne)).sources(),
            [Some(Reg::R2), Some(Reg::R3)]
        );
    }

    #[test]
    fn writes_excludes_stores_and_control() {
        assert_eq!(inst(Opcode::Add).writes(), Some(Reg::R1));
        assert_eq!(inst(Opcode::Ld).writes(), Some(Reg::R1));
        assert_eq!(inst(Opcode::St).writes(), None);
        assert_eq!(inst(Opcode::Br(Cond::Eq)).writes(), None);
        assert_eq!(inst(Opcode::J).writes(), None);
        assert_eq!(inst(Opcode::Nop).writes(), None);
    }

    #[test]
    fn target_only_for_control_flow() {
        assert_eq!(inst(Opcode::Br(Cond::Lt)).target(), Some(42));
        assert_eq!(inst(Opcode::J).target(), Some(42));
        assert_eq!(inst(Opcode::Add).target(), None);
    }

    #[test]
    fn cond_eval_signed_vs_unsigned() {
        assert!(Cond::Eq.eval(5, 5));
        assert!(Cond::Ne.eval(5, 6));
        assert!(Cond::Lt.eval(-3, 2));
        assert!(Cond::Ge.eval(2, 2));
        assert!(!Cond::LtU.eval(-3, 2));
        assert!(Cond::GeU.eval(-3, 2));
    }

    #[test]
    fn control_flags() {
        assert!(InstClass::CondBranch.is_control());
        assert!(InstClass::Jump.is_control());
        assert!(!InstClass::IntAlu.is_control());
    }
}
