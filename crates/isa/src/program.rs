//! Executable programs: text segment, initial data image, and metadata.

use std::fmt;
use std::sync::OnceLock;

use crate::inst::{Cond, Inst, Opcode};

/// Size of a machine word (and of every load/store access) in bytes.
pub const WORD_BYTES: u64 = 8;

/// Size of one instruction in bytes, for instruction-cache addressing.
pub(crate) const INST_BYTES: u64 = 4;

/// A complete executable program: instructions plus an initial data image.
///
/// Programs are produced by [`ProgramBuilder`](crate::ProgramBuilder) and
/// consumed by the functional [`Vm`](crate::Vm), the profiler, and the
/// pipeline simulator. Data memory is word-granular (8-byte words) but
/// byte-addressed so that cache simulation sees realistic addresses.
#[derive(Clone)]
pub struct Program {
    text: Vec<Inst>,
    data: Vec<i64>,
    name: String,
    /// [`fingerprint`](Program::fingerprint), hashed on first use.
    fingerprint: OnceLock<u64>,
}

impl PartialEq for Program {
    fn eq(&self, other: &Program) -> bool {
        self.text == other.text && self.data == other.data && self.name == other.name
    }
}

impl Eq for Program {}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("text", &self.text)
            .field("data", &self.data)
            .field("name", &self.name)
            .finish()
    }
}

impl Program {
    /// Creates a program from raw parts.
    ///
    /// Prefer [`ProgramBuilder`](crate::ProgramBuilder) in application code;
    /// this constructor exists for tests and for program transformations
    /// (e.g. the compiler passes in `mim-workloads`).
    pub fn from_parts(name: impl Into<String>, text: Vec<Inst>, data: Vec<i64>) -> Program {
        Program {
            text,
            data,
            name: name.into(),
            fingerprint: OnceLock::new(),
        }
    }

    /// Human-readable program name (benchmark name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction sequence (text segment).
    pub fn text(&self) -> &[Inst] {
        &self.text
    }

    /// The initial data image, in 8-byte words.
    pub fn data(&self) -> &[i64] {
        &self.data
    }

    /// Number of instructions in the text segment.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// True if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Size of the data segment in bytes.
    pub fn data_bytes(&self) -> u64 {
        self.data.len() as u64 * WORD_BYTES
    }

    /// Byte address of the instruction at index `pc`, for I-cache modeling.
    ///
    /// Instructions are 4 bytes each, so a 64-byte cache line holds 16
    /// instructions — comparable to the RISC binaries the paper profiles.
    #[inline]
    pub fn inst_addr(pc: u32) -> u64 {
        u64::from(pc) * INST_BYTES
    }

    /// Returns the instruction at `pc`, if in range.
    #[inline]
    pub fn fetch(&self, pc: u32) -> Option<&Inst> {
        self.text.get(pc as usize)
    }

    /// Stable 64-bit FNV-1a content fingerprint of the program: its text
    /// and initial data image, deliberately **not** its name, so renamed
    /// copies of the same program still match traces recorded from it.
    /// Independent of `std::hash`, so it is identical across builds and
    /// can be persisted (every trace header carries it). Hashed once per
    /// program and then remembered.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h = Fnv::new();
            h.u32(self.text.len() as u32);
            for inst in &self.text {
                h.byte(opcode_code(inst.opcode));
                h.byte(inst.dst.index() as u8);
                h.byte(inst.src1.index() as u8);
                h.byte(inst.src2.index() as u8);
                h.u64(inst.imm as u64);
            }
            h.u64(self.data.len() as u64);
            for &word in &self.data {
                h.u64(word as u64);
            }
            h.finish()
        })
    }
}

/// Stable byte encoding of an opcode for fingerprinting (not persisted in
/// traces themselves — the trace stores no instructions).
fn opcode_code(op: Opcode) -> u8 {
    match op {
        Opcode::Add => 0,
        Opcode::Sub => 1,
        Opcode::And => 2,
        Opcode::Or => 3,
        Opcode::Xor => 4,
        Opcode::Sll => 5,
        Opcode::Srl => 6,
        Opcode::Sra => 7,
        Opcode::Slt => 8,
        Opcode::SltU => 9,
        Opcode::Addi => 10,
        Opcode::Andi => 11,
        Opcode::Ori => 12,
        Opcode::Xori => 13,
        Opcode::Slli => 14,
        Opcode::Srli => 15,
        Opcode::Srai => 16,
        Opcode::Slti => 17,
        Opcode::Li => 18,
        Opcode::Mul => 19,
        Opcode::Div => 20,
        Opcode::Rem => 21,
        Opcode::Ld => 22,
        Opcode::St => 23,
        Opcode::J => 24,
        Opcode::Nop => 25,
        Opcode::Halt => 26,
        Opcode::Br(Cond::Eq) => 27,
        Opcode::Br(Cond::Ne) => 28,
        Opcode::Br(Cond::Lt) => 29,
        Opcode::Br(Cond::Ge) => 30,
        Opcode::Br(Cond::LtU) => 31,
        Opcode::Br(Cond::GeU) => 32,
    }
}

/// Incremental FNV-1a (64-bit): the workspace's one stable content hash.
/// Program fingerprints and every persisted store key use it, so its
/// arithmetic must never change — keys written by older builds would stop
/// matching.
///
/// # Example
///
/// ```
/// use mim_isa::Fnv;
///
/// let mut h = Fnv::new();
/// h.bytes(b"a");
/// assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

impl Fnv {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Hashes one byte.
    pub fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Hashes each byte in order.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    /// Hashes `v` as its four little-endian bytes.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hashes `v` as its eight little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Inst, Opcode};
    use crate::reg::Reg;

    #[test]
    fn accessors_reflect_parts() {
        let text = vec![
            Inst::NOP,
            Inst {
                opcode: Opcode::Halt,
                dst: Reg::R0,
                src1: Reg::R0,
                src2: Reg::R0,
                imm: 0,
            },
        ];
        let p = Program::from_parts("t", text.clone(), vec![1, 2, 3]);
        assert_eq!(p.name(), "t");
        assert_eq!(p.text(), &text[..]);
        assert_eq!(p.data(), &[1, 2, 3]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.data_bytes(), 24);
    }

    #[test]
    fn inst_addresses_are_4_byte_spaced() {
        assert_eq!(Program::inst_addr(0), 0);
        assert_eq!(Program::inst_addr(1), 4);
        assert_eq!(Program::inst_addr(16), 64); // next I-cache line
    }

    #[test]
    fn fingerprint_is_content_not_name() {
        let p = Program::from_parts("a", vec![Inst::NOP], vec![1, 2]);
        let renamed = Program::from_parts("b", vec![Inst::NOP], vec![1, 2]);
        let other = Program::from_parts("a", vec![Inst::NOP], vec![1, 3]);
        assert_eq!(p.fingerprint(), renamed.fingerprint());
        assert_ne!(p.fingerprint(), other.fingerprint());
        // Hashing remembers the value without changing equality.
        let fresh = p.clone();
        assert_eq!(p.fingerprint(), fresh.fingerprint());
        assert_eq!(p, Program::from_parts("a", vec![Inst::NOP], vec![1, 2]));
    }

    #[test]
    fn fetch_checks_bounds() {
        let p = Program::from_parts("t", vec![Inst::NOP], vec![]);
        assert!(p.fetch(0).is_some());
        assert!(p.fetch(1).is_none());
    }
}
