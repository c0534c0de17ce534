//! The recorded trace: a compact encoding of one functional execution.

use mim_isa::{BlockEngine, BlockHooks, Program, RunOutcome, TraceEvent, Vm, VmError};

use crate::error::TraceError;
use crate::replay::Replay;

/// Magic bytes opening every serialized trace.
const MAGIC: &[u8; 8] = b"MIMTRACE";

/// Serialization format version.
const VERSION: u32 = 1;

/// Longest program name a trace header may carry. The bound keeps every
/// header inside the first window a file replay reads.
const MAX_NAME: usize = 4096;

/// Longest LEB128 encoding of a `u64`, in bytes.
pub(crate) const MAX_VARINT: usize = 10;

/// A recorded dynamic instruction trace: everything machine-independent
/// about one functional execution of a [`Program`], encoded compactly.
///
/// Because the ISA is deterministic, the dynamic instruction stream is
/// fully determined by the static program plus two per-execution streams:
/// the **direction bit** of every conditional branch (1 bit each) and the
/// **effective address** of every load/store (a zigzag-delta LEB128
/// varint each, usually one byte). `Trace` holds exactly those two
/// streams, in its serialized byte image ([`to_bytes`](Trace::to_bytes))
/// and nowhere else — everything else
/// ([`TraceEvent`](mim_isa::TraceEvent) fields like opcode, class,
/// operands, `next_pc`) is reconstructed from the program text during
/// [`replay`](Trace::replay), which is why replay is much faster than
/// re-interpreting the program: no register file, no data memory, no ALU.
///
/// This is the paper's §2.1 record-once premise made concrete: record each
/// `(workload, size)` once, then replay it into the profiler and the
/// cycle-accurate simulator for every design point of a sweep.
///
/// # Example
///
/// ```
/// use mim_isa::{ProgramBuilder, Reg};
/// use mim_trace::{Trace, TraceSource};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ProgramBuilder::new();
/// b.li(Reg::R1, 3);
/// let top = b.here();
/// b.addi(Reg::R1, Reg::R1, -1);
/// b.bne(Reg::R1, Reg::R0, top);
/// b.halt();
/// let p = b.build();
///
/// let trace = Trace::record(&p, None)?;
/// assert_eq!(trace.len(), 7); // 1 li + 3 × (addi, bne)
/// assert!(trace.halted());
///
/// // Replay reconstructs the identical event stream without executing.
/// let mut classes = Vec::new();
/// trace.replay(&p)?.drive(&mut |ev| classes.push(ev.class))?;
/// assert_eq!(classes.len(), 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    header: Header,
    addr_count: u64,
    bytes: Vec<u8>,
}

impl Trace {
    /// Records the program's functional execution (at most `limit` retired
    /// instructions, or to completion) into a trace.
    ///
    /// This is the **only** place the trace layer executes the program;
    /// every downstream consumer replays the recording instead. The
    /// execution runs on the block-compiled [`BlockEngine`] — the trace's two streams (branch direction bits, effective
    /// addresses) map one-to-one onto the engine's
    /// [`cond_branch`](BlockHooks::cond_branch) and
    /// [`mem_access`](BlockHooks::mem_access) hooks, so recording pays no
    /// per-event [`TraceEvent`] reconstruction and writes the encoded
    /// streams as the program runs.
    /// [`record_interpreted`](Trace::record_interpreted) is its
    /// byte-identical oracle.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] raised during execution.
    pub fn record(program: &Program, limit: Option<u64>) -> Result<Trace, VmError> {
        let mut recorder = Recorder::new(program);
        let outcome = BlockEngine::new(program).run_hooks(limit, &mut recorder)?;
        Ok(recorder.finish(outcome))
    }

    /// Records via the per-step interpreter [`Vm`], bypassing the block
    /// engine — the differential oracle against
    /// [`record`](Trace::record): both constructors produce byte-identical
    /// traces ([`to_bytes`](Trace::to_bytes)) for every program.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] raised during execution.
    pub fn record_interpreted(program: &Program, limit: Option<u64>) -> Result<Trace, VmError> {
        let mut recorder = Recorder::new(program);
        let outcome = Vm::new(program).run_hooks(limit, &mut recorder)?;
        Ok(recorder.finish(outcome))
    }

    /// Name of the recorded program.
    pub fn name(&self) -> &str {
        &self.header.name
    }

    /// Number of retired instructions recorded.
    pub fn len(&self) -> u64 {
        self.header.events
    }

    /// True for a trace of zero retired instructions.
    pub fn is_empty(&self) -> bool {
        self.header.events == 0
    }

    /// True if the recorded execution ran to `halt` (as opposed to hitting
    /// the recording's instruction limit).
    pub fn halted(&self) -> bool {
        self.header.halted
    }

    /// Conditional branches recorded (= direction bits stored).
    pub fn branches(&self) -> u64 {
        self.header.taken_bits
    }

    /// Conditional branches recorded as taken — a popcount over the stored
    /// direction bits, so the machine-independent taken rate
    /// (`taken_branches() / branches()`) is available without a replay.
    pub fn taken_branches(&self) -> u64 {
        self.bits().iter().map(|b| u64::from(b.count_ones())).sum()
    }

    /// In-memory footprint of the trace in bytes: its serialized image,
    /// 1 bit per branch plus about one byte per memory operation, versus
    /// the full [`TraceEvent`](mim_isa::TraceEvent) this expands to on
    /// replay.
    pub fn encoded_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// True if `program` is the program this trace was recorded from
    /// (matched by a stable content fingerprint, not by name).
    pub fn matches(&self, program: &Program) -> bool {
        self.header.check_program(program).is_ok()
    }

    /// Replays the recording against its program, yielding a
    /// [`TraceSource`](crate::TraceSource) that reconstructs the identical
    /// event stream without functional execution.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::ProgramMismatch`] if `program` is not the
    /// program this trace was recorded from.
    pub fn replay<'a>(&'a self, program: &'a Program) -> Result<Replay<'a>, TraceError> {
        self.header.check_program(program)?;
        let count_at = self.header.count_at() as usize;
        Ok(Replay::new(
            program,
            self.header.clone(),
            self.addr_count,
            self.bits(),
            &self.bytes[count_at + 8..],
        ))
    }

    /// The stored outcome of the recorded execution, as a [`RunOutcome`].
    pub fn outcome(&self) -> RunOutcome {
        if self.header.halted {
            RunOutcome::Halted {
                instructions: self.header.events,
            }
        } else {
            RunOutcome::LimitReached {
                instructions: self.header.events,
            }
        }
    }

    /// The branch-direction bitvector section of the byte image.
    fn bits(&self) -> &[u8] {
        &self.bytes[self.header.bits_at..self.header.count_at() as usize]
    }

    // ---- serialization -----------------------------------------------------

    /// The trace's deterministic byte image: the same trace always
    /// produces the same bytes, on every platform and build.
    ///
    /// Layout: magic, version, flags, name, program identity, event count,
    /// the branch-direction bitvector, and the zigzag-delta LEB128-encoded
    /// address stream. This image is the trace's only representation, so
    /// the call is a copy.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bytes.clone()
    }

    /// Decodes a trace from bytes produced by [`to_bytes`](Trace::to_bytes).
    ///
    /// Checks the header and both stream sections and scans every address
    /// varint, so a trace that decodes here replays without hitting
    /// malformed bytes.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Corrupt`] on any malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
        let header = Header::parse(bytes)?;
        let mut r = Reader {
            bytes,
            pos: header.bits_at,
        };
        // Bound every count by the bytes actually present, so crafted
        // headers with huge counts are rejected before any scan.
        if header.bits_len() > r.remaining() as u64 {
            return Err(TraceError::Corrupt(
                "branch bitvector larger than input".into(),
            ));
        }
        r.take(header.bits_len() as usize)?;
        let addr_count = r.u64()?;
        if addr_count > header.events {
            return Err(TraceError::Corrupt("more addresses than events".into()));
        }
        if addr_count > r.remaining() as u64 {
            // Each address takes at least one varint byte.
            return Err(TraceError::Corrupt(
                "address stream larger than input".into(),
            ));
        }
        for _ in 0..addr_count {
            r.varint()?;
        }
        if r.pos != bytes.len() {
            return Err(TraceError::Corrupt("trailing bytes".into()));
        }
        Ok(Trace {
            header,
            addr_count,
            bytes: bytes.to_vec(),
        })
    }
}

/// The fixed-size header of a serialized trace, and where its branch
/// bitvector starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Header {
    pub(crate) name: String,
    text_len: u32,
    fingerprint: u64,
    pub(crate) events: u64,
    pub(crate) halted: bool,
    pub(crate) taken_bits: u64,
    /// Offset of the branch bitvector from the start of the trace.
    pub(crate) bits_at: usize,
}

impl Header {
    /// Parses and checks the header at the start of `bytes` — the one
    /// header parser, shared by [`Trace::from_bytes`] and file replay.
    pub(crate) fn parse(bytes: &[u8]) -> Result<Header, TraceError> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(MAGIC.len())? != MAGIC.as_slice() {
            return Err(TraceError::Corrupt("bad magic".into()));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(TraceError::Corrupt(format!(
                "unsupported version {version} (expected {VERSION})"
            )));
        }
        let flags = r.take(1)?[0];
        if flags > 1 {
            return Err(TraceError::Corrupt(format!("unknown flags {flags:#x}")));
        }
        let name_len = r.u32()? as usize;
        if name_len > MAX_NAME {
            return Err(TraceError::Corrupt("unreasonable name length".into()));
        }
        let name = String::from_utf8(r.take(name_len)?.to_vec())
            .map_err(|_| TraceError::Corrupt("name is not UTF-8".into()))?;
        let text_len = r.u32()?;
        let fingerprint = r.u64()?;
        let events = r.u64()?;
        let taken_bits = r.u64()?;
        if taken_bits > events {
            return Err(TraceError::Corrupt("more branch bits than events".into()));
        }
        Ok(Header {
            name,
            text_len,
            fingerprint,
            events,
            halted: flags == 1,
            taken_bits,
            bits_at: r.pos,
        })
    }

    /// Appends the header's byte image to `out`.
    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(u8::from(self.halted));
        out.extend_from_slice(&(self.name.len() as u32).to_le_bytes());
        out.extend_from_slice(self.name.as_bytes());
        out.extend_from_slice(&self.text_len.to_le_bytes());
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.extend_from_slice(&self.events.to_le_bytes());
        out.extend_from_slice(&self.taken_bits.to_le_bytes());
    }

    /// Bytes of the branch bitvector (whole 64-bit words).
    pub(crate) fn bits_len(&self) -> u64 {
        self.taken_bits.div_ceil(64) * 8
    }

    /// Offset of the address count, which sits between the two streams.
    pub(crate) fn count_at(&self) -> u64 {
        self.bits_at as u64 + self.bits_len()
    }

    /// Checks that the recording is of `program`.
    pub(crate) fn check_program(&self, program: &Program) -> Result<(), TraceError> {
        if self.text_len == program.len() as u32 && self.fingerprint == program.fingerprint() {
            Ok(())
        } else {
            Err(TraceError::ProgramMismatch {
                trace: self.name.clone(),
                program: program.name().to_string(),
            })
        }
    }
}

/// Writes a trace's byte image while the program runs: a header with
/// placeholder counts, then the branch bitvector word by word; the
/// address varints go to a side buffer appended when the run ends.
struct Recorder {
    header: Header,
    bytes: Vec<u8>,
    word: u64,
    addrs: Vec<u8>,
    addr_count: u64,
    prev_addr: u64,
}

impl Recorder {
    fn new(program: &Program) -> Recorder {
        let mut header = Header {
            name: program.name().to_string(),
            text_len: program.len() as u32,
            fingerprint: program.fingerprint(),
            events: 0,
            halted: false,
            taken_bits: 0,
            bits_at: 0,
        };
        let mut bytes = Vec::new();
        header.write(&mut bytes);
        header.bits_at = bytes.len();
        Recorder {
            header,
            bytes,
            word: 0,
            // Room for a Small-size recording's addresses without
            // regrowing through every doubling.
            addrs: Vec::with_capacity(64 * 1024),
            addr_count: 0,
            prev_addr: 0,
        }
    }

    #[inline(always)]
    fn bit(&mut self, taken: bool) {
        let slot = self.header.taken_bits % 64;
        self.word |= u64::from(taken) << slot;
        self.header.taken_bits += 1;
        if slot == 63 {
            self.bytes.extend_from_slice(&self.word.to_le_bytes());
            self.word = 0;
        }
    }

    #[inline(always)]
    fn addr(&mut self, addr: u64) {
        // Consecutive memory addresses are usually near each other:
        // zigzag deltas keep most of the stream at one byte per access,
        // so that byte is pushed inline and longer varints go out of line.
        let delta = zigzag(addr.wrapping_sub(self.prev_addr) as i64);
        if delta < 0x80 {
            self.addrs.push(delta as u8);
        } else {
            write_varint(&mut self.addrs, delta);
        }
        self.prev_addr = addr;
        self.addr_count += 1;
    }

    fn finish(mut self, outcome: RunOutcome) -> Trace {
        if !self.header.taken_bits.is_multiple_of(64) {
            self.bytes.extend_from_slice(&self.word.to_le_bytes());
        }
        self.header.events = outcome.instructions();
        self.header.halted = outcome.halted();
        let mut head = Vec::with_capacity(self.header.bits_at);
        self.header.write(&mut head);
        self.bytes[..head.len()].copy_from_slice(&head);
        self.bytes.extend_from_slice(&self.addr_count.to_le_bytes());
        self.bytes.extend_from_slice(&self.addrs);
        Trace {
            header: self.header,
            addr_count: self.addr_count,
            bytes: self.bytes,
        }
    }
}

/// The recording hooks, on either backend: exactly the two dynamic
/// streams a [`Trace`] stores. Event counts and the halted flag come from the
/// engine's [`RunOutcome`], so every other hook stays a no-op and the
/// fast path never materializes a [`TraceEvent`] the recording would
/// discard.
impl BlockHooks for Recorder {
    #[inline(always)]
    fn mem_access(&mut self, _op: &TraceEvent, addr: u64) {
        self.addr(addr);
    }

    #[inline(always)]
    fn cond_branch(&mut self, _op: &TraceEvent, taken: bool) {
        self.bit(taken);
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v as u64) << 1) ^ ((v >> 63) as u64)
}

#[inline]
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[inline(never)]
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes the LEB128 varint at the front of `buf`, returning its value
/// and its length in bytes. The 10th byte may hold only the top bit:
/// payload bits that would shift out mark a non-canonical encoding.
#[inline]
pub(crate) fn read_varint(buf: &[u8]) -> Result<(u64, usize), TraceError> {
    let mut value = 0u64;
    for (i, &byte) in buf.iter().take(MAX_VARINT).enumerate() {
        if i == MAX_VARINT - 1 && byte > 1 {
            return Err(TraceError::Corrupt("varint overflows 64 bits".into()));
        }
        value |= u64::from(byte & 0x7f) << (7 * i);
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
    }
    Err(TraceError::Corrupt("truncated input".into()))
}

/// Decodes the LEB128 varint at the front of `word`, the next 8 bytes of
/// a stream in little-endian order, returning its value and length in
/// bytes — or `None` if the varint is longer than 8 bytes.
#[inline]
pub(crate) fn short_varint(word: u64) -> Option<(u64, usize)> {
    // The first byte with a clear top bit ends the varint.
    let stops = !word & 0x8080_8080_8080_8080;
    if stops == 0 {
        return None;
    }
    let end = stops.trailing_zeros();
    // Keep the varint's bytes, drop their continuation bits, then pack
    // the 7-bit groups: pairs into 14 bits, quads into 28, all into 56.
    let x = word & (u64::MAX >> (63 - end)) & 0x7f7f_7f7f_7f7f_7f7f;
    let x = ((x & 0x7f00_7f00_7f00_7f00) >> 1) | (x & 0x007f_007f_007f_007f);
    let x = ((x & 0x3fff_0000_3fff_0000) >> 2) | (x & 0x0000_3fff_0000_3fff);
    let x = ((x & 0x0fff_ffff_0000_0000) >> 4) | (x & 0x0000_0000_0fff_ffff);
    Some((x, (end as usize + 1) / 8))
}

/// Bounds-checked little reader over a byte slice.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| TraceError::Corrupt("truncated input".into()))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn varint(&mut self) -> Result<u64, TraceError> {
        let (value, len) = read_varint(&self.bytes[self.pos..])?;
        self.pos += len;
        Ok(value)
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}
