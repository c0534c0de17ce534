//! Replay: the one decoder over a trace's serialized bytes.
//!
//! [`Replay`] walks the program text and reads the recorded branch
//! directions and effective addresses straight from the serialized
//! encoding ([`Trace::to_bytes`](crate::Trace::to_bytes)). An in-memory
//! trace is decoded from its own byte slice. A trace file
//! ([`Replay::from_file`]) feeds the same cursor fixed [`CHUNK`]-byte
//! windows, so replay memory stays bounded by two windows however long
//! the recording is — which is what makes sampled simulation of
//! beyond-memory traces routine.
//!
//! The serialized layout interleaves nothing: the branch-direction
//! bitvector and the zigzag-delta LEB128 address stream are stored as two
//! contiguous sections, read here by two independently windowed
//! [`Section`]s (replay consumes the two streams interleaved in stream
//! order).

use std::borrow::Cow;
use std::fs::File;
use std::io::{ErrorKind, Read, Seek, SeekFrom};
use std::sync::Arc;

use mim_isa::{InstClass, Program, RunOutcome, TraceEvent};

use crate::error::TraceError;
use crate::source::{SamplePhase, Sampling, TraceSource};
use crate::trace::{read_varint, short_varint, unzigzag, Header, MAX_VARINT};

/// Bytes per window of a file replay. Two sections are live during a
/// replay, so peak decoder memory is at most `2 * CHUNK` plus a few words
/// of cursor state — independent of trace length.
pub const CHUNK: usize = 8 * 1024;

/// Replays a recorded trace against its program, reconstructing the
/// exact [`TraceEvent`] stream of the original execution without
/// functional interpretation.
///
/// Construct via [`Trace::replay`](crate::Trace::replay) for an in-memory
/// trace or [`Replay::from_file`] for a serialized one; both validate the
/// program fingerprint first. The replay walks the program text following
/// the recorded branch directions; per event it does a fetch, a
/// static-field copy, and at most one bit or varint read — no register
/// file, no data memory, no arithmetic.
pub struct Replay<'a> {
    program: &'a Program,
    header: Header,
    cursor: Cursor<'a>,
    limit: u64,
    sampling: Option<Sampling>,
    driven: bool,
}

impl<'a> Replay<'a> {
    /// A replay over in-memory stream sections: the bitvector `bits` and
    /// the `addr_count` address varints in `addrs`.
    pub(crate) fn new(
        program: &'a Program,
        header: Header,
        addr_count: u64,
        bits: &'a [u8],
        addrs: &'a [u8],
    ) -> Replay<'a> {
        let (bits, addrs) = (Section::memory(bits), Section::memory(addrs));
        Replay::over(program, header, addr_count, bits, addrs)
    }

    fn over(
        program: &'a Program,
        header: Header,
        addr_count: u64,
        bits: Section<'a>,
        addrs: Section<'a>,
    ) -> Replay<'a> {
        Replay {
            program,
            cursor: Cursor::new(&header, addr_count, bits, addrs),
            header,
            limit: u64::MAX,
            sampling: None,
            driven: false,
        }
    }

    /// Replays the serialized trace that starts at `file`'s current
    /// position and runs to its end (a trace file, or a store entry
    /// whose own header has been read). The trace header is validated
    /// eagerly — including the program fingerprint, as in
    /// [`Trace::replay`](crate::Trace::replay) — and the two recorded
    /// streams are read lazily, one [`CHUNK`]-byte window at a time, as
    /// the walk consumes them. Bytes after the address stream are
    /// rejected when a walk reaches the end of the recording.
    ///
    /// # Errors
    ///
    /// [`TraceError::Corrupt`] for malformed headers or I/O failures,
    /// [`TraceError::ProgramMismatch`] if the recording is not of
    /// `program` — the same checks [`Trace::from_bytes`](crate::Trace::from_bytes)
    /// and [`Trace::replay`](crate::Trace::replay) perform.
    pub fn from_file(mut file: File, program: &'a Program) -> Result<Replay<'a>, TraceError> {
        let start = file.stream_position().map_err(io_corrupt)?;
        let end = file.metadata().map_err(io_corrupt)?.len().max(start);
        let mut head = vec![0u8; (end - start).min(CHUNK as u64) as usize];
        read_exact_at(&file, start, &mut head)?;
        let header = Header::parse(&head)?;
        header.check_program(program)?;
        let count_at = start + header.count_at();
        let addrs_at = count_at + 8;
        if addrs_at > end {
            return Err(TraceError::Corrupt("truncated input".into()));
        }
        let mut count = [0u8; 8];
        read_exact_at(&file, count_at, &mut count)?;
        let addr_count = u64::from_le_bytes(count);
        if addr_count > header.events {
            return Err(TraceError::Corrupt("more addresses than events".into()));
        }
        let file = Arc::new(file);
        let bits = Section::file(Arc::clone(&file), start + header.bits_at as u64, count_at);
        let addrs = Section::file(file, addrs_at, end);
        Ok(Replay::over(program, header, addr_count, bits, addrs))
    }

    /// Bounds the replay to the first `limit` recorded events, with the
    /// same semantics as [`Vm::run`](mim_isa::Vm::run)'s limit: replaying
    /// a full trace with limit `n` is equivalent to having executed with
    /// limit `n`.
    pub fn with_limit(mut self, limit: Option<u64>) -> Replay<'a> {
        self.limit = limit.unwrap_or(u64::MAX);
        self
    }

    /// Restricts the observer to systematically sampled windows (see
    /// [`Sampling`]); skipped events are still walked, not emitted.
    pub fn with_sampling(mut self, sampling: Sampling) -> Replay<'a> {
        self.sampling = Some(sampling);
        self
    }

    /// Bytes of decoder window this replay holds: at most `2 * CHUNK` for
    /// a file replay however long the trace is, and 0 for an in-memory
    /// replay, which reads the trace's own bytes. The `sampling_accuracy`
    /// bench reports it as its memory proxy.
    pub fn buffer_bytes(&self) -> usize {
        self.cursor.bits.capacity() + self.cursor.addrs.capacity()
    }
}

impl TraceSource for Replay<'_> {
    fn name(&self) -> &str {
        &self.header.name
    }

    fn drive(&mut self, observer: &mut dyn FnMut(&TraceEvent)) -> Result<RunOutcome, TraceError> {
        self.drive_phased(&mut |phase, ev| {
            if phase == SamplePhase::Measure {
                observer(ev);
            }
        })
    }

    fn sampling(&self) -> Option<Sampling> {
        self.sampling
    }

    fn drive_phased(
        &mut self,
        observer: &mut dyn FnMut(SamplePhase, &TraceEvent),
    ) -> Result<RunOutcome, TraceError> {
        if self.driven {
            return Err(TraceError::Exhausted {
                source: self.header.name.clone(),
            });
        }
        self.driven = true;
        let total = self.header.events.min(self.limit);
        walk(
            self.program,
            &self.header.name,
            total,
            self.sampling,
            &mut self.cursor,
            observer,
        )?;
        if total == self.header.events {
            self.cursor.finish()?;
        }

        // Mirror Vm::run_with: `Halted` only when the program halted
        // strictly before the limit; hitting the limit exactly on the last
        // retired instruction reports `LimitReached`, like the live VM.
        if self.header.halted && self.header.events < self.limit {
            Ok(RunOutcome::Halted {
                instructions: total,
            })
        } else {
            Ok(RunOutcome::LimitReached {
                instructions: total,
            })
        }
    }
}

/// Sequential reads of a trace's two recorded streams: branch direction
/// bits LSB-first from the bitvector section, and zigzag-delta varint
/// addresses from the address section.
struct Cursor<'a> {
    bits: Section<'a>,
    addrs: Section<'a>,
    word: u64,
    word_bits: u32,
    bits_left: u64,
    addrs_left: u64,
    prev_addr: u64,
}

impl<'a> Cursor<'a> {
    fn new(header: &Header, addr_count: u64, bits: Section<'a>, addrs: Section<'a>) -> Cursor<'a> {
        Cursor {
            bits,
            addrs,
            word: 0,
            word_bits: 0,
            bits_left: header.taken_bits,
            addrs_left: addr_count,
            prev_addr: 0,
        }
    }

    /// The next branch direction bit, or `None` if the stream is out.
    #[inline]
    fn next_bit(&mut self) -> Result<Option<bool>, TraceError> {
        if self.bits_left == 0 {
            return Ok(None);
        }
        if self.word_bits == 0 {
            self.word = self.bits.word()?;
            self.word_bits = 64;
        }
        let bit = self.word & 1 == 1;
        self.word >>= 1;
        self.word_bits -= 1;
        self.bits_left -= 1;
        Ok(Some(bit))
    }

    /// The next effective address, or `None` if the stream is out.
    #[inline]
    fn next_addr(&mut self) -> Result<Option<u64>, TraceError> {
        if self.addrs_left == 0 {
            return Ok(None);
        }
        let delta = unzigzag(self.addrs.varint()?);
        self.prev_addr = self.prev_addr.wrapping_add(delta as u64);
        self.addrs_left -= 1;
        Ok(Some(self.prev_addr))
    }

    /// Checks, after a walk over the whole recording, that nothing
    /// follows the last recorded address.
    fn finish(&mut self) -> Result<(), TraceError> {
        if self.addrs_left == 0 && !self.addrs.at_end() {
            return Err(TraceError::Corrupt("trailing bytes".into()));
        }
        Ok(())
    }
}

/// One recorded stream, read forward through a window: the whole section
/// for an in-memory trace, or successive windows of at most [`CHUNK`]
/// bytes read from a file.
struct Section<'a> {
    window: Cow<'a, [u8]>,
    pos: usize,
    file: Option<FileSpan>,
}

/// The part of a file section not yet read into the window.
struct FileSpan {
    file: Arc<File>,
    next: u64,
    end: u64,
    /// Largest window this section ever holds.
    capacity: usize,
}

impl<'a> Section<'a> {
    fn memory(bytes: &'a [u8]) -> Section<'a> {
        Section {
            window: Cow::Borrowed(bytes),
            pos: 0,
            file: None,
        }
    }

    fn file(file: Arc<File>, start: u64, end: u64) -> Section<'a> {
        let capacity = (end - start).min(CHUNK as u64) as usize;
        Section {
            window: Cow::Owned(Vec::with_capacity(capacity)),
            pos: 0,
            file: Some(FileSpan {
                file,
                next: start,
                end,
                capacity,
            }),
        }
    }

    fn capacity(&self) -> usize {
        self.file.as_ref().map_or(0, |span| span.capacity)
    }

    /// Tops a file window up once fewer than `want` unread bytes are
    /// left. An in-memory window already holds its whole section.
    #[inline]
    fn fill(&mut self, want: usize) -> Result<(), TraceError> {
        if self.window.len() - self.pos >= want {
            return Ok(());
        }
        let Some(span) = &mut self.file else {
            return Ok(());
        };
        let window = self.window.to_mut();
        window.drain(..self.pos);
        self.pos = 0;
        let n = ((span.capacity - window.len()) as u64).min(span.end - span.next) as usize;
        if n > 0 {
            let old = window.len();
            window.resize(old + n, 0);
            read_exact_at(&span.file, span.next, &mut window[old..])?;
            span.next += n as u64;
        }
        Ok(())
    }

    /// The next little-endian 64-bit word.
    #[inline]
    fn word(&mut self) -> Result<u64, TraceError> {
        self.fill(8)?;
        let bytes = self
            .window
            .get(self.pos..self.pos + 8)
            .ok_or_else(|| TraceError::Corrupt("truncated input".into()))?;
        self.pos += 8;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// The next LEB128 varint. Varints of up to 8 bytes (every
    /// address delta below 2^56) are decoded from one 8-byte load
    /// without branching on their length; the rest, and the last few
    /// bytes of a window, take the checked path.
    #[inline]
    fn varint(&mut self) -> Result<u64, TraceError> {
        if let Some(bytes) = self.window.get(self.pos..self.pos + 8) {
            let word = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
            if let Some((value, len)) = short_varint(word) {
                self.pos += len;
                return Ok(value);
            }
        }
        self.long_varint()
    }

    #[inline(never)]
    fn long_varint(&mut self) -> Result<u64, TraceError> {
        self.fill(MAX_VARINT)?;
        let (value, len) = read_varint(&self.window[self.pos..])?;
        self.pos += len;
        Ok(value)
    }

    /// True once every byte of the section has been read.
    fn at_end(&self) -> bool {
        self.pos == self.window.len() && self.file.as_ref().is_none_or(|span| span.next == span.end)
    }
}

/// The replay walk: reconstructs `total` events of the dynamic
/// instruction stream from the program text plus the cursor's two recorded
/// streams, delivering each non-[`Skip`](SamplePhase::Skip) event to
/// `observer` tagged with its phase under `sampling`.
///
/// Skipped events are still walked (the control-flow chain must advance)
/// but their [`TraceEvent`] is never materialized.
fn walk(
    program: &Program,
    name: &str,
    total: u64,
    sampling: Option<Sampling>,
    cursor: &mut Cursor<'_>,
    observer: &mut dyn FnMut(SamplePhase, &TraceEvent),
) -> Result<(), TraceError> {
    let mut pc: u32 = 0;
    let mut pos: u64 = 0;
    while pos < total {
        let inst = program.fetch(pc).ok_or_else(|| {
            TraceError::Corrupt(format!(
                "replay of `{name}` left the program text at pc {pc}"
            ))
        })?;
        let class = inst.class();
        if class == InstClass::Halt {
            return Err(TraceError::Corrupt(format!(
                "replay of `{name}` reached halt at pc {pc} with {} events left",
                total - pos
            )));
        }

        let mut eff_addr = None;
        let mut taken = None;
        let mut next_pc = pc + 1;
        match class {
            InstClass::Load | InstClass::Store => {
                eff_addr = Some(cursor.next_addr()?.ok_or_else(|| {
                    TraceError::Corrupt(format!(
                        "replay of `{name}` ran out of addresses at pc {pc}"
                    ))
                })?);
            }
            InstClass::CondBranch => {
                let t = cursor.next_bit()?.ok_or_else(|| {
                    TraceError::Corrupt(format!(
                        "replay of `{name}` ran out of branch bits at pc {pc}"
                    ))
                })?;
                taken = Some(t);
                if t {
                    next_pc = inst.imm as u32;
                }
            }
            InstClass::Jump => {
                taken = Some(true);
                next_pc = inst.imm as u32;
            }
            _ => {}
        }

        let phase = sampling.map_or(SamplePhase::Measure, |s| s.phase(pos));
        let event_pc = pc;
        pos += 1;
        pc = next_pc;
        if phase != SamplePhase::Skip {
            observer(
                phase,
                &TraceEvent {
                    pc: event_pc,
                    opcode: inst.opcode,
                    class,
                    dst: inst.writes(),
                    sources: inst.sources(),
                    eff_addr,
                    taken,
                    next_pc,
                },
            );
        }
    }
    Ok(())
}

fn io_corrupt(e: std::io::Error) -> TraceError {
    TraceError::Corrupt(format!("trace stream I/O failed: {e}"))
}

/// Reads exactly `buf.len()` bytes of `file` at `offset`.
fn read_exact_at(mut file: &File, offset: u64, buf: &mut [u8]) -> Result<(), TraceError> {
    file.seek(SeekFrom::Start(offset)).map_err(io_corrupt)?;
    file.read_exact(buf).map_err(|e| {
        if e.kind() == ErrorKind::UnexpectedEof {
            TraceError::Corrupt("truncated input".into())
        } else {
            io_corrupt(e)
        }
    })
}
