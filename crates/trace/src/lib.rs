//! # mim-trace — record-once dynamic instruction traces
//!
//! The paper's central trick (§2.1) is separating machine-independent
//! workload behavior from machine-dependent timing. This crate applies
//! that separation to the *whole* stack: each `(workload, size)` is
//! functionally executed **exactly once** (recorded into a [`Trace`]),
//! and every timing consumer — the cycle-accurate pipeline simulator, the
//! sweep profiler, the MLP estimator — replays the recording instead of
//! re-interpreting the program.
//!
//! * [`Trace`] — the compact recording: 1 direction bit per conditional
//!   branch plus 1 zigzag-delta varint per memory operation; everything
//!   else is reconstructed from the static program during replay. A
//!   trace *is* its deterministic byte image ([`Trace::to_bytes`] /
//!   [`Trace::from_bytes`]): the bytes held in memory are the bytes
//!   persisted across processes, with no second, decoded form.
//! * [`TraceSource`] — the stream interface consumers are written
//!   against; [`LiveVm`] (functional execution, the recording backend)
//!   and [`Replay`] (trace replay) both implement it.
//! * [`Replay`] — the one decoder over those bytes. [`Trace::replay`]
//!   reads an in-memory trace's own slice; [`Replay::from_file`] feeds
//!   the same cursor fixed [`STREAM_CHUNK_BYTES`] windows of a serialized
//!   trace (a file or a store entry), so memory stays bounded by two
//!   windows regardless of trace length.
//! * [`Sampling`] — systematic (SMARTS-style periodic) sampling of the
//!   replayed stream for `Large` runs ([`Replay::with_sampling`]), with
//!   per-window functional warming ([`SamplePhase::Warm`]) and a window
//!   offset so estimates don't over-weight program cold-start.
//!
//! The one recording itself runs on `mim-isa`'s block-compiled engine
//! ([`Trace::record`]'s two streams map directly onto its
//! `cond_branch`/`mem_access` hooks, which write the encoded streams as
//! the program runs), held to ≥5× the per-step interpreter's
//! throughput. [`Trace::record_interpreted`] and [`LiveVm::interpreted`]
//! run that interpreter instead: the byte-identical oracle the engine is
//! tested against. Replay then streams events faster than interpreted
//! re-execution (no register file, no data memory, no ALU). Both are
//! measured by the `trace_replay_throughput` bench in `mim-bench` and
//! tracked in `BENCH_trace.json` — and, the bigger win, a design-space
//! sweep amortizes the one recording over every design point instead of
//! re-executing per point.
//!
//! ## Example: record once, replay everywhere
//!
//! ```
//! use mim_isa::{ProgramBuilder, Reg};
//! use mim_trace::{LiveVm, Trace, TraceSource};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::named("demo");
//! b.li(Reg::R1, 4);
//! let top = b.here();
//! b.addi(Reg::R1, Reg::R1, -1);
//! b.bne(Reg::R1, Reg::R0, top);
//! b.halt();
//! let p = b.build();
//!
//! // One functional execution...
//! let trace = Trace::record(&p, None)?;
//!
//! // ...then any number of replay passes, each yielding the identical
//! // event stream a live pass would.
//! let mut live = Vec::new();
//! LiveVm::new(&p).drive(&mut |ev| live.push(*ev))?;
//! let mut replayed = Vec::new();
//! trace.replay(&p)?.drive(&mut |ev| replayed.push(*ev))?;
//! assert_eq!(live, replayed);
//!
//! // Recordings serialize to deterministic bytes.
//! let bytes = trace.to_bytes();
//! assert_eq!(Trace::from_bytes(&bytes)?, trace);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod replay;
mod source;
mod trace;

pub use error::TraceError;
pub use replay::{Replay, CHUNK as STREAM_CHUNK_BYTES};
pub use source::{LiveVm, SamplePhase, Sampling, TraceSource};
pub use trace::Trace;

#[cfg(test)]
mod tests {
    use super::*;
    use mim_isa::{Program, ProgramBuilder, Reg, RunOutcome, TraceEvent, VmError};

    /// A small kernel exercising every event shape: ALU, load, store,
    /// taken/not-taken branches, jump, mul.
    fn kernel() -> Program {
        let mut b = ProgramBuilder::named("kernel");
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

    /// An open file holding `bytes`, for file replay (the path is
    /// unlinked at once; the open handle keeps the contents readable).
    fn file_of(tag: &str, bytes: &[u8]) -> std::fs::File {
        let path = std::env::temp_dir().join(format!(
            "mim-trace-{tag}-{}-{:?}.bin",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, bytes).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        file
    }

    fn live_events(p: &Program, limit: Option<u64>) -> (Vec<TraceEvent>, RunOutcome) {
        let mut events = Vec::new();
        let outcome = LiveVm::new(p)
            .with_limit(limit)
            .drive(&mut |ev| events.push(*ev))
            .expect("live run");
        (events, outcome)
    }

    #[test]
    fn replay_reproduces_live_stream_and_outcome() {
        let p = kernel();
        let trace = Trace::record(&p, None).unwrap();
        let (live, live_outcome) = live_events(&p, None);
        let mut replayed = Vec::new();
        let outcome = trace
            .replay(&p)
            .unwrap()
            .drive(&mut |ev| replayed.push(*ev))
            .unwrap();
        assert_eq!(live, replayed);
        assert_eq!(live_outcome, outcome);
        assert_eq!(trace.len(), live.len() as u64);
        assert!(trace.halted());
    }

    #[test]
    fn replay_limits_match_vm_limit_semantics() {
        let p = kernel();
        let trace = Trace::record(&p, None).unwrap();
        let n = trace.len();
        // Truncating, exact, and beyond-the-end limits all behave like a
        // live run with the same limit.
        for limit in [1, 5, n - 1, n, n + 1] {
            let (live, live_outcome) = live_events(&p, Some(limit));
            let mut replayed = Vec::new();
            let outcome = trace
                .replay(&p)
                .unwrap()
                .with_limit(Some(limit))
                .drive(&mut |ev| replayed.push(*ev))
                .unwrap();
            assert_eq!(live, replayed, "limit {limit}");
            assert_eq!(live_outcome, outcome, "limit {limit}");
        }
    }

    #[test]
    fn truncated_recording_replays_its_window() {
        let p = kernel();
        let trace = Trace::record(&p, Some(10)).unwrap();
        assert!(!trace.halted());
        assert_eq!(trace.len(), 10);
        let (live, _) = live_events(&p, Some(10));
        let mut replayed = Vec::new();
        let outcome = trace
            .replay(&p)
            .unwrap()
            .drive(&mut |ev| replayed.push(*ev))
            .unwrap();
        assert_eq!(live, replayed);
        assert_eq!(outcome, RunOutcome::LimitReached { instructions: 10 });
    }

    #[test]
    fn serialization_round_trips_deterministically() {
        let p = kernel();
        let trace = Trace::record(&p, None).unwrap();
        let bytes = trace.to_bytes();
        assert_eq!(bytes, trace.to_bytes(), "encoding is deterministic");
        let decoded = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, trace);
        assert_eq!(decoded.to_bytes(), bytes);
        // The decoded trace still replays.
        let (live, _) = live_events(&p, None);
        let mut replayed = Vec::new();
        decoded
            .replay(&p)
            .unwrap()
            .drive(&mut |ev| replayed.push(*ev))
            .unwrap();
        assert_eq!(live, replayed);
    }

    #[test]
    fn corrupt_bytes_are_rejected_not_panicked() {
        let p = kernel();
        let bytes = Trace::record(&p, None).unwrap().to_bytes();
        assert!(matches!(
            Trace::from_bytes(&bytes[..bytes.len() - 1]),
            Err(TraceError::Corrupt(_))
        ));
        assert!(matches!(
            Trace::from_bytes(b"NOTATRACE"),
            Err(TraceError::Corrupt(_))
        ));
        let mut versioned = bytes.clone();
        versioned[8] = 0xee; // version field
        assert!(matches!(
            Trace::from_bytes(&versioned),
            Err(TraceError::Corrupt(_))
        ));
        // Truncating at every prefix length must error, never panic.
        for len in 0..bytes.len().min(64) {
            assert!(Trace::from_bytes(&bytes[..len]).is_err());
        }
    }

    #[test]
    fn short_varint_agrees_with_the_checked_decoder() {
        use crate::trace::{read_varint, short_varint};
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..100_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            // Each byte continues the varint with probability 3/4, so every
            // length from 1 to 8 bytes (and longer) shows up.
            let mut bytes = state.to_le_bytes();
            let coin = state.rotate_left(29).wrapping_mul(0x2545_f491_4f6c_dd1d);
            for (i, byte) in bytes.iter_mut().enumerate() {
                if (coin >> (2 * i)) & 3 != 0 {
                    *byte |= 0x80;
                } else {
                    *byte &= 0x7f;
                }
            }
            assert_eq!(
                short_varint(u64::from_le_bytes(bytes)),
                read_varint(&bytes).ok(),
                "{bytes:02x?}"
            );
        }
    }

    #[test]
    fn replaying_against_wrong_program_is_rejected() {
        let p = kernel();
        let trace = Trace::record(&p, None).unwrap();
        let mut other = ProgramBuilder::named("kernel"); // same name, different text
        other.li(Reg::R1, 1);
        other.halt();
        let other = other.build();
        assert!(!trace.matches(&other));
        assert!(matches!(
            trace.replay(&other),
            Err(TraceError::ProgramMismatch { .. })
        ));
    }

    #[test]
    fn huge_header_counts_are_rejected_without_allocating() {
        let p = kernel();
        let bytes = Trace::record(&p, None).unwrap().to_bytes();
        // Header layout: magic(8) version(4) flags(1) name_len(4) name
        // text_len(4) fingerprint(8) events(8) taken_bits(8) ...
        let name_len = p.name().len();
        let events_off = 17 + name_len + 4 + 8;
        let taken_off = events_off + 8;
        let mut crafted = bytes.clone();
        crafted[events_off..events_off + 8].copy_from_slice(&(1u64 << 62).to_le_bytes());
        crafted[taken_off..taken_off + 8].copy_from_slice(&(1u64 << 62).to_le_bytes());
        // Must reject (bitvector larger than input), not abort in the
        // allocator.
        assert!(matches!(
            Trace::from_bytes(&crafted),
            Err(TraceError::Corrupt(_))
        ));
        // Same for an oversized address count with sane branch bits (the
        // kernel's 8 branch bits occupy one 64-bit word after taken_bits).
        let addr_off = taken_off + 8 + 8;
        let mut crafted = bytes;
        crafted[events_off..events_off + 8].copy_from_slice(&(1u64 << 62).to_le_bytes());
        crafted[addr_off..addr_off + 8].copy_from_slice(&(1u64 << 62).to_le_bytes());
        assert!(matches!(
            Trace::from_bytes(&crafted),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn renamed_identical_program_still_matches() {
        let p = kernel();
        let trace = Trace::record(&p, None).unwrap();
        let renamed = Program::from_parts("kernel/O3", p.text().to_vec(), p.data().to_vec());
        assert!(trace.matches(&renamed), "fingerprint is content, not name");
        let mut events = 0u64;
        trace
            .replay(&renamed)
            .unwrap()
            .drive(&mut |_| events += 1)
            .unwrap();
        assert_eq!(events, trace.len());
    }

    #[test]
    fn file_round_trip() {
        let p = kernel();
        let trace = Trace::record(&p, None).unwrap();
        let path = std::env::temp_dir().join(format!("mim-trace-{}.bin", std::process::id()));
        std::fs::write(&path, trace.to_bytes()).unwrap();
        let back = Trace::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, trace);
    }

    /// FNV-1a over `bytes`, for pinning serialized images.
    fn digest(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn recording_writes_the_pinned_format() {
        // Length and digest of the kernel's trace in the on-disk format:
        // trace stores written by earlier builds keep loading only while
        // the recorder writes exactly these bytes.
        let bytes = Trace::record(&kernel(), None).unwrap().to_bytes();
        assert_eq!(bytes.len(), 83);
        assert_eq!(digest(&bytes), 0xdc42_09e0_4345_4b9d);
        let interpreted = Trace::record_interpreted(&kernel(), None).unwrap();
        assert_eq!(interpreted.to_bytes(), bytes);
    }

    #[test]
    fn sampling_emits_only_window_events() {
        let p = kernel();
        let trace = Trace::record(&p, None).unwrap();
        let sampling = Sampling::new(10, 3);
        let (live, _) = live_events(&p, None);
        let expected: Vec<TraceEvent> = live
            .iter()
            .enumerate()
            .filter(|(i, _)| sampling.contains(*i as u64))
            .map(|(_, ev)| *ev)
            .collect();
        let mut sampled = Vec::new();
        let outcome = trace
            .replay(&p)
            .unwrap()
            .with_sampling(sampling)
            .drive(&mut |ev| sampled.push(*ev))
            .unwrap();
        assert_eq!(sampled, expected);
        // The walk still covers the full stream.
        assert_eq!(outcome.instructions(), trace.len());
        assert!((sampling.fraction() - 0.3).abs() < 1e-12);
        assert!((sampling.scale() - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn redriving_an_exhausted_replay_is_an_error() {
        // Regression: a second `drive` used to skip the walk and re-report
        // a successful outcome with zero events, silently corrupting any
        // consumer that aggregated the second pass.
        let p = kernel();
        let trace = Trace::record(&p, None).unwrap();
        let mut replay = trace.replay(&p).unwrap();
        let mut events = 0u64;
        replay.drive(&mut |_| events += 1).unwrap();
        assert_eq!(events, trace.len());
        let again = replay.drive(&mut |_| panic!("no events on a re-drive"));
        assert!(
            matches!(again, Err(TraceError::Exhausted { ref source }) if source == "kernel"),
            "re-drive must fail, got {again:?}"
        );
        // Same contract on the phased entry point and the streaming replay.
        let mut replay = trace.replay(&p).unwrap();
        replay.drive_phased(&mut |_, _| {}).unwrap();
        assert!(matches!(
            replay.drive(&mut |_| {}),
            Err(TraceError::Exhausted { .. })
        ));
        let file = file_of("redrive", &trace.to_bytes());
        let mut streaming = Replay::from_file(file, &p).unwrap();
        streaming.drive(&mut |_| {}).unwrap();
        assert!(matches!(
            streaming.drive(&mut |_| {}),
            Err(TraceError::Exhausted { .. })
        ));
    }

    #[test]
    fn try_new_rejects_bad_geometry_new_still_panics() {
        assert!(matches!(
            Sampling::try_new(10, 0),
            Err(TraceError::InvalidSampling {
                period: 10,
                length: 0
            })
        ));
        assert!(matches!(
            Sampling::try_new(10, 11),
            Err(TraceError::InvalidSampling { .. })
        ));
        assert_eq!(Sampling::try_new(10, 10).unwrap().fraction(), 1.0);
        let err = Sampling::try_new(5, 9).unwrap_err();
        assert!(err.to_string().contains("0 < length (9) <= period (5)"));
        assert!(std::panic::catch_unwind(|| Sampling::new(10, 0)).is_err());
    }

    #[test]
    fn sampling_phases_partition_the_stream() {
        let s = Sampling::new(10, 3).with_warmup(4).with_offset(5);
        // Windows at 5..8, 15..18, ...; warm-up covers the 4 positions
        // before each window start.
        let phases: Vec<SamplePhase> = (0..20).map(|pos| s.phase(pos)).collect();
        use SamplePhase::*;
        assert_eq!(
            phases,
            vec![
                Skip, Warm, Warm, Warm, Warm, // 0..5: warm-up into window 0
                Measure, Measure, Measure, // 5..8: window 0
                Skip, Skip, Skip, // 8..11
                Warm, Warm, Warm, Warm, // 11..15: warm-up into window 1
                Measure, Measure, Measure, // 15..18: window 1
                Skip, Skip,
            ]
        );
        // `contains` is exactly the Measure phase.
        for pos in 0..50 {
            assert_eq!(s.contains(pos), s.phase(pos) == SamplePhase::Measure);
        }
        // Full warming tags every non-measured event Warm.
        let full = Sampling::new(10, 3).with_warmup(7);
        assert!((0..100).all(|p| full.phase(p) != SamplePhase::Skip));
    }

    #[test]
    fn drive_phased_tags_warm_and_measure_consistently() {
        let p = kernel();
        let trace = Trace::record(&p, None).unwrap();
        let sampling = Sampling::new(10, 3).with_warmup(2).with_offset(4);
        let (live, _) = live_events(&p, None);
        let mut tagged = Vec::new();
        let outcome = trace
            .replay(&p)
            .unwrap()
            .with_sampling(sampling)
            .drive_phased(&mut |phase, ev| tagged.push((phase, *ev)))
            .unwrap();
        assert_eq!(outcome.instructions(), trace.len());
        // Every delivered event matches the live stream at its position
        // and carries the phase the plan assigns to that position.
        let expected: Vec<(SamplePhase, TraceEvent)> = live
            .iter()
            .enumerate()
            .filter(|(i, _)| sampling.phase(*i as u64) != SamplePhase::Skip)
            .map(|(i, ev)| (sampling.phase(i as u64), *ev))
            .collect();
        assert_eq!(tagged, expected);
        assert!(tagged.iter().any(|(ph, _)| *ph == SamplePhase::Warm));
        assert!(tagged.iter().any(|(ph, _)| *ph == SamplePhase::Measure));
        // Plain drive sees only the Measure subset.
        let mut plain = Vec::new();
        trace
            .replay(&p)
            .unwrap()
            .with_sampling(sampling)
            .drive(&mut |ev| plain.push(*ev))
            .unwrap();
        let measured: Vec<TraceEvent> = expected
            .iter()
            .filter(|(ph, _)| *ph == SamplePhase::Measure)
            .map(|(_, ev)| *ev)
            .collect();
        assert_eq!(plain, measured);
    }

    #[test]
    fn streaming_replay_is_byte_identical_to_materialized() {
        let p = kernel();
        let trace = Trace::record(&p, None).unwrap();
        let bytes = trace.to_bytes();
        let n = trace.len();
        let limits = [None, Some(1), Some(5), Some(n - 1), Some(n), Some(n + 1)];
        let samplings = [
            None,
            Some(Sampling::new(10, 3)),
            Some(Sampling::new(7, 2).with_warmup(3).with_offset(4)),
        ];
        for limit in limits {
            for sampling in samplings {
                let mut mat = trace.replay(&p).unwrap().with_limit(limit);
                if let Some(s) = sampling {
                    mat = mat.with_sampling(s);
                }
                let mut mat_events = Vec::new();
                let mat_outcome = mat
                    .drive_phased(&mut |ph, ev| mat_events.push((ph, *ev)))
                    .unwrap();

                let mut st = Replay::from_file(file_of("identical", &bytes), &p)
                    .unwrap()
                    .with_limit(limit);
                if let Some(s) = sampling {
                    st = st.with_sampling(s);
                }
                let mut st_events = Vec::new();
                let st_outcome = st
                    .drive_phased(&mut |ph, ev| st_events.push((ph, *ev)))
                    .unwrap();

                assert_eq!(
                    mat_events, st_events,
                    "limit {limit:?} sampling {sampling:?}"
                );
                assert_eq!(mat_outcome, st_outcome, "limit {limit:?}");
            }
        }
    }

    #[test]
    fn streaming_replay_from_file_and_error_paths() {
        let p = kernel();
        let trace = Trace::record(&p, None).unwrap();
        let bytes = trace.to_bytes();
        let mut replay = Replay::from_file(file_of("stream", &bytes), &p).unwrap();
        assert!(replay.buffer_bytes() < bytes.len());
        let mut events = 0u64;
        let outcome = replay.drive(&mut |_| events += 1).unwrap();
        assert_eq!(events, trace.len());
        assert_eq!(outcome, trace.outcome());

        // The trace may start mid-file (after a store entry's header).
        let mut prefixed = b"entry header".to_vec();
        prefixed.extend_from_slice(&bytes);
        let mut file = file_of("prefixed", &prefixed);
        std::io::Seek::seek(&mut file, std::io::SeekFrom::Start(12)).unwrap();
        let mut events = 0u64;
        Replay::from_file(file, &p)
            .unwrap()
            .drive(&mut |_| events += 1)
            .unwrap();
        assert_eq!(events, trace.len());

        // Wrong program: rejected at construction, like Trace::replay.
        let mut other = ProgramBuilder::named("kernel");
        other.li(Reg::R1, 1);
        other.halt();
        let other = other.build();
        assert!(matches!(
            Replay::from_file(file_of("other", &bytes), &other),
            Err(TraceError::ProgramMismatch { .. })
        ));

        // Truncated bytes: error, never a panic — at construction for
        // header truncation, or during the walk for stream truncation.
        for len in (0..bytes.len()).step_by(7) {
            match Replay::from_file(file_of("truncated", &bytes[..len]), &p) {
                Ok(mut replay) => assert!(replay.drive(&mut |_| {}).is_err(), "len {len}"),
                Err(e) => assert!(matches!(e, TraceError::Corrupt(_)), "len {len}: {e:?}"),
            }
        }

        // Junk after the address stream: rejected by both decoders —
        // eagerly by `from_bytes`, and by the file walk once it reaches
        // the end of the recording.
        let mut junk = bytes.clone();
        junk.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(
            Trace::from_bytes(&junk),
            Err(TraceError::Corrupt("trailing bytes".into()))
        );
        let mut replay = Replay::from_file(file_of("junk", &junk), &p).unwrap();
        assert_eq!(
            replay.drive(&mut |_| {}),
            Err(TraceError::Corrupt("trailing bytes".into()))
        );
        // A walk cut short by a limit never reaches the junk.
        let mut replay = Replay::from_file(file_of("junk-limited", &junk), &p)
            .unwrap()
            .with_limit(Some(trace.len() - 1));
        assert!(replay.drive(&mut |_| {}).is_ok());
    }

    #[test]
    fn recording_faulting_program_propagates_vm_error() {
        let mut b = ProgramBuilder::named("fault");
        b.li(Reg::R1, 1);
        b.div(Reg::R2, Reg::R1, Reg::R0);
        b.halt();
        let p = b.build();
        assert_eq!(
            Trace::record(&p, None),
            Err(VmError::DivideByZero { pc: 1 })
        );
    }

    #[test]
    fn encoded_size_is_compact() {
        let p = kernel();
        let trace = Trace::record(&p, None).unwrap();
        // 8 iterations, one branch bit each.
        assert_eq!(trace.branches(), 8);
        // The loop branch is taken 7 times and falls through once.
        assert_eq!(trace.taken_branches(), 7);
        // Nearby addresses delta-encode to a handful of bytes each.
        assert!(
            trace.to_bytes().len() < 128,
            "encoding ballooned: {} bytes",
            trace.to_bytes().len()
        );
    }
}
