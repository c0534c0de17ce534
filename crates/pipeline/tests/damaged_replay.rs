//! Damaged recordings simulate to `Ok` or `TraceError::Corrupt`, never a
//! panic.
//!
//! Every bit of a small recording's branch-bit section is flipped in
//! turn, and so is every third byte of its address section. Each damaged
//! copy is simulated from memory and from a file, in full, under the
//! default sampling plan and under a plan whose phases are shorter than a
//! block. A wrong branch bit steers the replay's block walk off the text
//! or onto an early `halt`; a wrong address reaches the caches.

use std::fs::File;

use mim_core::MachineConfig;
use mim_isa::{Program, ProgramBuilder, Reg};
use mim_pipeline::{PipelineSim, SimResult};
use mim_trace::{Replay, Sampling, Trace, TraceError};

/// A loop over memory with loads, stores, a not-taken branch and a
/// taken one.
fn kernel() -> Program {
    let mut b = ProgramBuilder::named("kernel");
    let data = b.data_words(&[3, 1, 4, 1, 5, 9, 2, 6]);
    b.li(Reg::R1, data as i64);
    b.li(Reg::R3, 8);
    let top = b.here();
    let skip = b.label();
    b.ld(Reg::R4, Reg::R1, 0);
    b.beq(Reg::R4, Reg::R0, skip);
    b.st(Reg::R4, Reg::R1, 0);
    b.bind(skip);
    b.addi(Reg::R1, Reg::R1, 8);
    b.addi(Reg::R3, Reg::R3, -1);
    b.bne(Reg::R3, Reg::R0, top);
    b.halt();
    b.build()
}

/// A countdown whose last instruction is a conditional branch: taken it
/// loops, not taken it falls off the end of the text.
fn falls_off_the_text() -> Program {
    let mut b = ProgramBuilder::named("falls-off");
    b.li(Reg::R1, 3);
    let top = b.here();
    b.addi(Reg::R1, Reg::R1, -1);
    b.bne(Reg::R1, Reg::R0, top);
    b.build()
}

/// An open file holding `bytes` (the path is unlinked at once; the open
/// handle keeps the contents readable).
fn file_of(bytes: &[u8]) -> File {
    let path = std::env::temp_dir().join(format!(
        "mim-damaged-sim-{}-{:?}.bin",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, bytes).unwrap();
    let file = File::open(&path).unwrap();
    std::fs::remove_file(&path).ok();
    file
}

fn assert_ok_or_corrupt(result: Result<SimResult, TraceError>, what: &str) {
    if let Err(e) = result {
        assert!(matches!(e, TraceError::Corrupt(_)), "{what}: {e:?}");
    }
}

/// Simulates `bytes` against `p` from memory and from a file, in full and
/// under each sampling plan.
fn simulate_every_way(p: &Program, bytes: &[u8], what: &str) {
    let sim = PipelineSim::new(&MachineConfig::default_config());
    let plans = [
        None,
        Some(Sampling::default_plan()),
        Some(Sampling::new(7, 3).with_warmup(2).with_offset(1)),
    ];
    let trace = Trace::from_bytes(bytes);
    if let Err(e) = &trace {
        assert!(matches!(e, TraceError::Corrupt(_)), "{what}: {e:?}");
    }
    for plan in plans {
        let what = format!("{what}, plan {plan:?}");
        if let Ok(trace) = &trace {
            let mut replay = trace.replay(p).unwrap();
            if let Some(plan) = plan {
                replay = replay.with_sampling(plan);
            }
            assert_ok_or_corrupt(sim.simulate_source(&mut replay), &what);
        }
        match Replay::from_file(file_of(bytes), p) {
            Ok(mut replay) => {
                if let Some(plan) = plan {
                    replay = replay.with_sampling(plan);
                }
                assert_ok_or_corrupt(sim.simulate_source(&mut replay), &what);
            }
            Err(e) => assert!(matches!(e, TraceError::Corrupt(_)), "{what}: {e:?}"),
        }
    }
}

/// Byte ranges of the branch-bit and address sections of `trace`'s
/// serialized image. Header layout: magic(8) version(4) flags(1)
/// name_len(4) name text_len(4) fingerprint(8) events(8) taken_bits(8).
fn sections(trace: &Trace) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
    let bits_at = 17 + trace.name().len() + 4 + 8 + 8 + 8;
    let bits_end = bits_at + trace.branches().div_ceil(64) as usize * 8;
    let addrs_at = bits_end + 8;
    (bits_at..bits_end, addrs_at..trace.encoded_bytes())
}

#[test]
fn damaged_recordings_simulate_to_ok_or_corrupt() {
    let kernel = kernel();
    let falls_off = falls_off_the_text();
    let recordings = [
        (&kernel, Trace::record(&kernel, None).unwrap()),
        // Two taken iterations; a flipped bit falls off the text.
        (&falls_off, Trace::record(&falls_off, Some(5)).unwrap()),
    ];
    for (p, trace) in &recordings {
        let bytes = trace.to_bytes();
        simulate_every_way(p, &bytes, "undamaged");
        let (bits, addrs) = sections(trace);
        assert!(!bits.is_empty(), "{} records branches", p.name());
        for byte in bits {
            for bit in 0..8 {
                let mut damaged = bytes.clone();
                damaged[byte] ^= 1 << bit;
                simulate_every_way(
                    p,
                    &damaged,
                    &format!("{} bit {bit} of byte {byte}", p.name()),
                );
            }
        }
        for byte in addrs.step_by(3) {
            for mask in [0x01, 0x40, 0x80, 0xff] {
                let mut damaged = bytes.clone();
                damaged[byte] ^= mask;
                simulate_every_way(
                    p,
                    &damaged,
                    &format!("{} byte {byte} ^ {mask:#x}", p.name()),
                );
            }
        }
    }
}
