//! Replay-equivalence guarantees of the trace layer: for every bundled
//! workload (the programs behind all fig* benches) and for random
//! programs, timing results computed from a recorded-trace replay are
//! byte-identical to results computed from direct functional execution.

use mim::core::{DesignSpace, MachineConfig};
use mim::isa::{Program, ProgramBuilder, Reg};
use mim::pipeline::PipelineSim;
use mim::profile::SweepProfiler;
use mim::trace::{Trace, TraceSource};
use mim::workloads::{mibench, spec, WorkloadSize};
use proptest::prelude::*;

/// All bundled kernels: the 19 MiBench-like programs every fig* bench
/// draws from, the 6 SPEC-like programs of fig6, and a compiler-pass
/// variant (fig8's subject).
fn bundled_programs() -> Vec<Program> {
    let mut programs: Vec<Program> = mibench::all()
        .into_iter()
        .chain(spec::all())
        .map(|w| w.program(WorkloadSize::Tiny))
        .collect();
    programs.push(mim::workloads::opt::schedule(
        &mibench::sha().program(WorkloadSize::Tiny),
    ));
    programs
}

fn sweep_profiler() -> SweepProfiler {
    SweepProfiler::for_design_space(&DesignSpace::paper_table2())
}

/// Replayed `SimResult` == direct-execution `SimResult`, field for field,
/// for every bundled workload.
#[test]
fn sim_replay_is_byte_identical_for_all_bundled_workloads() {
    let sim = PipelineSim::new(&MachineConfig::default_config());
    for p in bundled_programs() {
        let direct = sim.simulate(&p).expect("direct simulation");
        let trace = Trace::record(&p, None).expect("recording");
        let mut replay = trace.replay(&p).expect("trace matches program");
        let replayed = sim
            .simulate_source(&mut replay)
            .expect("replayed simulation");
        assert_eq!(direct, replayed, "{}", p.name());
    }
}

/// Replayed `WorkloadProfile` == direct-execution profile for the full
/// Table 2 sweep, compared on serialized bytes (the strictest equality
/// the type offers).
#[test]
fn profile_replay_is_byte_identical_for_all_bundled_workloads() {
    let profiler = sweep_profiler();
    for p in bundled_programs() {
        let direct = profiler.profile(&p, None).expect("direct profile");
        let trace = Trace::record(&p, None).expect("recording");
        let mut replay = trace.replay(&p).expect("trace matches program");
        let replayed = profiler
            .profile_source(&mut replay)
            .expect("replayed profile");
        assert_eq!(
            serde_json::to_string(&direct).unwrap(),
            serde_json::to_string(&replayed).unwrap(),
            "{}",
            p.name()
        );
    }
}

/// `(name, length, FNV-1a digest)` of every bundled workload's serialized
/// trace, in `bundled_programs` order. Trace stores written by earlier
/// builds keep loading only while recordings match these byte for byte.
const PINNED_IMAGES: [(&str, usize, u64); 26] = [
    ("adpcm_c", 13788, 0x36b4_0874_944c_9420),
    ("adpcm_d", 12749, 0x6252_7d07_b0f0_dfe0),
    ("dijkstra", 3064, 0x99b2_b4d8_6550_9c02),
    ("gsm_c", 6727, 0x016a_d447_a4a8_c214),
    ("jpeg_c", 18051, 0x18ea_7d8d_86c2_f4f1),
    ("jpeg_d", 18184, 0xd115_175b_11f1_452c),
    ("lame", 25822, 0x28b2_daed_31ca_852c),
    ("patricia", 14976, 0x5ee1_49ba_e3f9_45e1),
    ("qsort", 6496, 0xd054_f7d0_2e07_b92f),
    ("rsynth", 12537, 0xa536_8d36_6478_a253),
    ("sha", 5782, 0xfe10_121c_f784_92b5),
    ("stringsearch", 5206, 0x477b_4a4f_26ae_afb5),
    ("susan_c", 6410, 0x0f74_0fee_743c_58ef),
    ("susan_e", 6514, 0x7fb3_91fa_3970_d2f4),
    ("susan_s", 14713, 0x3c1b_d613_d23e_b9e6),
    ("tiff2bw", 18250, 0x5253_3592_cc77_1037),
    ("tiff2rgba", 17138, 0x7f51_bb34_93dd_d353),
    ("tiffdither", 18901, 0xa5c1_5187_c6d8_4d7c),
    ("tiffmedian", 6096, 0x133d_f7b1_d758_649f),
    ("mcf_like", 7799, 0x9078_b702_c114_b945),
    ("libquantum_like", 139340, 0xe5f0_b3c0_64e3_a130),
    ("bzip2_like", 562408, 0x90a4_de16_5d6f_1d1c),
    ("hmmer_like", 62033, 0x704e_ceb0_ccdc_002c),
    ("sjeng_like", 22565, 0xcd1d_a656_6bd9_fb82),
    ("milc_like", 199392, 0x4cfe_d68e_d57c_09ff),
    ("sha", 5782, 0xba60_5aaa_df55_931f),
];

/// The recording-time encoder writes the pinned on-disk format for every
/// bundled workload.
#[test]
fn recordings_match_the_pinned_format_for_all_bundled_workloads() {
    let digest = |bytes: &[u8]| {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let programs = bundled_programs();
    assert_eq!(programs.len(), PINNED_IMAGES.len());
    for (p, (name, len, pinned)) in programs.iter().zip(PINNED_IMAGES) {
        let bytes = Trace::record(p, None).expect("recording").to_bytes();
        assert_eq!(p.name(), name);
        assert_eq!(bytes.len(), len, "{name}");
        assert_eq!(digest(&bytes), pinned, "{name}");
    }
}

/// Serialization round-trips deterministically for every bundled
/// workload, and the decoded trace still replays identically.
#[test]
fn serialization_round_trips_for_all_bundled_workloads() {
    let sim = PipelineSim::new(&MachineConfig::default_config());
    for p in bundled_programs() {
        let trace = Trace::record(&p, None).expect("recording");
        let bytes = trace.to_bytes();
        assert_eq!(
            bytes,
            trace.to_bytes(),
            "{}: nondeterministic bytes",
            p.name()
        );
        let decoded = Trace::from_bytes(&bytes).expect("decode");
        assert_eq!(decoded, trace, "{}", p.name());
        let direct = sim.simulate(&p).unwrap();
        let mut replay = decoded.replay(&p).expect("decoded trace matches");
        assert_eq!(
            direct,
            sim.simulate_source(&mut replay).unwrap(),
            "{}",
            p.name()
        );
    }
}

/// The unified instruction-limit satellite: with the same limit, trace,
/// profile, and simulation all describe the same dynamic instruction
/// window — including truncated (non-halting) windows.
#[test]
fn sim_and_profile_agree_on_truncated_windows() {
    let machine = MachineConfig::default_config();
    let sim = PipelineSim::new(&machine);
    let profiler = SweepProfiler::new(
        machine.hierarchy.clone(),
        vec![machine.hierarchy.l2.clone()],
        vec![machine.predictor.clone()],
    );
    let p = mibench::dijkstra().program(WorkloadSize::Small);
    for limit in [1_000u64, 5_000, 50_000] {
        let trace = Trace::record(&p, Some(limit)).expect("recording");
        assert_eq!(trace.len(), limit);
        let s = sim
            .simulate_source(&mut trace.replay(&p).unwrap())
            .expect("sim");
        let prof = profiler
            .profile_source(&mut trace.replay(&p).unwrap())
            .expect("profile");
        assert_eq!(s.instructions, limit);
        assert_eq!(
            s.instructions, prof.num_insts,
            "sim and profile must see the same window at limit {limit}"
        );
        // And both match the pre-trace direct paths at the same limit.
        assert_eq!(s, sim.simulate_limit(&p, Some(limit)).unwrap());
        assert_eq!(
            prof.num_insts,
            profiler.profile(&p, Some(limit)).unwrap().num_insts
        );
    }
}

// ---- random programs ------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Alu(u8, u8, u8, u8),
    Imm(u8, u8, u8, i32),
    Li(u8, i32),
    Ld(u8, u8),
    St(u8, u8),
    SkipNext(u8, u8), // conditional branch over the following instruction
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..11, 1u8..28, 0u8..28, 0u8..28).prop_map(|(o, d, a, b)| Op::Alu(o, d, a, b)),
        (0u8..8, 1u8..28, 0u8..28, -1000i32..1000).prop_map(|(o, d, a, i)| Op::Imm(o, d, a, i)),
        (1u8..28, -100_000i32..100_000).prop_map(|(d, i)| Op::Li(d, i)),
        (1u8..28, 0u8..16).prop_map(|(d, s)| Op::Ld(d, s)),
        (0u8..28, 0u8..16).prop_map(|(v, s)| Op::St(v, s)),
        (0u8..28, 0u8..28).prop_map(|(a, b)| Op::SkipNext(a, b)),
    ]
}

/// Builds a safe random program: registers initialized, no divides, all
/// memory inside a 16-word arena, forward-only branches.
fn build(ops: &[Op]) -> Program {
    let mut b = ProgramBuilder::named("random");
    b.alloc_words(16);
    let base = Reg::R30;
    b.li(base, 0);
    for i in 0..28 {
        b.li(Reg::from_index(i).unwrap(), i as i64 + 1);
    }
    let reg = |i: u8| Reg::from_index(i as usize).unwrap();
    for op in ops {
        match *op {
            Op::Alu(o, d, a, c) => {
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
                    _ => b.mul(d, a, c),
                }
            }
            Op::Imm(o, d, a, i) => {
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
            Op::SkipNext(a, c) => {
                let skip = b.label();
                b.beq(reg(a), reg(c), skip);
                b.addi(Reg::R29, Reg::R29, 1);
                b.bind(skip);
            }
        }
    }
    b.halt();
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replayed simulation and profile match direct execution on random
    /// programs (branches included), full and truncated.
    #[test]
    fn random_programs_replay_identically(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let p = build(&ops);
        let sim = PipelineSim::new(&MachineConfig::default_config());
        let profiler = sweep_profiler();

        let trace = Trace::record(&p, None).expect("random programs are safe");
        let direct_sim = sim.simulate(&p).unwrap();
        let replayed_sim = sim.simulate_source(&mut trace.replay(&p).unwrap()).unwrap();
        prop_assert_eq!(&direct_sim, &replayed_sim);

        let direct_prof = profiler.profile(&p, None).unwrap();
        let replayed_prof = profiler.profile_source(&mut trace.replay(&p).unwrap()).unwrap();
        prop_assert_eq!(
            serde_json::to_string(&direct_prof).unwrap(),
            serde_json::to_string(&replayed_prof).unwrap()
        );

        // Serialization round-trip preserves the trace exactly.
        let decoded = Trace::from_bytes(&trace.to_bytes()).unwrap();
        prop_assert_eq!(&decoded, &trace);

        // Truncated replay == truncated direct execution.
        let half = (trace.len() / 2).max(1);
        let direct_half = sim.simulate_limit(&p, Some(half)).unwrap();
        let mut replay_half = trace.replay(&p).unwrap().with_limit(Some(half));
        prop_assert_eq!(direct_half, sim.simulate_source(&mut replay_half).unwrap());
    }

    /// The raw event streams are identical, not just the aggregates.
    #[test]
    fn random_programs_produce_identical_event_streams(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let p = build(&ops);
        let trace = Trace::record(&p, None).unwrap();
        let mut live = Vec::new();
        mim::trace::LiveVm::new(&p).drive(&mut |ev| live.push(*ev)).unwrap();
        let mut replayed = Vec::new();
        trace.replay(&p).unwrap().drive(&mut |ev| replayed.push(*ev)).unwrap();
        prop_assert_eq!(live, replayed);
    }
}
