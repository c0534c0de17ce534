//! Exact `SimResult`s of the timing kernel, pinned by value.
//!
//! `driver_parity.rs` compares two drivers that share one kernel, so a
//! change to the kernel itself moves both sides alike and passes there.
//! These pins hold the kernel to fixed numbers instead: the cycle count
//! and a digest of the whole result's `Debug` rendering (misses, branch
//! counts, sampling statistics and timeline included), for both drivers.
//!
//! The machines lie outside Table 2 and stress the front-end ring: front-end
//! depth 1 at width 1 holds one instruction in flight (the ring wraps on
//! every instruction), depth 6 at width 8 holds 48, and depth 2 at width 2
//! holds 4, few enough that execute stalls fill the ring and its
//! backpressure binds (a ring read one slot off moves these pins).

use mim_core::MachineConfig;
use mim_pipeline::{PipelineSim, SimResult};
use mim_trace::{Sampling, Trace};
use mim_workloads::{mibench, WorkloadSize};

/// FNV-1a over the bytes of `text`.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn machine(frontend_depth: u32, width: u32) -> MachineConfig {
    MachineConfig {
        width,
        frontend_depth,
        ..MachineConfig::default_config()
    }
}

/// How a pinned run is simulated.
#[derive(Debug, Clone, Copy)]
enum RunKind {
    Full,
    DefaultPlan,
    Timeline500,
}
use RunKind::*;

/// Pinned runs: workload, front-end depth, width, run kind, and the
/// expected cycles and `Debug` digest.
#[rustfmt::skip]
const PINS: [(&str, u32, u32, RunKind, u64, u64); 18] = [
    ("sha", 1, 1, Full, 45453, 0x6306_a2ba_11ac_f652),
    ("sha", 1, 1, DefaultPlan, 47061, 0x080c_0916_e058_a1e9),
    ("sha", 1, 1, Timeline500, 45453, 0x328c_0ac1_d3e6_983d),
    ("sha", 6, 8, Full, 25384, 0x53eb_de49_f0f8_b863),
    ("sha", 6, 8, DefaultPlan, 27345, 0x4148_8bb8_4a98_b4ad),
    ("sha", 6, 8, Timeline500, 25384, 0xd369_a5b0_ba87_851a),
    ("sha", 2, 2, Full, 32807, 0x7876_1eb4_9dc8_8abf),
    ("sha", 2, 2, DefaultPlan, 34462, 0x6fef_92f3_e219_261b),
    ("sha", 2, 2, Timeline500, 32807, 0xfeed_76de_e577_1281),
    ("qsort", 1, 1, Full, 25305, 0x3922_d998_ffe5_e212),
    ("qsort", 1, 1, DefaultPlan, 26765, 0xb6ae_4240_900f_27ec),
    ("qsort", 1, 1, Timeline500, 25305, 0x5065_9abb_054e_b8d5),
    ("qsort", 6, 8, Full, 24833, 0xf00c_bec7_0694_1f59),
    ("qsort", 6, 8, DefaultPlan, 28348, 0xeb8d_9586_0765_cd00),
    ("qsort", 6, 8, Timeline500, 24833, 0x6bc4_04b8_dabb_9d47),
    ("qsort", 2, 2, Full, 22439, 0x844a_c33d_9e6f_c57d),
    ("qsort", 2, 2, DefaultPlan, 24499, 0x181d_3528_2a1f_fc83),
    ("qsort", 2, 2, Timeline500, 22439, 0x4027_57c7_c360_d825),
];

/// One run through both drivers.
fn run(workload: &str, depth: u32, width: u32, kind: RunKind) -> [SimResult; 2] {
    let workload = match workload {
        "sha" => mibench::sha(),
        "qsort" => mibench::qsort(),
        other => panic!("no pinned workload {other}"),
    };
    let p = workload.program(WorkloadSize::Tiny);
    let trace = Trace::record(&p, None).unwrap();
    let mut sim = PipelineSim::new(&machine(depth, width));
    if let Timeline500 = kind {
        sim = sim.with_timeline(500);
    }
    let replay = || {
        let replay = trace.replay(&p).unwrap();
        match kind {
            DefaultPlan => replay.with_sampling(Sampling::default_plan()),
            Full | Timeline500 => replay,
        }
    };
    [
        sim.simulate_source(&mut replay()).unwrap(),
        sim.simulate_events(&mut replay()).unwrap(),
    ]
}

#[test]
fn kernel_results_are_pinned() {
    let mut wrong = Vec::new();
    for (workload, depth, width, kind, cycles, pinned) in PINS {
        let results = run(workload, depth, width, kind);
        for (driver, result) in ["simulate_source", "simulate_events"].iter().zip(results) {
            let got = (result.cycles, digest(&format!("{result:?}")));
            if got != (cycles, pinned) {
                wrong.push(format!(
                    "{workload} depth {depth} width {width} {kind:?} via {driver}: \
                     cycles {}, digest {:#018x} (pinned {cycles}, {pinned:#018x})",
                    got.0, got.1
                ));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "kernel results moved:\n{}",
        wrong.join("\n")
    );
}
