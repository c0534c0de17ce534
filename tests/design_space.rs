//! Cross-crate design-space behaviour: single-pass sweep consistency,
//! model accuracy across machine shapes, and EDP sanity.

use mim::core::{DesignPoint, DesignSpace, MachineConfig, MechanisticModel};
use mim::power::{Activity, EnergyModel};
use mim::prelude::*;
use mim::profile::SweepProfiler;

#[test]
fn sweep_profile_matches_per_point_profilers() {
    // The single-pass sweep must produce the same model inputs as a
    // dedicated single-configuration profiling run for every (L2,
    // predictor) pair.
    let space = DesignSpace::paper_table2();
    let sweep = SweepProfiler::for_design_space(&space);
    let program = mim::workloads::mibench::qsort().program(WorkloadSize::Tiny);
    let profile = sweep.profile(&program, None).unwrap();

    for point in space.points().step_by(37) {
        let direct = Profiler::new(&point.machine).profile(&program).unwrap();
        let from_sweep = profile.inputs_for(point.l2_index, point.predictor_index);
        assert_eq!(direct, from_sweep, "mismatch at {}", point.machine.id());
    }
}

/// The profiler's one pass over all eight Table 2 L2s and both
/// predictors charges each candidate exactly the miss and branch counts
/// the detailed simulator sees at a design point with that candidate, for
/// every bundled workload.
#[test]
fn sim_and_profiler_agree_on_every_candidate() {
    let space = DesignSpace::paper_table2();
    let sweep = SweepProfiler::for_design_space(&space);
    let first = |matches: &dyn Fn(&DesignPoint) -> bool| {
        space
            .points()
            .find(|p| matches(p))
            .expect("every candidate has a point")
    };
    let l2_points: Vec<_> = (0..space.l2_configs().len())
        .map(|i| first(&|p| p.l2_index == i))
        .collect();
    let predictor_points: Vec<_> = (0..space.predictor_configs().len())
        .map(|j| first(&|p| p.predictor_index == j))
        .collect();
    assert_eq!(l2_points.len(), 8);
    assert_eq!(predictor_points.len(), 2);
    let workloads = mim::workloads::mibench::all()
        .into_iter()
        .chain(mim::workloads::spec::all());
    for w in workloads {
        let program = w.program(WorkloadSize::Tiny);
        let profile = sweep.profile(&program, None).unwrap();
        let simulate =
            |point: &DesignPoint| PipelineSim::new(&point.machine).simulate(&program).unwrap();
        for point in &l2_points {
            assert_eq!(
                profile.misses[point.l2_index],
                simulate(point).misses,
                "{} at {}",
                w.name(),
                point.machine.id()
            );
        }
        for point in &predictor_points {
            assert_eq!(
                profile.branch[point.predictor_index].counts(),
                simulate(point).branch,
                "{} at {}",
                w.name(),
                point.machine.id()
            );
        }
    }
}

#[test]
fn model_error_is_bounded_across_sampled_space() {
    let space = DesignSpace::paper_table2();
    let sweep = SweepProfiler::for_design_space(&space);
    let mut errors = Vec::new();
    for w in [
        mim::workloads::mibench::gsm_c(),
        mim::workloads::mibench::stringsearch(),
    ] {
        let program = w.program(WorkloadSize::Tiny);
        let profile = sweep.profile(&program, None).unwrap();
        for point in space.points().step_by(11) {
            let inputs = profile.inputs_for(point.l2_index, point.predictor_index);
            let model_cpi = MechanisticModel::new(&point.machine).predict(&inputs).cpi();
            let sim_cpi = PipelineSim::new(&point.machine)
                .simulate(&program)
                .unwrap()
                .cpi();
            errors.push((model_cpi - sim_cpi).abs() / sim_cpi);
        }
    }
    let avg = errors.iter().sum::<f64>() / errors.len() as f64;
    let max = errors.iter().cloned().fold(0.0, f64::max);
    assert!(avg < 0.08, "average design-space error {:.1}%", avg * 100.0);
    assert!(max < 0.25, "max design-space error {:.1}%", max * 100.0);
}

#[test]
fn bigger_l2_never_increases_model_memory_component() {
    let space = DesignSpace::paper_table2();
    let sweep = SweepProfiler::for_design_space(&space);
    let program = mim::workloads::spec::libquantum_like().program(WorkloadSize::Tiny);
    let profile = sweep.profile(&program, None).unwrap();
    // 8-way candidates are at even indices, ordered by size.
    let mut last = f64::INFINITY;
    for l2_index in (0..8).step_by(2) {
        let inputs = profile.inputs_for(l2_index, 0);
        let machine = MachineConfig::default_config();
        let stack = MechanisticModel::new(&machine).predict(&inputs);
        let mem_component = stack.l2_miss();
        assert!(
            mem_component <= last + 1e-9,
            "L2 candidate {l2_index} increased the memory component"
        );
        last = mem_component;
    }
}

#[test]
fn edp_rankings_from_model_and_simulation_broadly_agree() {
    // Figure 9's premise: the model's EDP landscape picks (nearly) the
    // same optimum as detailed simulation. Checked on a coarse subsample.
    let space = DesignSpace::paper_table2();
    let sweep = SweepProfiler::for_design_space(&space);
    let program = mim::workloads::mibench::gsm_c().program(WorkloadSize::Tiny);
    let profile = sweep.profile(&program, None).unwrap();

    let mut pairs = Vec::new();
    for point in space.points().step_by(13) {
        let inputs = profile.inputs_for(point.l2_index, point.predictor_index);
        let stack = MechanisticModel::new(&point.machine).predict(&inputs);
        let sim = PipelineSim::new(&point.machine).simulate(&program).unwrap();
        let energy = EnergyModel::new(&point.machine);
        let edp_model = energy
            .evaluate(&Activity::from_model(&inputs, stack.total_cycles()))
            .edp();
        let edp_sim = energy.evaluate(&Activity::from_sim(&sim, &inputs)).edp();
        pairs.push((edp_model, edp_sim));
    }
    // Spearman-ish check: the model-optimal point must rank in the top
    // three by simulated EDP.
    let best_model = pairs
        .iter()
        .enumerate()
        .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).unwrap())
        .map(|(i, _)| i)
        .unwrap();
    let mut by_sim: Vec<usize> = (0..pairs.len()).collect();
    by_sim.sort_by(|&a, &b| pairs[a].1.partial_cmp(&pairs[b].1).unwrap());
    let rank = by_sim.iter().position(|&i| i == best_model).unwrap();
    assert!(
        rank < 3,
        "model-optimal design point ranks {rank} by simulated EDP"
    );
}

#[test]
fn cpi_is_frequency_sensitive_only_through_memory() {
    // A cache-resident kernel has (nearly) frequency-independent CPI; a
    // memory-bound kernel gets worse CPI at higher frequency (fixed ns
    // latencies cost more cycles).
    let program_cpu = mim::workloads::mibench::sha().program(WorkloadSize::Tiny);
    let program_mem = mim::workloads::spec::mcf_like().program(WorkloadSize::Tiny);
    let at_freq = |program: &mim::isa::Program, ghz: f64| {
        let machine = MachineConfig {
            frequency_ghz: ghz,
            ..MachineConfig::default_config()
        };
        PipelineSim::new(&machine).simulate(program).unwrap().cpi()
    };
    let cpu_ratio = at_freq(&program_cpu, 1.0) / at_freq(&program_cpu, 0.6);
    let mem_ratio = at_freq(&program_mem, 1.0) / at_freq(&program_mem, 0.6);
    assert!(
        cpu_ratio < 1.1,
        "compute kernel CPI moved {cpu_ratio:.3}x with frequency"
    );
    assert!(
        mem_ratio > 1.3,
        "memory kernel CPI should scale with frequency, got {mem_ratio:.3}x"
    );
}
