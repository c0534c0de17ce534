//! The mechanistic performance model for superscalar in-order processors
//! (paper §3, equations 1–16).

use crate::config::MachineConfig;
use crate::inputs::ModelInputs;
use crate::stack::{CpiStack, StackComponent};

/// The paper's analytical model.
///
/// Evaluating the model is a handful of closed-form sums over the profile
/// statistics — microseconds per design point — which is what makes
/// model-driven design-space exploration three orders of magnitude faster
/// than detailed simulation (§5).
///
/// # Model structure
///
/// ```text
/// T = N/W + P_misses + P_LL + P_deps                          (Eq. 1)
///
/// P_misses:  cache/TLB miss   = MissLatency - (W-1)/2W        (Eq. 3)
///            branch mispredict = D + (W-1)/2W                 (Eq. 4)
///            taken-branch hit  = 1 per predicted-taken hit    (§3.3)
/// P_LL:      per long-latency op = (lat - 1) - (W-1)/2W       (Eq. 6)
/// P_deps:    unit producers   Σ deps_unit(d)·((W-d)/W)²        (Eq. 11)
///            long-lat producers Σ deps_LL(d)·(W-d)/W          (Eq. 12)
///            load producers   Eq. 16 (two-stage producer)
/// ```
///
/// # Example
///
/// ```
/// use mim_core::{MachineConfig, MechanisticModel, ModelInputs};
///
/// let machine = MachineConfig::default_config();
/// let mut inputs = ModelInputs::synthetic("toy", 4000);
/// inputs.branch.branches = 100;
/// inputs.branch.mispredicts = 10;
/// let stack = MechanisticModel::new(&machine).predict(&inputs);
/// // base 1000 cycles + 10 * (6 + 3/8) cycles of branch penalty
/// assert!((stack.total_cycles() - (1000.0 + 10.0 * 6.375)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct MechanisticModel {
    machine: MachineConfig,
}

impl MechanisticModel {
    /// Creates a model instance for one machine configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MachineConfig::validate`]; build
    /// configurations through validated paths to avoid this.
    pub fn new(machine: &MachineConfig) -> MechanisticModel {
        machine
            .validate()
            .expect("machine configuration must be valid");
        MechanisticModel {
            machine: machine.clone(),
        }
    }

    /// The machine configuration this model instance evaluates.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Average number of instructions hidden underneath a miss event,
    /// `(W-1)/2W` — instructions of the same fetch group that slip past the
    /// blocking event (§3.3).
    fn hidden_overlap(&self) -> f64 {
        let w = f64::from(self.machine.width);
        (w - 1.0) / (2.0 * w)
    }

    /// Penalty per cache/TLB miss event with the given latency (Eq. 3).
    fn miss_event_penalty(&self, miss_latency_cycles: u32) -> f64 {
        (f64::from(miss_latency_cycles) - self.hidden_overlap()).max(0.0)
    }

    /// Penalty per non-unit long-latency instruction (Eq. 6).
    fn long_latency_penalty(&self, latency_cycles: u32) -> f64 {
        (f64::from(latency_cycles) - 1.0 - self.hidden_overlap()).max(0.0)
    }

    /// Penalty per branch misprediction (Eq. 4).
    fn branch_miss_penalty(&self) -> f64 {
        f64::from(self.machine.frontend_depth) + self.hidden_overlap()
    }

    // -- public term-decomposition accessor ----------------------------------
    // Downstream error attribution (mim-validate) re-derives individual
    // penalty terms from raw event counts — e.g. splitting the model's
    // combined TLB component into its instruction and data shares — so the
    // per-miss penalty is part of the model's public surface.

    /// Penalty the model charges per cache/TLB miss event of the given
    /// latency (Eq. 3): `latency - (W-1)/2W`, clamped at zero.
    pub fn miss_penalty(&self, miss_latency_cycles: u32) -> f64 {
        self.miss_event_penalty(miss_latency_cycles)
    }

    /// Evaluates the model, returning the predicted [`CpiStack`].
    pub fn predict(&self, inputs: &ModelInputs) -> CpiStack {
        let m = &self.machine;
        let w = f64::from(m.width);
        let wi = m.width as usize;
        let mut stack = CpiStack::new(inputs.name.clone(), inputs.num_insts);

        // -- base: N/W (Eq. 1, first term) ---------------------------------
        stack.add(StackComponent::Base, inputs.num_insts as f64 / w);

        // -- P_LL: non-unit execute latencies (Eq. 5–6) ---------------------
        stack.add(
            StackComponent::Mul,
            inputs.mix.mul as f64 * self.long_latency_penalty(m.mul_latency),
        );
        stack.add(
            StackComponent::Div,
            inputs.mix.div as f64 * self.long_latency_penalty(m.div_latency),
        );
        // L1 hits count as long-latency instructions when the L1 access
        // time exceeds one cycle (§3.4). Only L1 *hits* — misses are
        // accounted below at their own latency.
        if m.l1_hit_cycles > 1 {
            let l1_hits = inputs.mix.load + inputs.mix.store - inputs.misses.l1d_misses;
            stack.add(
                StackComponent::L1HitExtra,
                l1_hits as f64 * self.long_latency_penalty(m.l1_hit_cycles),
            );
        }

        // -- P_misses: cache/TLB misses (Eq. 2–3) ----------------------------
        let l2_hit = self.miss_event_penalty(m.l2_hit_cycles());
        let mem = self.miss_event_penalty(m.mem_cycles());
        let c = &inputs.misses;
        stack.add(StackComponent::IL2Access, c.l1i_l2_hits() as f64 * l2_hit);
        stack.add(StackComponent::IL2Miss, c.l2i_misses as f64 * mem);
        stack.add(StackComponent::DL2Access, c.l1d_l2_hits() as f64 * l2_hit);
        stack.add(StackComponent::DL2Miss, c.l2d_misses as f64 * mem);
        stack.add(
            StackComponent::TlbMiss,
            (c.itlb_misses + c.dtlb_misses) as f64 * self.miss_event_penalty(m.tlb_walk_cycles),
        );

        // -- P_misses: branch mispredictions (Eq. 4) and taken-branch hits --
        stack.add(
            StackComponent::BranchMiss,
            inputs.branch.mispredicts as f64 * self.branch_miss_penalty(),
        );
        // One fetch bubble per correctly predicted taken branch and per
        // unconditional jump (always taken, always "predicted" correctly).
        stack.add(
            StackComponent::TakenBranch,
            (inputs.branch.taken_correct + inputs.mix.jump) as f64,
        );

        // -- P_deps: unit-latency producers (Eq. 11) -------------------------
        let mut dep_unit = 0.0;
        for d in 1..wi {
            let frac = (w - d as f64) / w;
            dep_unit += inputs.deps_unit.at(d) as f64 * frac * frac;
        }
        stack.add(StackComponent::DepUnit, dep_unit);

        // -- P_deps: long-latency producers (Eq. 12) -------------------------
        let mut dep_ll = 0.0;
        for d in 1..wi {
            dep_ll += inputs.deps_ll.at(d) as f64 * (w - d as f64) / w;
        }
        stack.add(StackComponent::DepLL, dep_ll);

        // -- P_deps: load producers (Eq. 16) -----------------------------------
        let mut dep_load = 0.0;
        for d in 1..wi {
            let df = d as f64;
            // Same-stage case (prob (W-d)/W, penalty (2W-d)/W) plus
            // consecutive-stage case with d < W (prob d/W, penalty 1).
            dep_load +=
                inputs.deps_load.at(d) as f64 * ((w - df) / w * (2.0 * w - df) / w + df / w);
        }
        for d in wi..(2 * wi) {
            let df = d as f64;
            // Consecutive-stage case with W <= d < 2W: probability and
            // penalty are both (2W-d)/W.
            let frac = (2.0 * w - df) / w;
            dep_load += inputs.deps_load.at(d) as f64 * frac * frac;
        }
        stack.add(StackComponent::DepLoad, dep_load);

        stack
    }

    /// Evaluates the model with the listed penalty terms removed.
    ///
    /// Because the model is purely additive (Eq. 1), dropping a term is
    /// equivalent to zeroing its stack component. This powers the ablation
    /// study (`mim-bench --bin ablation`), which quantifies how much each
    /// modeled mechanism contributes to prediction accuracy — the
    /// motivation the paper gives for modeling dependencies and non-unit
    /// latencies on in-order cores in the first place (§1).
    pub fn predict_ablated(
        &self,
        inputs: &ModelInputs,
        disabled: &[crate::stack::StackComponent],
    ) -> CpiStack {
        let full = self.predict(inputs);
        let mut ablated = CpiStack::new(inputs.name.clone(), inputs.num_insts);
        for (component, cycles) in full.components() {
            if !disabled.contains(&component) {
                ablated.add(component, cycles);
            }
        }
        ablated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{DepHistogram, InstMix};
    use mim_bpred::BranchStats;

    fn machine_w(width: u32) -> MachineConfig {
        MachineConfig {
            width,
            ..MachineConfig::default_config()
        }
    }

    fn base_inputs(n: u64) -> ModelInputs {
        ModelInputs::synthetic("t", n)
    }

    #[test]
    fn ideal_program_runs_at_full_width() {
        for w in 1..=4 {
            let model = MechanisticModel::new(&machine_w(w));
            let stack = model.predict(&base_inputs(1200));
            assert!((stack.total_cycles() - 1200.0 / f64::from(w)).abs() < 1e-9);
        }
    }

    #[test]
    fn mul_penalty_matches_eq6() {
        // Eq. 6: penalty = (lat - 1) - (W-1)/2W per multiply.
        let model = MechanisticModel::new(&machine_w(4));
        let mut inputs = base_inputs(1000);
        inputs.mix.mul = 100;
        let stack = model.predict(&inputs);
        let expected = 100.0 * ((4.0 - 1.0) - 3.0 / 8.0);
        assert!((stack.cycles_of(StackComponent::Mul) - expected).abs() < 1e-9);
    }

    #[test]
    fn unit_latency_mul_has_no_penalty() {
        let mut m = machine_w(4);
        m.mul_latency = 1;
        let model = MechanisticModel::new(&m);
        let mut inputs = base_inputs(1000);
        inputs.mix.mul = 100;
        assert_eq!(model.predict(&inputs).cycles_of(StackComponent::Mul), 0.0);
    }

    #[test]
    fn cache_miss_penalty_matches_eq3() {
        // Eq. 3: penalty = MissLatency - (W-1)/2W.
        let model = MechanisticModel::new(&machine_w(4)); // L2 10c, mem 60c
        let mut inputs = base_inputs(1000);
        inputs.misses.l1d_misses = 10; // all hit L2
        let stack = model.predict(&inputs);
        let expected = 10.0 * (10.0 - 3.0 / 8.0);
        assert!((stack.cycles_of(StackComponent::DL2Access) - expected).abs() < 1e-9);

        let mut inputs = base_inputs(1000);
        inputs.misses.l1i_misses = 5;
        inputs.misses.l2i_misses = 5; // all go to memory
        let stack = model.predict(&inputs);
        let expected = 5.0 * (60.0 - 3.0 / 8.0);
        assert!((stack.cycles_of(StackComponent::IL2Miss) - expected).abs() < 1e-9);
        assert_eq!(stack.cycles_of(StackComponent::IL2Access), 0.0);
    }

    #[test]
    fn branch_penalty_matches_eq4() {
        // Eq. 4: penalty = D + (W-1)/2W.
        for (w, d) in [(1u32, 2u32), (4, 6)] {
            let mut m = machine_w(w);
            m.frontend_depth = d;
            let model = MechanisticModel::new(&m);
            let mut inputs = base_inputs(1000);
            inputs.branch = BranchStats {
                branches: 50,
                mispredicts: 7,
                taken_correct: 20,
            };
            let stack = model.predict(&inputs);
            let wf = f64::from(w);
            let expected = 7.0 * (f64::from(d) + (wf - 1.0) / (2.0 * wf));
            assert!(
                (stack.cycles_of(StackComponent::BranchMiss) - expected).abs() < 1e-9,
                "W={w} D={d}"
            );
            // Taken-branch hit penalty: 1 cycle per correctly predicted
            // taken branch.
            assert!((stack.cycles_of(StackComponent::TakenBranch) - 20.0).abs() < 1e-9);
        }
    }

    #[test]
    fn jumps_cost_one_bubble_each() {
        let model = MechanisticModel::new(&machine_w(2));
        let mut inputs = base_inputs(1000);
        inputs.mix.jump = 30;
        let stack = model.predict(&inputs);
        assert!((stack.cycles_of(StackComponent::TakenBranch) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn unit_dep_penalty_matches_eq11() {
        // Eq. 11: Σ deps_unit(d) ((W-d)/W)².
        let model = MechanisticModel::new(&machine_w(4));
        let mut inputs = base_inputs(1000);
        let mut h = DepHistogram::new();
        for _ in 0..16 {
            h.record(1);
        }
        for _ in 0..8 {
            h.record(2);
        }
        for _ in 0..4 {
            h.record(3);
        }
        for _ in 0..100 {
            h.record(4); // d >= W contributes nothing
        }
        inputs.deps_unit = h;
        let stack = model.predict(&inputs);
        let expected = 16.0 * (3.0f64 / 4.0).powi(2)
            + 8.0 * (2.0f64 / 4.0).powi(2)
            + 4.0 * (1.0f64 / 4.0).powi(2);
        assert!((stack.cycles_of(StackComponent::DepUnit) - expected).abs() < 1e-9);
    }

    #[test]
    fn scalar_machine_has_no_unit_dep_penalty() {
        // W = 1: forwarding makes unit-latency chains free (sum is empty).
        let model = MechanisticModel::new(&machine_w(1));
        let mut inputs = base_inputs(1000);
        inputs.deps_unit.record(1);
        let stack = model.predict(&inputs);
        assert_eq!(stack.cycles_of(StackComponent::DepUnit), 0.0);
    }

    #[test]
    fn ll_dep_penalty_matches_eq12() {
        let model = MechanisticModel::new(&machine_w(4));
        let mut inputs = base_inputs(1000);
        inputs.deps_ll.record(1);
        inputs.deps_ll.record(2);
        inputs.deps_ll.record(3);
        let stack = model.predict(&inputs);
        let expected = 3.0 / 4.0 + 2.0 / 4.0 + 1.0 / 4.0;
        assert!((stack.cycles_of(StackComponent::DepLL) - expected).abs() < 1e-9);
    }

    #[test]
    fn load_dep_penalty_matches_eq16() {
        let w = 4.0f64;
        let model = MechanisticModel::new(&machine_w(4));
        let mut inputs = base_inputs(1000);
        // one dependency at each distance 1..=7
        for d in 1..=7 {
            inputs.deps_load.record(d);
        }
        let stack = model.predict(&inputs);
        let mut expected = 0.0;
        for d in 1..4 {
            let df = d as f64;
            expected += (w - df) / w * (2.0 * w - df) / w + df / w;
        }
        for d in 4..8 {
            let df = d as f64;
            expected += ((2.0 * w - df) / w).powi(2);
        }
        assert!((stack.cycles_of(StackComponent::DepLoad) - expected).abs() < 1e-9);
    }

    #[test]
    fn scalar_load_use_costs_one_cycle() {
        // Classic 5-stage load-use hazard: W=1, d=1 -> exactly 1 cycle.
        let model = MechanisticModel::new(&machine_w(1));
        let mut inputs = base_inputs(1000);
        inputs.deps_load.record(1);
        let stack = model.predict(&inputs);
        assert!((stack.cycles_of(StackComponent::DepLoad) - 1.0).abs() < 1e-9);
        // d = 2 >= 2W: no penalty on a scalar machine.
        let mut inputs = base_inputs(1000);
        inputs.deps_load.record(2);
        let stack = model.predict(&inputs);
        assert_eq!(stack.cycles_of(StackComponent::DepLoad), 0.0);
    }

    #[test]
    fn l1_hit_extra_counts_hits_only() {
        let mut m = machine_w(4);
        m.l1_hit_cycles = 2;
        let model = MechanisticModel::new(&m);
        let mut inputs = base_inputs(1000);
        inputs.mix = InstMix {
            alu: 900,
            load: 80,
            store: 20,
            ..InstMix::default()
        };
        inputs.misses.l1d_misses = 30;
        let stack = model.predict(&inputs);
        // 70 L1 hits * ((2-1) - 3/8)
        let expected = 70.0 * (1.0 - 3.0 / 8.0);
        assert!((stack.cycles_of(StackComponent::L1HitExtra) - expected).abs() < 1e-9);
    }

    #[test]
    fn all_penalties_are_nonnegative() {
        // Degenerate configurations must not produce negative components.
        let mut m = machine_w(8);
        m.mul_latency = 1;
        m.div_latency = 1;
        m.l2_hit_ns = 0.1; // rounds to >= 1 cycle
        let model = MechanisticModel::new(&m);
        let mut inputs = base_inputs(100);
        inputs.mix.mul = 10;
        inputs.mix.div = 10;
        inputs.misses.l1d_misses = 10;
        let stack = model.predict(&inputs);
        for (c, v) in stack.components() {
            assert!(v >= 0.0, "{} negative: {v}", c.label());
        }
    }

    #[test]
    fn frequency_scaling_increases_memory_cpi() {
        // Same profile, higher frequency -> more cycles per miss -> higher CPI.
        let mut inputs = base_inputs(10_000);
        inputs.misses.l1d_misses = 100;
        inputs.misses.l2d_misses = 100;
        let mut slow = machine_w(4);
        slow.frequency_ghz = 0.6;
        let mut fast = machine_w(4);
        fast.frequency_ghz = 1.0;
        let cpi_slow = MechanisticModel::new(&slow).predict(&inputs).cpi();
        let cpi_fast = MechanisticModel::new(&fast).predict(&inputs).cpi();
        assert!(cpi_fast > cpi_slow);
    }
}
