//! First-order out-of-order interval model (comparator for §6.1).
//!
//! The paper's first case study contrasts in-order CPI stacks against
//! out-of-order CPI stacks "obtained using the model described in prior
//! work \[8\]" — the interval model of Eyerman, Eeckhout, Karkhanis & Smith
//! (ACM TOCS 2009). This module implements that first-order model:
//! a balanced out-of-order core sustains its dispatch width between miss
//! events, hides inter-instruction dependencies and non-unit execute
//! latencies inside the reorder buffer, overlaps long data misses via
//! memory-level parallelism (MLP), and pays a *larger* branch-misprediction
//! penalty than an in-order core because the branch-resolution time adds to
//! the front-end refill.

use crate::config::MachineConfig;
use crate::inputs::ModelInputs;
use crate::stack::{CpiStack, StackComponent};

/// Parameters of the out-of-order comparator core.
///
/// Width, front-end depth and memory latencies are shared with a
/// [`MachineConfig`]; the out-of-order-specific parameters are the reorder
/// buffer size and the achievable memory-level parallelism.
#[derive(Debug, Clone, PartialEq)]
pub struct OooConfig {
    /// The base machine (width, depth, latencies, caches, predictor).
    pub machine: MachineConfig,
    /// Reorder-buffer (instruction window) size.
    pub rob_size: u32,
    /// Average number of overlapping long data misses (MLP). 1.0 means no
    /// overlap; realistic pointer-light codes reach 1.5–3.
    pub mlp: f64,
}

impl OooConfig {
    /// A 4-wide out-of-order core matching the paper's §6.1 comparison:
    /// same front end, caches and predictor as the in-order default, with a
    /// 128-entry ROB and moderate MLP.
    pub fn default_config() -> OooConfig {
        OooConfig {
            machine: MachineConfig::default_config(),
            rob_size: 128,
            mlp: 1.8,
        }
    }

    /// Branch resolution time: the interval model charges, on top of the
    /// front-end refill `D`, the time for the mispredicted branch to reach
    /// execution — approximated as the time to drain half the window at
    /// dispatch width (Eyerman et al. model the window drain explicitly;
    /// the half-window average is the standard first-order surrogate).
    pub fn branch_resolution_cycles(&self) -> f64 {
        f64::from(self.rob_size) / (2.0 * f64::from(self.machine.width))
    }
}

/// First-order out-of-order interval model.
///
/// # Example
///
/// ```
/// use mim_core::{ModelInputs, OooConfig, OooModel};
///
/// let model = OooModel::new(OooConfig::default_config());
/// let inputs = ModelInputs::synthetic("toy", 4000);
/// let stack = model.predict(&inputs);
/// // An ideal program dispatches at full width.
/// assert!((stack.cpi() - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct OooModel {
    config: OooConfig,
}

impl OooModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if the embedded [`MachineConfig`] is invalid, the ROB is
    /// empty, or `mlp < 1`.
    pub fn new(config: OooConfig) -> OooModel {
        config.machine.validate().expect("valid machine");
        assert!(config.rob_size > 0, "ROB must be nonempty");
        assert!(config.mlp >= 1.0, "MLP cannot be below 1");
        OooModel { config }
    }

    /// The comparator configuration.
    pub fn config(&self) -> &OooConfig {
        &self.config
    }

    /// Evaluates the interval model.
    ///
    /// Interval accounting (one term per disruptive miss event):
    ///
    /// * base `N/W` — balanced dispatch between miss events;
    /// * I-cache misses — full miss latency (identical to in-order: the
    ///   penalty is front-end refill, independent of the back end, §6.1);
    /// * branch mispredictions — `D` + branch resolution time;
    /// * long (L2-miss) *load* misses — memory latency divided by MLP
    ///   (independent misses overlap in the window);
    /// * TLB walks — serializing, full latency;
    /// * dependencies, multiply/divide latencies, L1D misses and L2-hit
    ///   loads — **hidden** by out-of-order execution (charged zero); this
    ///   is precisely the contrast the paper draws in Figure 7.
    pub fn predict(&self, inputs: &ModelInputs) -> CpiStack {
        let m = &self.config.machine;
        let w = f64::from(m.width);
        let mut stack = CpiStack::new(inputs.name.clone(), inputs.num_insts);

        stack.add(StackComponent::Base, inputs.num_insts as f64 / w);

        // Front-end (instruction-side) misses behave as on in-order.
        let c = &inputs.misses;
        stack.add(
            StackComponent::IL2Access,
            c.l1i_l2_hits() as f64 * f64::from(m.l2_hit_cycles()),
        );
        stack.add(
            StackComponent::IL2Miss,
            c.l2i_misses as f64 * f64::from(m.mem_cycles()),
        );

        // Long back-end misses overlap up to the measured/assumed MLP.
        stack.add(
            StackComponent::DL2Miss,
            c.l2d_load_misses as f64 * f64::from(m.mem_cycles()) / self.config.mlp,
        );

        // TLB walks serialize execution on both core styles.
        stack.add(
            StackComponent::TlbMiss,
            (c.itlb_misses + c.dtlb_misses) as f64 * f64::from(m.tlb_walk_cycles),
        );

        // Branch mispredictions: refill + resolution.
        let penalty = f64::from(m.frontend_depth) + self.config.branch_resolution_cycles();
        stack.add(
            StackComponent::BranchMiss,
            inputs.branch.mispredicts as f64 * penalty,
        );

        // Dependencies, mul/div, L1D misses, L2-hit loads: hidden (0).
        stack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MechanisticModel;
    use mim_bpred::BranchStats;

    fn inputs_with_everything() -> ModelInputs {
        let mut inputs = ModelInputs::synthetic("mixed", 100_000);
        inputs.mix.mul = 5_000;
        inputs.mix.div = 1_000;
        inputs.mix.load = 20_000;
        inputs.deps_unit.record(1);
        inputs.deps_load.record(1);
        inputs.misses.l1d_misses = 2_000;
        inputs.misses.l2d_misses = 500;
        inputs.misses.l1d_load_misses = 2_000;
        inputs.misses.l2d_load_misses = 500;
        inputs.misses.l1i_misses = 300;
        inputs.misses.l2i_misses = 100;
        inputs.branch = BranchStats {
            branches: 10_000,
            mispredicts: 400,
            taken_correct: 5_000,
        };
        inputs
    }

    #[test]
    fn ooo_hides_dependencies_and_lls() {
        let stack = OooModel::new(OooConfig::default_config()).predict(&inputs_with_everything());
        assert_eq!(stack.dependencies(), 0.0);
        assert_eq!(stack.mul_div(), 0.0);
        assert_eq!(stack.cycles_of(StackComponent::DL2Access), 0.0);
    }

    #[test]
    fn ooo_branch_penalty_exceeds_in_order() {
        let ooo = OooModel::new(OooConfig::default_config());
        let inord = MechanisticModel::new(&MachineConfig::default_config());
        let inputs = inputs_with_everything();
        let ooo_bm = ooo.predict(&inputs).cycles_of(StackComponent::BranchMiss);
        let ino_bm = inord.predict(&inputs).cycles_of(StackComponent::BranchMiss);
        assert!(
            ooo_bm > ino_bm,
            "OoO branch cost {ooo_bm} must exceed in-order {ino_bm} (resolution time)"
        );
    }

    #[test]
    fn ooo_l2_component_is_smaller_via_mlp() {
        let ooo = OooModel::new(OooConfig::default_config());
        let inord = MechanisticModel::new(&MachineConfig::default_config());
        let inputs = inputs_with_everything();
        let ooo_l2m = ooo.predict(&inputs).l2_miss();
        let ino_l2m = inord.predict(&inputs).l2_miss();
        assert!(ooo_l2m < ino_l2m);
    }

    #[test]
    fn ooo_overall_cpi_is_lower_on_dependency_heavy_code() {
        let mut inputs = ModelInputs::synthetic("deps", 10_000);
        for _ in 0..3_000 {
            inputs.deps_unit.record(1);
        }
        let ooo = OooModel::new(OooConfig::default_config())
            .predict(&inputs)
            .cpi();
        let ino = MechanisticModel::new(&MachineConfig::default_config())
            .predict(&inputs)
            .cpi();
        assert!(ooo < ino);
    }

    #[test]
    fn icache_penalty_identical_across_core_styles() {
        // §6.1: "the I-cache miss penalty is identical on in-order and
        // out-of-order processors" (up to the in-order overlap refinement).
        let mut inputs = ModelInputs::synthetic("icache", 10_000);
        inputs.misses.l1i_misses = 100;
        inputs.misses.l2i_misses = 100;
        let ooo = OooModel::new(OooConfig::default_config()).predict(&inputs);
        let ino = MechanisticModel::new(&MachineConfig::default_config()).predict(&inputs);
        let rel = (ooo.l2_miss() - ino.l2_miss()).abs() / ino.l2_miss();
        assert!(rel < 0.01, "relative gap {rel}");
    }

    #[test]
    #[should_panic(expected = "MLP cannot be below 1")]
    fn rejects_sub_unity_mlp() {
        let mut c = OooConfig::default_config();
        c.mlp = 0.5;
        let _ = OooModel::new(c);
    }
}
