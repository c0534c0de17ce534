//! # mim-power — analytical power/energy model and EDP evaluation
//!
//! The paper's third case study (§6.3) explores the Table 2 design space
//! under the **energy-delay product** metric, using McPAT for power
//! estimates. McPAT is a large closed C++ tool; this crate substitutes an
//! analytical CMOS energy model with the same *structure sensitivities*
//! McPAT exposes at this granularity:
//!
//! * per-access energies that grow with structure size (caches and
//!   predictor tables scale like `sqrt(capacity)`, the standard
//!   CACTI-style wordline/bitline scaling),
//! * per-instruction core energy that grows with pipeline width
//!   (register-file ports and bypass network) and pipeline depth
//!   (latch count),
//! * leakage power proportional to total area,
//! * supply-voltage scaling with frequency (dynamic energy ∝ V², so the
//!   600 MHz point is cheaper per operation than the 1 GHz point).
//!
//! What Figure 9 needs from the power model is a monotone,
//! structure-sensitive E×T landscape over the design space such that the
//! model-predicted EDP ranking can be compared against the
//! detailed-simulation EDP ranking — absolute joules are irrelevant to the
//! reproduction (DESIGN.md records this substitution).
//!
//! ## Example
//!
//! ```
//! use mim_core::MachineConfig;
//! use mim_power::{Activity, EnergyModel};
//!
//! let machine = MachineConfig::default_config();
//! let model = EnergyModel::new(&machine);
//! let activity = Activity {
//!     instructions: 1_000_000,
//!     cycles: 1_250_000,
//!     l1i_accesses: 1_000_000,
//!     l1d_accesses: 300_000,
//!     l2_accesses: 20_000,
//!     mem_accesses: 2_000,
//!     mul_ops: 10_000,
//!     div_ops: 1_000,
//!     bpred_lookups: 150_000,
//! };
//! let report = model.evaluate(&activity);
//! assert!(report.total_joules() > 0.0);
//! assert!(report.edp() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mim_core::{MachineConfig, ModelInputs};
use mim_pipeline::SimResult;
use serde::{Deserialize, Serialize};

/// Event counts that drive dynamic energy.
///
/// Build one from a mechanistic-model prediction
/// ([`Activity::from_model`]) or from a detailed-simulation result
/// ([`Activity::from_sim`]); the paper compares EDP computed both ways
/// (Figure 9, "Estimated EDP" vs "Detailed EDP").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Activity {
    /// Dynamic instructions.
    pub instructions: u64,
    /// Execution cycles.
    pub cycles: u64,
    /// L1 instruction-cache accesses.
    pub l1i_accesses: u64,
    /// L1 data-cache accesses.
    pub l1d_accesses: u64,
    /// Unified L2 accesses (L1 misses).
    pub l2_accesses: u64,
    /// Main-memory accesses (L2 misses).
    pub mem_accesses: u64,
    /// Multiply operations.
    pub mul_ops: u64,
    /// Divide operations.
    pub div_ops: u64,
    /// Branch predictor lookups (conditional branches).
    pub bpred_lookups: u64,
}

impl Activity {
    /// Extracts activity counts from model inputs plus a predicted cycle
    /// count (from [`MechanisticModel::predict`]).
    ///
    /// [`MechanisticModel::predict`]: mim_core::MechanisticModel::predict
    pub fn from_model(inputs: &ModelInputs, predicted_cycles: f64) -> Activity {
        let c = &inputs.misses;
        Activity {
            instructions: inputs.num_insts,
            cycles: predicted_cycles.max(0.0).round() as u64,
            l1i_accesses: c.inst_accesses,
            l1d_accesses: c.data_accesses,
            l2_accesses: c.l1i_misses + c.l1d_misses,
            mem_accesses: c.l2i_misses + c.l2d_misses,
            mul_ops: inputs.mix.mul,
            div_ops: inputs.mix.div,
            bpred_lookups: inputs.mix.cond_branch,
        }
    }

    /// Extracts activity counts from a detailed-simulation result.
    pub fn from_sim(sim: &SimResult, inputs: &ModelInputs) -> Activity {
        let c = &sim.misses;
        Activity {
            instructions: sim.instructions,
            cycles: sim.cycles,
            l1i_accesses: c.inst_accesses,
            l1d_accesses: c.data_accesses,
            l2_accesses: c.l1i_misses + c.l1d_misses,
            mem_accesses: c.l2i_misses + c.l2d_misses,
            mul_ops: inputs.mix.mul,
            div_ops: inputs.mix.div,
            bpred_lookups: sim.branch.branches,
        }
    }
}

/// Energy breakdown of one run at one design point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Dynamic (switching) energy in joules.
    pub dynamic_joules: f64,
    /// Leakage energy in joules (leakage power × execution time).
    pub leakage_joules: f64,
    /// Execution time in seconds.
    pub time_seconds: f64,
}

impl EnergyReport {
    /// Total energy in joules.
    pub fn total_joules(&self) -> f64 {
        self.dynamic_joules + self.leakage_joules
    }

    /// Energy-delay product in joule-seconds (the §6.3 metric).
    pub fn edp(&self) -> f64 {
        self.total_joules() * self.time_seconds
    }

    /// Energy-delay-squared product in joule-seconds² — the
    /// voltage-scaling-insensitive cousin of EDP, used as an exploration
    /// objective when delay matters more than energy.
    pub fn ed2p(&self) -> f64 {
        self.total_joules() * self.time_seconds * self.time_seconds
    }
}

/// McPAT-style analytical energy model for one machine configuration.
///
/// The branch predictor's access energy and area follow its storage
/// budget, which its configuration computes from the geometry
/// ([`MachineConfig::predictor`]'s `storage_bits`); no predictor table is
/// built.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    machine: MachineConfig,
    /// Supply-voltage scale relative to the 1 GHz nominal point.
    vdd_scale: f64,
}

/// Technology constants (loosely 32 nm, the paper's node). Absolute values
/// are representative, not calibrated — EDP *ranking* across the design
/// space is what the case study uses.
mod tech {
    /// Base per-instruction core energy (decode/regfile/ALU), picojoules.
    pub const CORE_PJ: f64 = 8.0;
    /// Extra per-instruction energy per unit of width beyond 1 (ports,
    /// bypass wiring).
    pub const WIDTH_PJ: f64 = 2.5;
    /// Per-instruction pipeline-latch energy per stage.
    pub const STAGE_PJ: f64 = 0.6;
    /// Cache access energy coefficient: `pJ = COEF * sqrt(bytes * assoc) / 32`.
    pub const CACHE_COEF: f64 = 1.2;
    /// Main-memory (off-chip) access energy, picojoules.
    pub const MEM_PJ: f64 = 2_000.0;
    /// Multiply energy, picojoules.
    pub const MUL_PJ: f64 = 12.0;
    /// Divide energy, picojoules.
    pub const DIV_PJ: f64 = 45.0;
    /// Predictor lookup energy coefficient per sqrt(bit).
    pub const BPRED_COEF: f64 = 0.02;
    /// Leakage power per square-millimeter-equivalent area unit, watts.
    pub const LEAK_W_PER_AREA: f64 = 0.015;
    /// Area units: core scales with W^1.5, caches with bytes.
    pub const CORE_AREA: f64 = 1.0;
    pub(super) const CACHE_AREA_PER_KB: f64 = 0.05;
}

impl EnergyModel {
    /// Creates the model for a design point.
    ///
    /// # Panics
    ///
    /// Panics if the machine configuration is invalid.
    pub fn new(machine: &MachineConfig) -> EnergyModel {
        machine.validate().expect("valid machine");
        // Voltage scales roughly linearly toward the frequency target:
        // V(f) = 0.7 + 0.3 * f / 1 GHz (relative to nominal).
        let vdd_scale = 0.7 + 0.3 * machine.frequency_ghz;
        EnergyModel {
            machine: machine.clone(),
            vdd_scale,
        }
    }

    fn cache_access_pj(size_bytes: u64, assoc: u32) -> f64 {
        tech::CACHE_COEF * ((size_bytes as f64) * f64::from(assoc)).sqrt() / 32.0
    }

    /// Total die-area proxy (arbitrary units) for leakage.
    pub fn area_units(&self) -> f64 {
        let m = &self.machine;
        let core =
            tech::CORE_AREA * f64::from(m.width).powf(1.5) + 0.05 * f64::from(m.pipeline_stages());
        let caches = (m.hierarchy.l1i.size_bytes()
            + m.hierarchy.l1d.size_bytes()
            + m.hierarchy.l2.size_bytes()) as f64
            / 1024.0
            * tech::CACHE_AREA_PER_KB;
        let bpred_bits = m.predictor.storage_bits() as f64;
        let bpred = bpred_bits / (8.0 * 1024.0) * tech::CACHE_AREA_PER_KB;
        core + caches + bpred
    }

    /// Leakage power in watts.
    pub fn leakage_watts(&self) -> f64 {
        tech::LEAK_W_PER_AREA * self.area_units() * self.vdd_scale
    }

    /// Evaluates energy and EDP for the given activity counts.
    pub fn evaluate(&self, activity: &Activity) -> EnergyReport {
        let m = &self.machine;
        let v2 = self.vdd_scale * self.vdd_scale;

        let per_inst = tech::CORE_PJ
            + tech::WIDTH_PJ * (f64::from(m.width) - 1.0)
            + tech::STAGE_PJ * f64::from(m.pipeline_stages());
        let l1i = Self::cache_access_pj(m.hierarchy.l1i.size_bytes(), m.hierarchy.l1i.assoc());
        let l1d = Self::cache_access_pj(m.hierarchy.l1d.size_bytes(), m.hierarchy.l1d.assoc());
        let l2 = Self::cache_access_pj(m.hierarchy.l2.size_bytes(), m.hierarchy.l2.assoc());
        let bpred_bits = m.predictor.storage_bits() as f64;
        let bpred = tech::BPRED_COEF * bpred_bits.sqrt();

        let dynamic_pj = activity.instructions as f64 * per_inst
            + activity.l1i_accesses as f64 * l1i
            + activity.l1d_accesses as f64 * l1d
            + activity.l2_accesses as f64 * l2
            + activity.mem_accesses as f64 * tech::MEM_PJ
            + activity.mul_ops as f64 * tech::MUL_PJ
            + activity.div_ops as f64 * tech::DIV_PJ
            + activity.bpred_lookups as f64 * bpred;

        let time_seconds = activity.cycles as f64 * m.cycle_seconds();
        EnergyReport {
            dynamic_joules: dynamic_pj * 1e-12 * v2,
            leakage_joules: self.leakage_watts() * time_seconds,
            time_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_activity() -> Activity {
        Activity {
            instructions: 1_000_000,
            cycles: 1_200_000,
            l1i_accesses: 1_000_000,
            l1d_accesses: 350_000,
            l2_accesses: 15_000,
            mem_accesses: 1_500,
            mul_ops: 20_000,
            div_ops: 2_000,
            bpred_lookups: 120_000,
        }
    }

    #[test]
    fn energy_is_positive_and_decomposes() {
        let m = MachineConfig::default_config();
        let r = EnergyModel::new(&m).evaluate(&base_activity());
        assert!(r.dynamic_joules > 0.0);
        assert!(r.leakage_joules > 0.0);
        assert!((r.total_joules() - r.dynamic_joules - r.leakage_joules).abs() < 1e-18);
        assert!(r.edp() > 0.0);
        assert!((r.ed2p() - r.edp() * r.time_seconds).abs() < 1e-24);
    }

    #[test]
    fn wider_cores_cost_more_energy_per_instruction() {
        let a = base_activity();
        let mut narrow = MachineConfig::default_config();
        narrow.width = 1;
        let mut wide = MachineConfig::default_config();
        wide.width = 4;
        let en = EnergyModel::new(&narrow).evaluate(&a);
        let ew = EnergyModel::new(&wide).evaluate(&a);
        assert!(ew.dynamic_joules > en.dynamic_joules);
    }

    #[test]
    fn bigger_l2_costs_more_per_access_and_leakage() {
        use mim_cache::CacheConfig;
        let a = base_activity();
        let mut small = MachineConfig::default_config();
        small.hierarchy = small.hierarchy.clone().with_l2(
            CacheConfig::new("L2", 128 * 1024, 8, 64).expect("128 KB 8-way is a valid L2 geometry"),
        );
        let big = MachineConfig::default_config(); // 512 KB
        let es = EnergyModel::new(&small).evaluate(&a);
        let eb = EnergyModel::new(&big).evaluate(&a);
        assert!(eb.total_joules() > es.total_joules());
    }

    #[test]
    fn lower_frequency_trades_time_for_energy() {
        let a = base_activity();
        let mut slow = MachineConfig::default_config();
        slow.frequency_ghz = 0.6;
        slow.frontend_depth = 2;
        let fast = MachineConfig::default_config();
        let es = EnergyModel::new(&slow).evaluate(&a);
        let ef = EnergyModel::new(&fast).evaluate(&a);
        // Same cycle count at lower frequency: more seconds, less dynamic
        // energy (V² scaling).
        assert!(es.time_seconds > ef.time_seconds);
        assert!(es.dynamic_joules < ef.dynamic_joules);
    }

    #[test]
    fn memory_accesses_dominate_when_abundant() {
        let m = MachineConfig::default_config();
        let model = EnergyModel::new(&m);
        let mut quiet = base_activity();
        quiet.mem_accesses = 0;
        let mut thrash = base_activity();
        thrash.mem_accesses = 500_000;
        let eq = model.evaluate(&quiet);
        let et = model.evaluate(&thrash);
        assert!(et.dynamic_joules > 2.0 * eq.dynamic_joules);
    }

    #[test]
    fn activity_from_model_and_sim_have_same_shape() {
        let inputs = ModelInputs::synthetic("t", 1000);
        let a = Activity::from_model(&inputs, 250.0);
        assert_eq!(a.instructions, 1000);
        assert_eq!(a.cycles, 250);
        assert_eq!(a.mul_ops, 0);
    }
}
