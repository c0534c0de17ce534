//! # mim-core — the mechanistic performance model
//!
//! This crate implements the primary contribution of *"A Mechanistic
//! Performance Model for Superscalar In-Order Processors"* (Breughe,
//! Eyerman & Eeckhout, ISPASS 2012): an analytical model that predicts the
//! execution time of a program on a W-wide superscalar in-order processor
//! from one-time profile statistics, with no simulation in the loop:
//!
//! ```text
//! T = N/W + P_misses + P_LL + P_deps          (paper Eq. 1)
//! ```
//!
//! * [`MachineConfig`] — machine parameters (width, front-end depth,
//!   latencies, cache hierarchy, branch predictor); [`DesignSpace`]
//!   enumerates the paper's 192-point space (Table 2).
//! * [`ModelInputs`] — the program and program–machine statistics of
//!   Table 1 (instruction mix, dependency-distance profiles, miss counts).
//! * [`MechanisticModel`] — evaluates Eq. 1–16 and returns a [`CpiStack`]
//!   that splits CPI into its mechanistic components (base, multiply/divide,
//!   cache and TLB misses, branch penalties, dependency stalls).
//! * [`OooModel`] — a first-order out-of-order interval model in the style
//!   of Eyerman et al. (reference \[8\]), used by the paper's first case
//!   study (§6.1) to contrast in-order and out-of-order CPI stacks.
//!
//! The model evaluates in microseconds per design point, which is what
//! enables the paper's design-space exploration speedup of three orders of
//! magnitude over detailed simulation (§5).
//!
//! ## Example
//!
//! ```
//! use mim_core::{MachineConfig, MechanisticModel, ModelInputs};
//!
//! let machine = MachineConfig::default_config();
//! let model = MechanisticModel::new(&machine);
//!
//! // A tiny synthetic profile: 1000 instructions, all unit-latency ALU,
//! // no misses, no dependencies.
//! let inputs = ModelInputs::synthetic("toy", 1000);
//! let stack = model.predict(&inputs);
//! assert!((stack.cpi() - 0.25).abs() < 1e-12); // N/W on a 4-wide machine
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod inputs;
mod model;
mod ooo;
mod rng;
mod stack;

pub use config::{ConfigError, DesignPoint, DesignSpace, MachineConfig};

/// Converts a cycle count at `frequency_ghz` into wall-clock seconds.
///
/// The single authoritative frequency→seconds conversion: every
/// `time_seconds`-style accessor across the workspace
/// ([`CpiStack::time_seconds`], `SimResult::time_seconds`,
/// `EvalResult::time_seconds`, [`MachineConfig::cycle_seconds`]) delegates
/// here rather than hand-rolling `cycles * 1e-9 / ghz`.
#[inline]
pub fn cycles_to_seconds(cycles: f64, frequency_ghz: f64) -> f64 {
    cycles * 1e-9 / frequency_ghz
}
pub use inputs::{DepHistogram, InstMix, ModelInputs, MAX_DEP_DISTANCE};
pub use model::MechanisticModel;
pub use ooo::{OooConfig, OooModel};
pub use rng::SplitMix64;
pub use stack::{CpiStack, CpiTimeline, StackComponent};
