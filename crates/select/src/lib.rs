//! # mim-select — workload characterization, clustering, and
//! representative-input selection
//!
//! The paper's economy is spending detailed simulation only where it
//! pays. This crate extends that economy to the *workload* axis, in the
//! Breughe/Eeckhout tradition of selecting representative benchmark
//! inputs: most suites contain near-duplicate behaviours, so a design-
//! space study that runs every workload mostly re-measures what it
//! already knows.
//!
//! * [`Signature`] — a microarchitecture-independent characterization of
//!   one workload (instruction-mix fractions, branch taken/transition
//!   rates, reuse-distance percentiles, dependency-distance ILP, MLP),
//!   extracted from the recorded [`Trace`](mim_trace::Trace) and one-pass
//!   [`WorkloadProfile`](mim_profile::WorkloadProfile) every sweep
//!   already produces — characterization adds **zero** extra functional
//!   executions.
//! * [`KMedoids`] — deterministic, seeded PAM-style k-medoids over
//!   Euclidean distance on the normalized feature vector; [`KSelection`]
//!   picks `k` by silhouette or fixes it.
//! * [`RepresentativeSet`] — one medoid per cluster with cluster-share
//!   weights (summing to 1), the stand-in for the whole suite.
//! * [`SubsetRun`] — the driver: characterize, cluster, sweep the design
//!   space on the representatives only (through
//!   [`Experiment`](mim_runner::Experiment) and the weighted
//!   [`Exploration`](mim_explore::Exploration) path), and report
//!   weighted-extrapolated CPI, rank fidelity, frontier recall, and a
//!   sim-verified error bound ([`SubsetReport`]).
//!
//! ## Example: a 4× cheaper sweep with a quantified error bound
//!
//! ```no_run
//! use mim_core::DesignSpace;
//! use mim_select::SubsetRun;
//! use mim_workloads::{mibench, WorkloadSize};
//!
//! let report = SubsetRun::new(DesignSpace::paper_table2())
//!     .workloads(mibench::all())
//!     .size(WorkloadSize::Small)
//!     .verify(true)   // run the exhaustive reference too (for the study)
//!     .sim_probes(2)  // sim-verify the extrapolation error at 2 points
//!     .run()
//!     .expect("subset run");
//! let verify = report.verify.as_ref().expect("verification enabled");
//! println!(
//!     "{}/{} workloads, rank tau {:.3}, sim-verified error ≤ {:.1}%",
//!     report.selection.k,
//!     report.workloads.len(),
//!     verify.rank_tau,
//!     report.sim_probe.as_ref().expect("probes enabled").bound_percent,
//! );
//! ```
//!
//! Reports serialize to byte-identical JSON for any thread count,
//! matching the `ExperimentReport`/`ExplorationReport` guarantee.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod error;
mod representative;
mod signature;
mod subset;

pub use cluster::{choose_k, silhouette, Clusters, FeaturePoint, KMedoids, KSelection};
pub use error::SelectError;
pub use representative::{Representative, RepresentativeSet, Selection};
pub use signature::Signature;
pub use subset::{SimProbe, SubsetFrontier, SubsetReport, SubsetRun, SubsetTiming, SubsetVerify};
