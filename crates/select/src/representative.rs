//! Representative-input selection: cluster medoids plus cluster weights.

use serde::{Deserialize, Serialize};

use crate::cluster::{choose_k, FeaturePoint, KMedoids, KSelection};
use crate::error::SelectError;
use crate::signature::Signature;

/// The selection policy: seeded k-medoids over Euclidean distance, with
/// `k` chosen by [`KSelection`] under a subset-size cap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Selection {
    /// How `k` is chosen.
    pub k: KSelection,
    /// Hard cap on the representative fraction of the suite (the paper's
    /// economy: a subset that isn't much smaller than the suite buys
    /// nothing). `k` never exceeds `floor(max_fraction × n)` (but is
    /// always at least 1), so the selected fraction never exceeds the
    /// budget.
    pub max_fraction: f64,
}

impl Default for Selection {
    /// Silhouette-selected `k`, capped at 25% of the suite.
    fn default() -> Selection {
        Selection {
            k: KSelection::Silhouette { max_k: 0 },
            max_fraction: 0.25,
        }
    }
}

/// One selected representative: a cluster medoid, the workloads it
/// stands in for (itself included), and the weight its measurements
/// carry when extrapolating suite-wide metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Representative {
    /// Medoid workload name.
    pub name: String,
    /// Cluster share of the suite (`members.len() / n`); weights across
    /// the set sum to 1.
    pub weight: f64,
    /// Names of every workload in the cluster, sorted.
    pub members: Vec<String>,
}

/// The representative subset of a suite: one medoid per cluster with
/// cluster-share weights, plus the provenance needed to reproduce it.
///
/// # Example
///
/// ```no_run
/// use mim_runner::{WorkloadSpec, WorkloadStore};
/// use mim_select::{RepresentativeSet, Selection, Signature};
/// use mim_workloads::{mibench, WorkloadSize};
///
/// let store = WorkloadStore::new();
/// let signatures: Vec<Signature> = mibench::all()
///     .into_iter()
///     .map(|w| {
///         let spec = WorkloadSpec::from(w);
///         Signature::extract(&store, &spec, WorkloadSize::Tiny, None).unwrap()
///     })
///     .collect();
/// let set = RepresentativeSet::select(&signatures, &Selection::default()).unwrap();
/// assert!(set.len() <= (signatures.len() + 3) / 4, "≤ 25% of the suite");
/// let total: f64 = set.weights().iter().sum();
/// assert!((total - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepresentativeSet {
    /// Clustering algorithm used (display name, e.g.
    /// `kmedoids-s1835625811`).
    pub method: String,
    /// Distance used (always `euclidean`).
    pub distance: String,
    /// Number of clusters (= number of representatives).
    pub k: usize,
    /// Mean silhouette of the winning clustering.
    pub silhouette: f64,
    /// The representatives, ordered by medoid name.
    pub representatives: Vec<Representative>,
}

impl RepresentativeSet {
    /// Clusters the signatures and selects one weighted medoid per
    /// cluster.
    ///
    /// # Errors
    ///
    /// Returns a [`SelectError`] for an empty suite, duplicate names, or
    /// an unsatisfiable `k` policy.
    pub fn select(
        signatures: &[Signature],
        selection: &Selection,
    ) -> Result<RepresentativeSet, SelectError> {
        if signatures.is_empty() {
            return Err(SelectError::config("no signatures to select from"));
        }
        if !(0.0..=1.0).contains(&selection.max_fraction) {
            return Err(SelectError::config(format!(
                "max_fraction {} outside [0, 1]",
                selection.max_fraction
            )));
        }
        let n = signatures.len();
        let cap = ((selection.max_fraction * n as f64).floor() as usize).clamp(1, n);
        let points: Vec<FeaturePoint> = signatures
            .iter()
            .map(|s| FeaturePoint::new(s.name.clone(), s.feature_vector()))
            .collect();
        let kmedoids = KMedoids::new();
        let (clusters, silhouette) = choose_k(&kmedoids, &points, &selection.k, cap)?;
        let representatives = clusters
            .members
            .iter()
            .zip(&clusters.medoids)
            .map(|(members, &medoid)| Representative {
                name: signatures[medoid].name.clone(),
                weight: members.len() as f64 / n as f64,
                members: members
                    .iter()
                    .map(|&m| signatures[m].name.clone())
                    .collect(),
            })
            .collect();
        Ok(RepresentativeSet {
            method: kmedoids.name(),
            distance: "euclidean".to_string(),
            k: clusters.k,
            silhouette,
            representatives,
        })
    }

    /// Number of representatives.
    pub fn len(&self) -> usize {
        self.representatives.len()
    }

    /// True when no representatives were selected (never, post-`select`).
    pub fn is_empty(&self) -> bool {
        self.representatives.is_empty()
    }

    /// Representative names, in set order.
    pub fn names(&self) -> Vec<&str> {
        self.representatives
            .iter()
            .map(|r| r.name.as_str())
            .collect()
    }

    /// Representative weights, in set order (sum to 1).
    pub fn weights(&self) -> Vec<f64> {
        self.representatives.iter().map(|r| r.weight).collect()
    }

    /// Total workloads represented (the suite size `n`).
    pub fn suite_len(&self) -> usize {
        self.representatives.iter().map(|r| r.members.len()).sum()
    }

    /// The subset's share of the suite, `k / n`.
    pub fn fraction(&self) -> f64 {
        self.len() as f64 / self.suite_len().max(1) as f64
    }

    /// Extrapolates a suite-wide mean from per-representative values:
    /// `Σ weight(r) × value(r)` — the weighted stand-in for the uniform
    /// mean over the whole suite.
    pub fn weighted_mean(&self, mut value: impl FnMut(&str) -> f64) -> f64 {
        self.representatives
            .iter()
            .map(|r| r.weight * value(&r.name))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_signature(name: &str, load: f64, transition: f64) -> Signature {
        Signature {
            name: name.to_string(),
            num_insts: 10_000,
            frac_alu: 1.0 - load,
            frac_mul: 0.0,
            frac_div: 0.0,
            frac_load: load,
            frac_store: 0.0,
            frac_branch: 0.0,
            frac_jump: 0.0,
            branch_taken_rate: 0.5,
            branch_transition_rate: transition,
            footprint_blocks: 64,
            cold_fraction: 0.1,
            reuse_p50: 2.0,
            reuse_p90: 4.0,
            reuse_p99: 6.0,
            mean_dep_distance: 4.0,
            short_dep_fraction: 0.5,
            mlp: 1.0,
        }
    }

    fn suite() -> Vec<Signature> {
        vec![
            synthetic_signature("compute1", 0.05, 0.0),
            synthetic_signature("compute2", 0.06, 0.02),
            synthetic_signature("memory1", 0.45, 0.0),
            synthetic_signature("memory2", 0.44, 0.01),
            synthetic_signature("memory3", 0.46, 0.0),
            synthetic_signature("branchy1", 0.05, 0.9),
            synthetic_signature("branchy2", 0.06, 0.92),
            synthetic_signature("branchy3", 0.04, 0.88),
        ]
    }

    #[test]
    fn selection_groups_alike_workloads_and_weights_sum_to_one() {
        let signatures = suite();
        let set = RepresentativeSet::select(
            &signatures,
            &Selection {
                k: KSelection::Fixed(3),
                max_fraction: 0.5,
            },
        )
        .unwrap();
        assert_eq!(set.k, 3);
        assert!((set.weights().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(set.suite_len(), signatures.len());
        // Each behavioural family elects exactly one representative.
        let compute = set
            .representatives
            .iter()
            .find(|r| r.members.iter().any(|m| m.starts_with("compute")))
            .expect("a compute cluster");
        assert!(compute.members.iter().all(|m| m.starts_with("compute")));
        assert!((compute.weight - 2.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn max_fraction_caps_the_subset() {
        let signatures = suite();
        let set = RepresentativeSet::select(
            &signatures,
            &Selection {
                k: KSelection::Fixed(6),
                max_fraction: 0.25,
            },
        )
        .unwrap();
        assert_eq!(set.k, 2, "6 requested, but 25% of 8 caps at 2");
        assert!(set.fraction() <= 0.25 + 1e-12);
    }

    #[test]
    fn weighted_mean_extrapolates() {
        let signatures = suite();
        let set = RepresentativeSet::select(
            &signatures,
            &Selection {
                k: KSelection::Fixed(3),
                max_fraction: 0.5,
            },
        )
        .unwrap();
        // A constant metric extrapolates to itself.
        assert!((set.weighted_mean(|_| 2.5) - 2.5).abs() < 1e-12);
    }
}
