//! Property tests for the clustering layer: permutation invariance,
//! seed determinism, non-empty clusters, weight normalization, and
//! silhouette bounds.

use mim_select::{
    silhouette, Clusters, FeaturePoint, KMedoids, KSelection, RepresentativeSet, Selection,
    Signature,
};
use proptest::prelude::*;

/// Deterministic shuffle driven by a seed (SplitMix64 + Fisher–Yates).
fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut rng = mim_core::SplitMix64::new(seed);
    let mut shuffled: Vec<T> = items.to_vec();
    for i in (1..shuffled.len()).rev() {
        let j = rng.below(i + 1);
        shuffled.swap(i, j);
    }
    shuffled
}

/// Coarse-grid points (plenty of duplicates and ties) with unique names.
fn points_from(raw: &[(u32, u32, u32)]) -> Vec<FeaturePoint> {
    raw.iter()
        .enumerate()
        .map(|(i, &(a, b, c))| {
            FeaturePoint::new(
                format!("w{i:03}"),
                vec![f64::from(a) / 8.0, f64::from(b) / 8.0, f64::from(c) / 8.0],
            )
        })
        .collect()
}

/// The canonical content of a clustering: per cluster, the medoid name
/// and the sorted member names — the representation that must be
/// invariant under input permutation.
fn canonical(points: &[FeaturePoint], clusters: &Clusters) -> Vec<(String, Vec<String>)> {
    clusters
        .members
        .iter()
        .zip(&clusters.medoids)
        .map(|(members, &medoid)| {
            (
                points[medoid].name.clone(),
                members.iter().map(|&m| points[m].name.clone()).collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// K-medoids under a fixed seed is byte-deterministic and invariant
    /// to the order workloads are handed in, and never produces an empty
    /// cluster.
    #[test]
    fn kmedoids_is_permutation_invariant_and_deterministic(
        raw in proptest::collection::vec((0u32..9, 0u32..9, 0u32..9), 2..40),
        k in 1usize..6,
        shuffle_seed in 0u64..1_000_000,
    ) {
        let points = points_from(&raw);
        let k = k.min(points.len());
        let algorithm = KMedoids::new().seed(42);
        let first = algorithm.cluster(&points, k).unwrap();
        // Byte determinism: the identical call yields identical JSON.
        let again = algorithm.cluster(&points, k).unwrap();
        prop_assert_eq!(
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
        // Every cluster is non-empty and owns its medoid.
        prop_assert_eq!(first.members.len(), k);
        for (c, members) in first.members.iter().enumerate() {
            prop_assert!(!members.is_empty());
            prop_assert!(members.contains(&first.medoids[c]));
        }
        // Permutation invariance: clustering the shuffled suite yields
        // the same medoid names and member name-sets.
        let permuted = shuffled(&points, shuffle_seed);
        let second = algorithm.cluster(&permuted, k).unwrap();
        prop_assert_eq!(canonical(&points, &first), canonical(&permuted, &second));
    }

    /// Silhouette scores always land in [-1, 1], whatever the clustering.
    #[test]
    fn silhouette_is_bounded(
        raw in proptest::collection::vec((0u32..9, 0u32..9, 0u32..9), 2..30),
        k in 1usize..6,
    ) {
        let points = points_from(&raw);
        let k = k.min(points.len());
        let clusters = KMedoids::new().cluster(&points, k).unwrap();
        let score = silhouette(&points, &clusters);
        prop_assert!((-1.0..=1.0).contains(&score), "silhouette {}", score);
    }

    /// Representative weights always sum to 1 within 1e-12, and the
    /// subset respects the size cap.
    #[test]
    fn representative_weights_sum_to_one(
        raw in proptest::collection::vec((0u32..9, 0u32..9, 0u32..9), 4..40),
        fixed_k in 1usize..8,
    ) {
        let signatures: Vec<Signature> = points_from(&raw)
            .into_iter()
            .map(|p| Signature {
                name: p.name,
                num_insts: 1000,
                frac_alu: p.features[0],
                frac_mul: 0.0,
                frac_div: 0.0,
                frac_load: p.features[1],
                frac_store: 0.0,
                frac_branch: p.features[2],
                frac_jump: 0.0,
                branch_taken_rate: 0.5,
                branch_transition_rate: p.features[0],
                footprint_blocks: 100,
                cold_fraction: 0.1,
                reuse_p50: 1.0,
                reuse_p90: 2.0,
                reuse_p99: 3.0,
                mean_dep_distance: 4.0,
                short_dep_fraction: 0.4,
                mlp: 1.5,
            })
            .collect();
        let selection = Selection {
            k: KSelection::Fixed(fixed_k),
            max_fraction: 0.5,
        };
        let set = RepresentativeSet::select(&signatures, &selection).unwrap();
        let total: f64 = set.weights().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-12, "weights sum to {}", total);
        prop_assert!(set.len() <= signatures.len().div_ceil(2), "cap violated");
        prop_assert_eq!(set.suite_len(), signatures.len());
        prop_assert!((-1.0..=1.0).contains(&set.silhouette));
    }
}
