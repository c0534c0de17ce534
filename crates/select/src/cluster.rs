//! Deterministic clustering over signature feature vectors.
//!
//! Seeded [`KMedoids`] (PAM-style alternation) over Euclidean distance.
//! It is **order-canonical**: points are processed in name order
//! internally, every tie is broken by name, and clusters come back
//! ordered by medoid name — so the same suite clusters identically no
//! matter how the caller happened to enumerate it, and a fixed seed
//! reproduces byte-identical reports.

use mim_core::SplitMix64;
use serde::{Deserialize, Serialize};

use crate::error::SelectError;

/// A named point in signature feature space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeaturePoint {
    /// Workload name (must be unique within a clustering).
    pub name: String,
    /// Normalized feature vector.
    pub features: Vec<f64>,
}

impl FeaturePoint {
    /// Creates a feature point.
    pub fn new(name: impl Into<String>, features: Vec<f64>) -> FeaturePoint {
        FeaturePoint {
            name: name.into(),
            features,
        }
    }
}

/// The outcome of one clustering: `k` non-empty clusters over the input
/// points, each with a medoid (the member minimizing total intra-cluster
/// distance).
///
/// Indices refer to the *input* point slice. Clusters are ordered by
/// medoid name and members within a cluster by name, so the structure is
/// identical for any permutation of the same input set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Clusters {
    /// Number of clusters.
    pub k: usize,
    /// Per input point: the id of the cluster it belongs to.
    pub assignments: Vec<usize>,
    /// Per cluster: member point indices, ordered by name.
    pub members: Vec<Vec<usize>>,
    /// Per cluster: the medoid's point index.
    pub medoids: Vec<usize>,
}

/// Straight-line (L2) distance between two normalized feature vectors.
fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// The name-sorted view k-medoids operates on, plus the full pairwise
/// Euclidean distance matrix (suites are tens-to-hundreds of workloads, so
/// the O(n²) matrix is the cheap part).
struct Prepared {
    /// `order[s]` = input index of the s-th point in name order.
    order: Vec<usize>,
    /// Row-major n×n distances between sorted-view points.
    matrix: Vec<f64>,
    n: usize,
}

impl Prepared {
    fn build(points: &[FeaturePoint]) -> Result<Prepared, SelectError> {
        if points.is_empty() {
            return Err(SelectError::config("no points to cluster"));
        }
        let features = points[0].features.len();
        for p in points {
            if p.features.len() != features {
                return Err(SelectError::config(format!(
                    "feature vector of `{}` has length {} (expected {features})",
                    p.name,
                    p.features.len()
                )));
            }
            if p.features.iter().any(|v| !v.is_finite()) {
                return Err(SelectError::config(format!(
                    "feature vector of `{}` contains a non-finite value",
                    p.name
                )));
            }
        }
        let mut order: Vec<usize> = (0..points.len()).collect();
        order.sort_by(|&a, &b| points[a].name.cmp(&points[b].name));
        for pair in order.windows(2) {
            if points[pair[0]].name == points[pair[1]].name {
                return Err(SelectError::config(format!(
                    "duplicate workload name `{}`",
                    points[pair[0]].name
                )));
            }
        }
        let n = order.len();
        let mut matrix = vec![0.0; n * n];
        for s in 0..n {
            for t in (s + 1)..n {
                let d = euclidean(&points[order[s]].features, &points[order[t]].features);
                matrix[s * n + t] = d;
                matrix[t * n + s] = d;
            }
        }
        Ok(Prepared { order, matrix, n })
    }

    fn dist(&self, s: usize, t: usize) -> f64 {
        self.matrix[s * self.n + t]
    }

    /// The member (sorted-view index) minimizing total distance to the
    /// cluster, ties broken toward the smaller (name-earlier) index.
    fn medoid_of(&self, members: &[usize]) -> usize {
        *members
            .iter()
            .min_by(|&&a, &&b| {
                let cost_a: f64 = members.iter().map(|&m| self.dist(a, m)).sum();
                let cost_b: f64 = members.iter().map(|&m| self.dist(b, m)).sum();
                cost_a.partial_cmp(&cost_b).unwrap().then(a.cmp(&b))
            })
            .expect("cluster is non-empty")
    }

    /// Converts sorted-view clusters (each a sorted member list) into the
    /// canonical [`Clusters`] over input indices.
    fn finish(&self, mut clusters: Vec<Vec<usize>>) -> Clusters {
        let medoids_sorted: Vec<usize> = clusters.iter().map(|c| self.medoid_of(c)).collect();
        // Canonical cluster order: ascending medoid (name order).
        let mut ids: Vec<usize> = (0..clusters.len()).collect();
        ids.sort_by_key(|&c| medoids_sorted[c]);
        let mut assignments = vec![0usize; self.n];
        let mut members = Vec::with_capacity(clusters.len());
        let mut medoids = Vec::with_capacity(clusters.len());
        for (new_id, &old_id) in ids.iter().enumerate() {
            for &s in &clusters[old_id] {
                assignments[self.order[s]] = new_id;
            }
            medoids.push(self.order[medoids_sorted[old_id]]);
            members.push(
                std::mem::take(&mut clusters[old_id])
                    .into_iter()
                    .map(|s| self.order[s])
                    .collect(),
            );
        }
        Clusters {
            k: members.len(),
            assignments,
            members,
            medoids,
        }
    }
}

/// Seeded, deterministic k-medoids (PAM-style alternation): seeded
/// farthest-point initialization, then alternate nearest-medoid
/// assignment and per-cluster medoid updates until the medoid set is
/// stable. The same seed over the same point *set* — in any order —
/// produces the identical clustering.
///
/// # Example
///
/// ```
/// use mim_select::{FeaturePoint, KMedoids};
///
/// let points = vec![
///     FeaturePoint::new("a1", vec![0.0, 0.0]),
///     FeaturePoint::new("a2", vec![0.1, 0.0]),
///     FeaturePoint::new("b1", vec![1.0, 1.0]),
///     FeaturePoint::new("b2", vec![0.9, 1.0]),
/// ];
/// let clusters = KMedoids::new().cluster(&points, 2).unwrap();
/// assert_eq!(clusters.k, 2);
/// assert_eq!(clusters.assignments[0], clusters.assignments[1]);
/// assert_ne!(clusters.assignments[0], clusters.assignments[2]);
/// ```
#[derive(Debug, Clone)]
pub struct KMedoids {
    seed: u64,
    max_iters: usize,
}

impl Default for KMedoids {
    fn default() -> KMedoids {
        KMedoids::new()
    }
}

impl KMedoids {
    /// A k-medoids instance with the default seed.
    pub fn new() -> KMedoids {
        KMedoids {
            seed: 0x6d69_6d53,
            max_iters: 64,
        }
    }

    /// Reseeds the initialization stream.
    pub fn seed(mut self, seed: u64) -> KMedoids {
        self.seed = seed;
        self
    }

    /// Display name recorded in reports.
    pub fn name(&self) -> String {
        format!("kmedoids-s{}", self.seed)
    }

    /// Partitions `points` into exactly `k` non-empty clusters.
    ///
    /// # Errors
    ///
    /// Returns a [`SelectError`] for an empty input, duplicate names,
    /// ragged or non-finite features, `k == 0`, or `k` exceeding the
    /// point count.
    pub fn cluster(&self, points: &[FeaturePoint], k: usize) -> Result<Clusters, SelectError> {
        self.cluster_prepared(&Prepared::build(points)?, k)
    }

    /// The PAM alternation over an already-built preparation.
    fn cluster_prepared(&self, prepared: &Prepared, k: usize) -> Result<Clusters, SelectError> {
        let n = prepared.n;
        if k == 0 || k > n {
            return Err(SelectError::config(format!(
                "k = {k} for {n} points (need 1 ..= {n})"
            )));
        }
        // Seeded farthest-point init: one random anchor, then repeatedly
        // the point farthest from its nearest chosen medoid (ties toward
        // the name-earlier point).
        let mut rng = SplitMix64::new(self.seed);
        let mut medoids = vec![rng.below(n)];
        while medoids.len() < k {
            let next = (0..n)
                .filter(|s| !medoids.contains(s))
                .max_by(|&a, &b| {
                    let da = medoids
                        .iter()
                        .map(|&m| prepared.dist(a, m))
                        .fold(f64::MAX, f64::min);
                    let db = medoids
                        .iter()
                        .map(|&m| prepared.dist(b, m))
                        .fold(f64::MAX, f64::min);
                    da.partial_cmp(&db).unwrap().then(b.cmp(&a))
                })
                .expect("k <= n leaves an unchosen point");
            medoids.push(next);
        }
        medoids.sort_unstable();

        let mut clusters: Vec<Vec<usize>> = Vec::new();
        for _ in 0..self.max_iters {
            // Assign: nearest medoid, ties toward the name-earlier medoid;
            // a medoid always anchors its own cluster.
            clusters = vec![Vec::new(); k];
            for s in 0..n {
                let home = match medoids.iter().position(|&m| m == s) {
                    Some(position) => position,
                    None => (0..k)
                        .min_by(|&a, &b| {
                            prepared
                                .dist(s, medoids[a])
                                .partial_cmp(&prepared.dist(s, medoids[b]))
                                .unwrap()
                                .then(medoids[a].cmp(&medoids[b]))
                        })
                        .expect("k >= 1"),
                };
                clusters[home].push(s);
            }
            // Update: each cluster's best medoid.
            let mut updated: Vec<usize> = clusters.iter().map(|c| prepared.medoid_of(c)).collect();
            updated.sort_unstable();
            if updated == medoids {
                break;
            }
            medoids = updated;
        }
        Ok(prepared.finish(clusters))
    }
}

/// Mean silhouette coefficient of a clustering: `(b − a) / max(a, b)`
/// per point, where `a` is the mean distance to the point's own cluster
/// and `b` the smallest mean distance to another cluster. Always in
/// `[-1, 1]`; singleton clusters contribute 0, and a single-cluster
/// partition scores 0 by convention (as does degenerate input a
/// clustering could never have produced — duplicate names, ragged or
/// non-finite features).
pub fn silhouette(points: &[FeaturePoint], clusters: &Clusters) -> f64 {
    match Prepared::build(points) {
        Ok(prepared) => silhouette_prepared(&prepared, clusters),
        Err(_) => 0.0,
    }
}

/// [`silhouette`] over an already-built preparation: all distances come
/// from the matrix, so an auto-`k` sweep pays for pairwise distances
/// once, not once per candidate `k`.
fn silhouette_prepared(prepared: &Prepared, clusters: &Clusters) -> f64 {
    let n = prepared.n;
    if clusters.k < 2 || n < 2 {
        return 0.0;
    }
    // Inverse of `order`: sorted-view index of each input point.
    let mut sorted_of = vec![0usize; n];
    for (s, &input) in prepared.order.iter().enumerate() {
        sorted_of[input] = s;
    }
    let mut total = 0.0;
    for i in 0..n {
        let own = clusters.assignments[i];
        if clusters.members[own].len() < 2 {
            continue; // singleton: s = 0 contribution
        }
        let si = sorted_of[i];
        let mean_to = |cluster: &[usize], exclude: Option<usize>| -> f64 {
            let mut sum = 0.0;
            let mut count = 0usize;
            for &m in cluster {
                if Some(m) == exclude {
                    continue;
                }
                sum += prepared.dist(si, sorted_of[m]);
                count += 1;
            }
            sum / count.max(1) as f64
        };
        let a = mean_to(&clusters.members[own], Some(i));
        let b = (0..clusters.k)
            .filter(|&c| c != own)
            .map(|c| mean_to(&clusters.members[c], None))
            .fold(f64::MAX, f64::min);
        let denom = a.max(b);
        if denom > 0.0 {
            total += (b - a) / denom;
        }
    }
    total / n as f64
}

/// How `k` is chosen.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum KSelection {
    /// Use exactly this many clusters (capped by the subset-size budget).
    Fixed(usize),
    /// Maximize the mean silhouette over `2 ..= max_k` (`max_k = 0`
    /// means "up to the subset-size budget"); ties prefer fewer
    /// clusters.
    Silhouette {
        /// Largest `k` to consider (0 = derive from the budget).
        max_k: usize,
    },
}

/// Runs k-medoids for the `k` the selection policy picks (never more than
/// `cap`), returning the winning clustering and its silhouette. One
/// distance matrix serves every candidate `k`.
///
/// # Errors
///
/// Propagates clustering errors; `cap == 0` is a configuration error.
pub fn choose_k(
    kmedoids: &KMedoids,
    points: &[FeaturePoint],
    selection: &KSelection,
    cap: usize,
) -> Result<(Clusters, f64), SelectError> {
    if cap == 0 {
        return Err(SelectError::config("subset budget allows zero clusters"));
    }
    let cap = cap.min(points.len());
    let prepared = Prepared::build(points)?;
    let run = |k: usize| -> Result<(Clusters, f64), SelectError> {
        let clusters = kmedoids.cluster_prepared(&prepared, k)?;
        let score = silhouette_prepared(&prepared, &clusters);
        Ok((clusters, score))
    };
    match *selection {
        KSelection::Fixed(k) => {
            if k == 0 {
                return Err(SelectError::config("fixed k must be at least 1"));
            }
            run(k.min(cap))
        }
        KSelection::Silhouette { max_k } => {
            let hi = if max_k == 0 { cap } else { max_k.min(cap) };
            if hi < 2 {
                return run(hi.max(1));
            }
            let mut best: Option<(Clusters, f64)> = None;
            for k in 2..=hi {
                let (clusters, score) = run(k)?;
                if best.as_ref().is_none_or(|(_, s)| score > *s) {
                    best = Some((clusters, score));
                }
            }
            Ok(best.expect("2..=hi is non-empty"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Vec<FeaturePoint> {
        vec![
            FeaturePoint::new("a1", vec![0.0, 0.0]),
            FeaturePoint::new("a2", vec![0.05, 0.0]),
            FeaturePoint::new("a3", vec![0.0, 0.05]),
            FeaturePoint::new("b1", vec![1.0, 1.0]),
            FeaturePoint::new("b2", vec![0.95, 1.0]),
            FeaturePoint::new("c1", vec![0.0, 1.0]),
        ]
    }

    #[test]
    fn kmedoids_recovers_blobs() {
        let points = blobs();
        let clusters = KMedoids::new().cluster(&points, 3).unwrap();
        assert_eq!(clusters.k, 3);
        assert_eq!(clusters.assignments[0], clusters.assignments[1]);
        assert_eq!(clusters.assignments[0], clusters.assignments[2]);
        assert_eq!(clusters.assignments[3], clusters.assignments[4]);
        assert_ne!(clusters.assignments[0], clusters.assignments[3]);
        assert_ne!(clusters.assignments[0], clusters.assignments[5]);
        // Medoids are members of their own clusters.
        for (c, &medoid) in clusters.medoids.iter().enumerate() {
            assert!(clusters.members[c].contains(&medoid));
        }
    }

    #[test]
    fn silhouette_prefers_the_true_k() {
        let points = blobs();
        let algorithm = KMedoids::new();
        let (clusters, score) =
            choose_k(&algorithm, &points, &KSelection::Silhouette { max_k: 5 }, 5).unwrap();
        assert_eq!(clusters.k, 3, "three well-separated blobs");
        assert!(score > 0.5, "clean separation scores high: {score}");
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        let points = blobs();
        assert!(KMedoids::new().cluster(&points, 0).is_err());
        assert!(KMedoids::new().cluster(&points, 7).is_err());
        assert!(KMedoids::new().cluster(&[], 1).is_err());
        let duplicate = vec![
            FeaturePoint::new("x", vec![0.0]),
            FeaturePoint::new("x", vec![1.0]),
        ];
        assert!(KMedoids::new().cluster(&duplicate, 1).is_err());
        let ragged = vec![
            FeaturePoint::new("x", vec![0.0]),
            FeaturePoint::new("y", vec![1.0, 2.0]),
        ];
        assert!(KMedoids::new().cluster(&ragged, 1).is_err());
    }

    #[test]
    fn duplicate_feature_vectors_still_yield_nonempty_clusters() {
        let points = vec![
            FeaturePoint::new("p1", vec![0.5, 0.5]),
            FeaturePoint::new("p2", vec![0.5, 0.5]),
            FeaturePoint::new("p3", vec![0.5, 0.5]),
        ];
        for k in 1..=3 {
            let clusters = KMedoids::new().cluster(&points, k).unwrap();
            assert_eq!(clusters.k, k);
            assert!(clusters.members.iter().all(|m| !m.is_empty()));
        }
    }
}
