//! # tapesim-cluster
//!
//! Object clustering by co-access relationship (§5.1 of the paper).
//!
//! The similarity between objects is "the probability they will be accessed
//! together": the weight of a pair `(O_i, O_j)` is the sum of probabilities
//! of all requests containing both. Following the paper's reference to
//! Johnson's 1967 hierarchical scheme, we build an agglomerative hierarchy
//! over this sparse similarity graph and cut it at a preset probability
//! threshold; objects with a high chance of being accessed together land in
//! the same cluster.
//!
//! Two linkages are provided:
//!
//! * [`Dendrogram::single_linkage`] — exact single-linkage via Kruskal over
//!   descending edge weights; cheap, and the dendrogram supports both
//!   threshold cuts and the paper's cluster-size caps by recursive subtree
//!   splitting.
//! * [`average_linkage_clusters`] — sparse average linkage, the linkage
//!   PBP, CPP and online placement cluster with (`Linkage::Average`):
//!   single linkage chains the paper's overlapping requests into one
//!   cluster.
//!
//! The driver type is [`ClusterParams`]: it derives the absolute threshold
//! from the workload's request probabilities and enforces the §5.1
//! size-cap rule (clusters should not exceed the tape-batch width).

pub mod average;
pub mod dendrogram;
pub mod similarity;
pub mod unionfind;

pub use average::average_linkage_clusters;
pub use dendrogram::Dendrogram;
pub use similarity::CoAccessGraph;
pub use unionfind::UnionFind;

use serde::{Deserialize, Serialize};
use tapesim_model::{Bytes, ObjectId};
use tapesim_workload::Workload;

/// Linkage criterion for the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Linkage {
    /// Maximum pairwise similarity (Kruskal/MST); the default.
    #[default]
    Single,
    /// Mean pairwise similarity between clusters.
    Average,
}

/// Clustering parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterParams {
    /// The cut threshold as a fraction of the *smallest* request
    /// probability. At the default `0.5`, every request's object set merges
    /// (its internal pair weights are at least one request probability) and
    /// only chance co-occurrence across requests chains clusters together.
    pub threshold_fraction: f64,
    /// Linkage criterion.
    pub linkage: Linkage,
    /// Upper bound on the number of objects per cluster, if any
    /// (§5.1: close to `n×(d−m)` or `n×m` for maximum parallelism).
    pub max_objects: Option<usize>,
    /// Upper bound on a cluster's total bytes, if any (a batch's capacity).
    pub max_bytes: Option<Bytes>,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams {
            threshold_fraction: 0.5,
            linkage: Linkage::Single,
            max_objects: None,
            max_bytes: None,
        }
    }
}

impl ClusterParams {
    /// Absolute cut threshold for `workload`.
    pub fn absolute_threshold(&self, workload: &Workload) -> f64 {
        let min_p = workload
            .requests()
            .iter()
            .map(|r| r.probability)
            .fold(f64::INFINITY, f64::min);
        if min_p.is_finite() {
            min_p * self.threshold_fraction
        } else {
            0.0
        }
    }

    /// Clusters `workload` under these parameters.
    pub fn cluster(&self, workload: &Workload) -> ClusterSet {
        let graph = CoAccessGraph::from_workload(workload);
        let threshold = self.absolute_threshold(workload);
        let mut clusters = match self.linkage {
            Linkage::Single => {
                let dendro = Dendrogram::single_linkage(&graph);
                match (self.max_objects, self.max_bytes) {
                    (None, None) => dendro.cut(threshold),
                    _ => dendro.cut_with_caps(
                        threshold,
                        self.max_objects.unwrap_or(usize::MAX),
                        self.max_bytes.unwrap_or(Bytes(u64::MAX)),
                        &|o| workload.size_of(o),
                    ),
                }
            }
            Linkage::Average => {
                let flat = average_linkage_clusters(&graph, threshold);
                match (self.max_objects, self.max_bytes) {
                    (None, None) => flat,
                    _ => split_flat_to_caps(
                        flat,
                        self.max_objects.unwrap_or(usize::MAX),
                        self.max_bytes.unwrap_or(Bytes(u64::MAX)),
                        &|o| workload.size_of(o),
                    ),
                }
            }
        };
        // Deterministic presentation order: by smallest member id.
        for c in &mut clusters {
            c.sort_unstable();
        }
        clusters.sort_by_key(|c| c[0]);
        ClusterSet::new(clusters, workload.objects().len())
    }
}

/// Splits flat clusters that exceed the caps by greedy chunking in member
/// order (used for average linkage, which has no subtree structure to
/// follow).
fn split_flat_to_caps(
    clusters: Vec<Vec<ObjectId>>,
    max_objects: usize,
    max_bytes: Bytes,
    size_of: &dyn Fn(ObjectId) -> Bytes,
) -> Vec<Vec<ObjectId>> {
    let mut out = Vec::with_capacity(clusters.len());
    for cluster in clusters {
        let mut current: Vec<ObjectId> = Vec::new();
        let mut current_bytes = Bytes::ZERO;
        for o in cluster {
            let s = size_of(o);
            let over = current.len() + 1 > max_objects
                || (!current.is_empty() && current_bytes + s > max_bytes);
            if over {
                out.push(std::mem::take(&mut current));
                current_bytes = Bytes::ZERO;
            }
            current_bytes += s;
            current.push(o);
        }
        if !current.is_empty() {
            out.push(current);
        }
    }
    out
}

/// A partition of the object population into co-access clusters.
///
/// Every object appears in exactly one cluster; objects that never co-occur
/// with anything form singleton clusters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterSet {
    clusters: Vec<Vec<ObjectId>>,
    n_objects: usize,
}

impl ClusterSet {
    /// Wraps and validates a partition over `n_objects` objects.
    ///
    /// # Panics
    ///
    /// Panics if the clusters are not a partition of `0..n_objects`.
    pub fn new(clusters: Vec<Vec<ObjectId>>, n_objects: usize) -> ClusterSet {
        let mut seen = vec![false; n_objects];
        let mut count = 0usize;
        for c in &clusters {
            assert!(!c.is_empty(), "empty cluster");
            for o in c {
                assert!(o.idx() < n_objects, "object {o} out of range");
                assert!(!seen[o.idx()], "object {o} in two clusters");
                seen[o.idx()] = true;
                count += 1;
            }
        }
        assert_eq!(count, n_objects, "clusters must cover every object");
        ClusterSet {
            clusters,
            n_objects,
        }
    }

    /// The clusters (each non-empty, members sorted when built through
    /// [`ClusterParams::cluster`]).
    pub fn clusters(&self) -> &[Vec<ObjectId>] {
        &self.clusters
    }

    /// Number of objects covered.
    pub fn n_objects(&self) -> usize {
        self.n_objects
    }

    /// Number of clusters with at least two members.
    pub fn n_nontrivial(&self) -> usize {
        self.clusters.iter().filter(|c| c.len() > 1).count()
    }

    /// Map from object to its cluster index.
    pub fn membership(&self) -> Vec<usize> {
        let mut m = vec![usize::MAX; self.n_objects];
        for (i, c) in self.clusters.iter().enumerate() {
            for o in c {
                m[o.idx()] = i;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_model::Bytes;
    use tapesim_workload::{ObjectRecord, Request};

    /// Builds a workload with explicit requests over `n` 1 GB objects.
    fn toy_workload(n: u32, reqs: &[(&[u32], f64)]) -> Workload {
        let objects = (0..n)
            .map(|i| ObjectRecord {
                id: ObjectId(i),
                size: Bytes::gb(1),
            })
            .collect();
        let requests = reqs
            .iter()
            .enumerate()
            .map(|(rank, (objs, p))| Request {
                rank: rank as u32,
                probability: *p,
                objects: objs.iter().map(|&o| ObjectId(o)).collect(),
            })
            .collect();
        Workload::new(objects, requests)
    }

    #[test]
    fn requests_become_clusters() {
        let w = toy_workload(10, &[(&[0, 1, 2], 0.6), (&[5, 6], 0.4)]);
        let set = ClusterParams::default().cluster(&w);
        let clusters: Vec<_> = set
            .clusters()
            .iter()
            .filter(|c| c.len() > 1)
            .cloned()
            .collect();
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0], vec![ObjectId(0), ObjectId(1), ObjectId(2)]);
        assert_eq!(clusters[1], vec![ObjectId(5), ObjectId(6)]);
        // Untouched objects are singletons; the set is a partition.
        assert_eq!(set.n_objects(), 10);
    }

    #[test]
    fn shared_object_chains_clusters_under_single_linkage() {
        let w = toy_workload(6, &[(&[0, 1, 2], 0.5), (&[2, 3, 4], 0.5)]);
        let set = ClusterParams::default().cluster(&w);
        let big = set.clusters().iter().find(|c| c.len() == 5).unwrap();
        assert_eq!(
            *big,
            vec![
                ObjectId(0),
                ObjectId(1),
                ObjectId(2),
                ObjectId(3),
                ObjectId(4)
            ]
        );
    }

    #[test]
    fn high_threshold_keeps_only_strong_pairs() {
        // Pair (0,1) co-occurs in both requests (weight 1.0); the rest only
        // in one.
        let w = toy_workload(5, &[(&[0, 1, 2], 0.5), (&[0, 1, 3], 0.5)]);
        let params = ClusterParams {
            threshold_fraction: 1.5, // 0.75 absolute: above any single request
            ..ClusterParams::default()
        };
        let set = params.cluster(&w);
        let nontrivial: Vec<_> = set.clusters().iter().filter(|c| c.len() > 1).collect();
        assert_eq!(nontrivial.len(), 1);
        assert_eq!(*nontrivial[0], vec![ObjectId(0), ObjectId(1)]);
    }

    #[test]
    fn object_caps_split_clusters() {
        let w = toy_workload(8, &[(&[0, 1, 2, 3, 4, 5], 1.0)]);
        let params = ClusterParams {
            max_objects: Some(2),
            ..ClusterParams::default()
        };
        let set = params.cluster(&w);
        for c in set.clusters() {
            assert!(c.len() <= 2, "cap violated: {c:?}");
        }
        assert_eq!(set.n_objects(), 8);
    }

    #[test]
    fn byte_caps_split_clusters() {
        let w = toy_workload(6, &[(&[0, 1, 2, 3], 1.0)]);
        let params = ClusterParams {
            max_bytes: Some(Bytes::gb(2)),
            ..ClusterParams::default()
        };
        let set = params.cluster(&w);
        for c in set.clusters() {
            let total: Bytes = c.iter().map(|&o| w.size_of(o)).sum();
            assert!(total <= Bytes::gb(2), "byte cap violated: {c:?}");
        }
    }

    #[test]
    fn average_linkage_agrees_on_disjoint_requests() {
        let w = toy_workload(10, &[(&[0, 1, 2], 0.6), (&[5, 6], 0.4)]);
        let single = ClusterParams::default().cluster(&w);
        let avg = ClusterParams {
            linkage: Linkage::Average,
            ..ClusterParams::default()
        }
        .cluster(&w);
        assert_eq!(single, avg);
    }

    #[test]
    #[should_panic(expected = "two clusters")]
    fn cluster_set_rejects_overlap() {
        let _ = ClusterSet::new(vec![vec![ObjectId(0)], vec![ObjectId(0)]], 1);
    }

    #[test]
    #[should_panic(expected = "cover every object")]
    fn cluster_set_rejects_missing() {
        let _ = ClusterSet::new(vec![vec![ObjectId(0)]], 2);
    }

    #[test]
    fn membership_maps_back() {
        let w = toy_workload(4, &[(&[0, 1], 1.0)]);
        let set = ClusterParams::default().cluster(&w);
        let m = set.membership();
        assert_eq!(m[0], m[1]);
        assert_ne!(m[2], m[3]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;
    use tapesim_model::Bytes;
    use tapesim_workload::{ObjectRecord, Request};

    /// Random overlapping request sets over a small population.
    fn random_workload(seed: u64, n_obj: u32, n_req: usize) -> Workload {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let objects = (0..n_obj)
            .map(|i| ObjectRecord {
                id: tapesim_model::ObjectId(i),
                size: Bytes::gb(1 + rng.gen_range(0..8)),
            })
            .collect();
        let mut requests = Vec::new();
        for rank in 0..n_req {
            let k = rng.gen_range(2..=(n_obj.min(10)));
            let mut objs: Vec<_> = (0..k)
                .map(|_| tapesim_model::ObjectId(rng.gen_range(0..n_obj)))
                .collect();
            objs.sort_unstable();
            objs.dedup();
            requests.push(Request {
                rank: rank as u32,
                probability: 1.0 / n_req as f64,
                objects: objs,
            });
        }
        Workload::new(objects, requests)
    }

    proptest! {
        /// Both linkages always yield a valid partition, with and without
        /// caps, over random overlapping workloads.
        #[test]
        fn clustering_always_partitions(
            seed in any::<u64>(),
            n_obj in 5u32..60,
            n_req in 1usize..20,
            linkage_avg in any::<bool>(),
            cap in proptest::option::of(1usize..6),
        ) {
            let w = random_workload(seed, n_obj, n_req);
            let params = ClusterParams {
                linkage: if linkage_avg { Linkage::Average } else { Linkage::Single },
                max_objects: cap,
                ..ClusterParams::default()
            };
            // `cluster` panics internally (via ClusterSet::new) if the
            // result is not a partition; also check the caps.
            let set = params.cluster(&w);
            prop_assert_eq!(set.n_objects(), n_obj as usize);
            if let Some(cap) = cap {
                for c in set.clusters() {
                    prop_assert!(c.len() <= cap, "cap {cap} violated: {c:?}");
                }
            }
            // Membership round-trips.
            let m = set.membership();
            for (i, c) in set.clusters().iter().enumerate() {
                for o in c {
                    prop_assert_eq!(m[o.idx()], i);
                }
            }
        }

        /// Pair weights are symmetric, non-negative, and bounded by the
        /// total request mass; the integer-keyed edge sort is the float
        /// order (weight descending, then pair ascending).
        #[test]
        fn similarity_bounds(seed in any::<u64>(), n_obj in 4u32..40, n_req in 1usize..15) {
            let w = random_workload(seed, n_obj, n_req);
            let g = CoAccessGraph::from_workload(&w);
            let total: f64 = w.requests().iter().map(|r| r.probability).sum();
            let edges = g.edges_by_weight_desc();
            for &(a, b, wgt) in edges {
                prop_assert!(a < b);
                prop_assert!(wgt > 0.0 && wgt <= total + 1e-9);
                prop_assert!((g.pair_weight(a, b) - wgt).abs() < 1e-12);
                prop_assert!((g.pair_weight(b, a) - wgt).abs() < 1e-12);
            }
            for pair in edges.windows(2) {
                let (x, y) = (pair[0], pair[1]);
                prop_assert!(x.2 > y.2 || (x.2 == y.2 && (x.0, x.1) < (y.0, y.1)), "{x:?} {y:?}");
            }
        }
    }
}
