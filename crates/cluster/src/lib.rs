//! # tapesim-cluster
//!
//! Object clustering by co-access relationship (§5.1 of the paper).
//!
//! The similarity between objects is "the probability they will be accessed
//! together": the weight of a pair `(O_i, O_j)` is the sum of probabilities
//! of all requests containing both. Following the paper's reference to
//! Johnson's 1967 hierarchical scheme, we agglomerate this sparse similarity
//! graph by [`average_linkage_clusters`] down to a preset probability
//! threshold; objects with a high chance of being accessed together land in
//! the same cluster. Average linkage dilutes a one-object bridge between two
//! requests by `1/(|A|·|B|)`, so the paper's overlapping requests stay apart
//! instead of chaining into one workload-sized cluster.
//!
//! The driver type is [`ClusterParams`]: it derives the absolute threshold
//! from the workload's request probabilities ([`THRESHOLD_FRACTION`]) and
//! enforces the §5.1 size-cap rule (clusters should not exceed the
//! tape-batch width) as a byte cap.

pub mod average;
pub mod similarity;

pub use average::average_linkage_clusters;
pub use similarity::CoAccessGraph;

use serde::{Deserialize, Serialize};
use tapesim_model::{Bytes, ObjectId};
use tapesim_workload::Workload;

/// The cut threshold as a fraction of the *smallest* request probability.
/// At `0.5`, every request's object set merges (its internal pair weights
/// are at least one request probability) and only chance co-occurrence
/// across requests chains clusters together.
pub const THRESHOLD_FRACTION: f64 = 0.5;

/// Clustering parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ClusterParams {
    /// Upper bound on a cluster's total bytes, if any (§5.1: a batch's
    /// capacity).
    pub max_bytes: Option<Bytes>,
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
            min_p * THRESHOLD_FRACTION
        } else {
            0.0
        }
    }

    /// Clusters `workload`: average linkage at the absolute threshold, then
    /// the byte cap, if any.
    pub fn cluster(&self, workload: &Workload) -> ClusterSet {
        let graph = CoAccessGraph::from_workload(workload);
        let flat = average_linkage_clusters(&graph, self.absolute_threshold(workload));
        let clusters = match self.max_bytes {
            None => flat,
            Some(cap) => {
                let mut split = split_flat_to_caps(flat, cap, workload);
                // Deterministic presentation order: by smallest member id.
                split.sort_by_key(|c| c[0]);
                split
            }
        };
        ClusterSet::new(clusters, workload.objects().len())
    }
}

/// Splits clusters whose total bytes exceed `max_bytes` by greedy chunking
/// in member order. An object larger than the cap stays a singleton.
fn split_flat_to_caps(
    clusters: Vec<Vec<ObjectId>>,
    max_bytes: Bytes,
    workload: &Workload,
) -> Vec<Vec<ObjectId>> {
    let mut out = Vec::with_capacity(clusters.len());
    for cluster in clusters {
        let mut current: Vec<ObjectId> = Vec::new();
        let mut current_bytes = Bytes::ZERO;
        for o in cluster {
            let s = workload.size_of(o);
            if !current.is_empty() && current_bytes + s > max_bytes {
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

/// The §5.1 size rules the single-linkage dendrogram cut used to enforce,
/// kept under their original names: the byte cap and the oversized-object
/// singleton rule now hold on the flat average-linkage path.
#[cfg(test)]
mod dendrogram {
    mod tests {
        use crate::ClusterParams;
        use tapesim_model::{Bytes, ObjectId};
        use tapesim_workload::{ObjectRecord, Request, Workload};

        /// One request over `n` objects of `size` each, and a byte cap.
        fn capped(n: u32, size: Bytes, cap: Bytes) -> (Workload, Vec<Vec<ObjectId>>) {
            let objects = (0..n)
                .map(|i| ObjectRecord {
                    id: ObjectId(i),
                    size,
                })
                .collect();
            let requests = vec![Request {
                rank: 0,
                probability: 0.9,
                objects: (0..n).map(ObjectId).collect(),
            }];
            let w = Workload::new(objects, requests);
            let params = ClusterParams {
                max_bytes: Some(cap),
            };
            let clusters = params.cluster(&w).clusters().to_vec();
            (w, clusters)
        }

        #[test]
        fn byte_cap_splits() {
            let (_, capped) = capped(3, Bytes::gb(1), Bytes::gb(2));
            for c in &capped {
                assert!(c.len() <= 2);
            }
            let total: usize = capped.iter().map(|c| c.len()).sum();
            assert_eq!(total, 3);
        }

        #[test]
        fn oversize_single_leaf_stays_singleton() {
            let (w, capped) = capped(2, Bytes::gb(5), Bytes::gb(1));
            assert_eq!(capped.len(), 2, "each oversized leaf alone");
            for c in &capped {
                assert_eq!(c.len(), 1);
                assert_eq!(w.size_of(c[0]), Bytes::gb(5));
            }
        }
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
    fn shared_object_requests_cluster_apart() {
        // The requests share object 2; average linkage dilutes that bridge,
        // so the first request keeps it and the second stays a pair.
        let w = toy_workload(6, &[(&[0, 1, 2], 0.5), (&[2, 3, 4], 0.5)]);
        let set = ClusterParams::default().cluster(&w);
        let ids = |c: &[u32]| c.iter().map(|&o| ObjectId(o)).collect::<Vec<_>>();
        assert_eq!(set.clusters(), [ids(&[0, 1, 2]), ids(&[3, 4]), ids(&[5])]);
    }

    #[test]
    fn high_threshold_keeps_only_strong_pairs() {
        // Pair (0,1) co-occurs in both requests (weight 1.0); the rest only
        // in one.
        let w = toy_workload(5, &[(&[0, 1, 2], 0.5), (&[0, 1, 3], 0.5)]);
        let graph = CoAccessGraph::from_workload(&w);
        // 0.75 absolute: above any single request.
        let clusters = average_linkage_clusters(&graph, 0.75);
        let nontrivial: Vec<_> = clusters.iter().filter(|c| c.len() > 1).collect();
        assert_eq!(nontrivial.len(), 1);
        assert_eq!(*nontrivial[0], vec![ObjectId(0), ObjectId(1)]);
    }

    #[test]
    fn byte_caps_split_clusters() {
        let w = toy_workload(6, &[(&[0, 1, 2, 3], 1.0)]);
        let params = ClusterParams {
            max_bytes: Some(Bytes::gb(2)),
        };
        let set = params.cluster(&w);
        for c in set.clusters() {
            let total: Bytes = c.iter().map(|&o| w.size_of(o)).sum();
            assert!(total <= Bytes::gb(2), "byte cap violated: {c:?}");
        }
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
        /// Clustering always yields a valid partition, with and without a
        /// byte cap, over random overlapping workloads; a capped cluster
        /// over the cap is one object larger than the cap on its own.
        #[test]
        fn clustering_always_partitions(
            seed in any::<u64>(),
            n_obj in 5u32..60,
            n_req in 1usize..20,
            cap_gb in proptest::option::of(1u64..12),
        ) {
            let w = random_workload(seed, n_obj, n_req);
            let params = ClusterParams { max_bytes: cap_gb.map(Bytes::gb) };
            // `cluster` panics internally (via ClusterSet::new) if the
            // result is not a partition; also check the cap.
            let set = params.cluster(&w);
            prop_assert_eq!(set.n_objects(), n_obj as usize);
            if let Some(cap) = params.max_bytes {
                for c in set.clusters() {
                    let bytes: Bytes = c.iter().map(|&o| w.size_of(o)).sum();
                    prop_assert!(c.len() == 1 || bytes <= cap, "cap {cap} violated: {c:?}");
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
