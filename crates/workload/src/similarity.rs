//! The co-access similarity graph.
//!
//! Edge weight between two objects = Σ of probabilities of all requests
//! containing both (§5.1). The graph is sparse: only pairs that actually
//! co-occur in some request carry an edge — for the paper's workload that is
//! a few million pairs out of 30 000² / 2 possible.
//!
//! Higher-order similarities (triples, …) are implicit in the hierarchy: a
//! set of objects co-requested with total probability `p` is connected by
//! pairwise edges of weight ≥ `p`, so any threshold cut at or below `p`
//! groups them — which is how the paper's tree-traversal extraction behaves.

use crate::{Request, Workload};
use std::cmp::Reverse;
use std::collections::HashMap;
use tapesim_model::ObjectId;

/// Packs an unordered object pair into a map key (smaller id in high bits).
#[inline]
fn pair_key(a: ObjectId, b: ObjectId) -> u64 {
    let (lo, hi) = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
    ((lo as u64) << 32) | hi as u64
}

/// Maps `x` to a `u64` whose unsigned order is [`f64::total_cmp`]'s order,
/// so weights and scores compare as one integer with no finiteness check.
/// For the non-negative weights of a co-access graph this is the raw bit
/// pattern with the sign bit set, and the order is the numeric one.
#[inline]
pub(crate) fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// Sparse weighted co-access graph over the object population.
///
/// Built once into its weight-descending edge array; the pair map used to
/// accumulate the weights is dropped at the end of the build.
#[derive(Debug, Clone)]
pub struct CoAccessGraph {
    n_objects: usize,
    /// Every co-accessed pair `(a, b, weight)` with `a < b`, by descending
    /// weight, ties by ascending `(a, b)`.
    edges: Vec<(ObjectId, ObjectId, f64)>,
}

impl CoAccessGraph {
    /// Builds the graph from a request set over `n_objects` objects.
    pub fn from_requests(n_objects: usize, requests: &[Request]) -> CoAccessGraph {
        // Rough capacity guess: Σ C(k,2) over requests, saturating.
        let cap: usize = requests
            .iter()
            .map(|r| r.objects.len() * (r.objects.len().saturating_sub(1)) / 2)
            .sum();
        // The default hasher, not `IntHasher`: a multiplicative hash takes
        // the bucket from low bits that depend on the key's low half only,
        // i.e. on the larger id alone, so packed pairs would collide.
        let mut weights: HashMap<u64, f64> = HashMap::with_capacity(cap.min(1 << 24));
        for r in requests {
            for (i, &a) in r.objects.iter().enumerate() {
                // A request listing an object twice adds no self-pair.
                for &b in r.objects[i + 1..].iter().filter(|&&b| b != a) {
                    *weights.entry(pair_key(a, b)).or_insert(0.0) += r.probability;
                }
            }
        }
        let mut edges: Vec<(ObjectId, ObjectId, f64)> = weights
            .into_iter()
            .map(|(k, w)| (ObjectId((k >> 32) as u32), ObjectId(k as u32), w))
            .collect();
        // Pairs are unique, so the unstable sort is deterministic.
        edges.sort_unstable_by_key(|&(a, b, w)| (Reverse(order_key(w)), a, b));
        CoAccessGraph { n_objects, edges }
    }

    /// Convenience: builds from a [`Workload`].
    pub fn from_workload(workload: &Workload) -> CoAccessGraph {
        CoAccessGraph::from_requests(workload.objects().len(), workload.requests())
    }

    /// Number of objects (graph vertices).
    pub fn n_objects(&self) -> usize {
        self.n_objects
    }

    /// Number of weighted pairs (graph edges).
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Similarity of a pair (0 if never co-accessed).
    #[cfg(test)]
    pub(crate) fn pair_weight(&self, a: ObjectId, b: ObjectId) -> f64 {
        if a == b {
            return 0.0;
        }
        let key = pair_key(a, b);
        self.edges
            .iter()
            .find(|&&(x, y, _)| pair_key(x, y) == key)
            .map_or(0.0, |e| e.2)
    }

    /// All edges as `(a, b, weight)` with `a < b`, **sorted by descending
    /// weight** (ties broken by ids) — the order Kruskal and average
    /// linkage consume.
    pub fn edges_by_weight_desc(&self) -> &[(ObjectId, ObjectId, f64)] {
        &self.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(rank: u32, p: f64, objs: &[u32]) -> Request {
        Request {
            rank,
            probability: p,
            objects: objs.iter().map(|&o| ObjectId(o)).collect(),
        }
    }

    #[test]
    fn weights_accumulate_across_requests() {
        let reqs = vec![req(0, 0.5, &[0, 1, 2]), req(1, 0.3, &[1, 2, 3])];
        let g = CoAccessGraph::from_requests(5, &reqs);
        assert_eq!(g.n_objects(), 5);
        // (1,2) appears in both requests.
        assert!((g.pair_weight(ObjectId(1), ObjectId(2)) - 0.8).abs() < 1e-12);
        // (0,1) only in the first.
        assert!((g.pair_weight(ObjectId(0), ObjectId(1)) - 0.5).abs() < 1e-12);
        // (0,3) never together.
        assert_eq!(g.pair_weight(ObjectId(0), ObjectId(3)), 0.0);
        // Symmetric.
        assert_eq!(
            g.pair_weight(ObjectId(2), ObjectId(1)),
            g.pair_weight(ObjectId(1), ObjectId(2))
        );
        // Self-similarity is not a thing.
        assert_eq!(g.pair_weight(ObjectId(1), ObjectId(1)), 0.0);
    }

    #[test]
    fn edge_count_is_union_of_pairs() {
        let reqs = vec![req(0, 0.5, &[0, 1, 2]), req(1, 0.5, &[1, 2, 3])];
        let g = CoAccessGraph::from_requests(4, &reqs);
        // Pairs: {01,02,12} ∪ {12,13,23} = 5 distinct.
        assert_eq!(g.n_edges(), 5);
    }

    #[test]
    fn edges_sorted_descending_deterministically() {
        let reqs = vec![
            req(0, 0.4, &[0, 1]),
            req(1, 0.4, &[2, 3]),
            req(2, 0.2, &[0, 2]),
        ];
        let g = CoAccessGraph::from_requests(4, &reqs);
        let edges = g.edges_by_weight_desc();
        assert_eq!(edges.len(), 3);
        // Two ties at 0.4 break by smaller first id.
        assert_eq!(edges[0].0, ObjectId(0));
        assert_eq!(edges[0].1, ObjectId(1));
        assert_eq!(edges[1].0, ObjectId(2));
        assert_eq!(edges[1].1, ObjectId(3));
        assert!((edges[2].2 - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_requests_give_empty_graph() {
        let g = CoAccessGraph::from_requests(10, &[]);
        assert_eq!(g.n_edges(), 0);
        assert!(g.edges_by_weight_desc().is_empty());
    }
}
