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
//!
//! ## Rows and layout
//!
//! One row builder (`RowBuilder`) accumulates every object's row straight
//! from the requests, with no pair map and no sort over the edges: for
//! object `a`, walk `a`'s requests in request order (a request listing `a`
//! twice is walked twice) and add `p_r` for every other object `b` of the
//! request into a dense accumulator. Each pair so receives the same
//! addends in the same order as a per-request pair-map accumulation —
//! `m_a·m_b` copies of `p_r` per request when the request lists the
//! objects `m_a` and `m_b` times, requests in order — and both endpoint
//! rows hold the same sum bit for bit.
//!
//! The co-access partition takes its rows from the builder directly
//! ([`Workload::co_access_clusters`]). [`CoAccessGraph`] stores the same
//! rows as a symmetric CSR adjacency, for callers that want the graph
//! itself: per object an offset into one neighbour-id array and one
//! weight array, each row ascending by neighbour id, every pair stored in
//! both endpoint rows.

use crate::{Request, Workload};
#[cfg(test)]
use tapesim_model::ObjectId;

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

/// Sparse weighted co-access graph over the object population, as a
/// symmetric CSR adjacency.
#[derive(Debug, Clone)]
pub struct CoAccessGraph {
    /// Row `a` is `neighbours[offsets[a]..offsets[a + 1]]`.
    offsets: Vec<usize>,
    /// Neighbour ids, ascending within each row.
    neighbours: Vec<u32>,
    /// The pair weight of each `neighbours` entry.
    weights: Vec<f64>,
}

impl CoAccessGraph {
    /// Builds the graph from a request set over `n_objects` objects.
    ///
    /// # Panics
    ///
    /// Panics if a request names an object outside `0..n_objects`
    /// ([`Workload::try_new`] rejects such workloads).
    pub fn from_requests(n_objects: usize, requests: &[Request]) -> CoAccessGraph {
        let mut offsets = Vec::with_capacity(n_objects + 1);
        offsets.push(0);
        // Each ordered position pair of a request adds at most one row
        // entry, and no row holds more than the other objects. Reserving
        // up front avoids regrowth copies, and untouched capacity of a
        // large reservation is not resident.
        let cap = requests
            .iter()
            .map(|r| {
                r.objects
                    .len()
                    .saturating_mul(r.objects.len().saturating_sub(1))
            })
            .fold(0usize, usize::saturating_add)
            .min(n_objects.saturating_mul(n_objects.saturating_sub(1)));
        let mut neighbours = Vec::with_capacity(cap);
        let mut weights = Vec::with_capacity(cap);
        let mut rows = RowBuilder::from_requests(n_objects, requests);
        for a in 0..n_objects {
            let (ids, sums) = rows.row(a);
            neighbours.extend_from_slice(ids);
            weights.extend_from_slice(sums);
            offsets.push(neighbours.len());
        }
        CoAccessGraph {
            offsets,
            neighbours,
            weights,
        }
    }

    /// Convenience: builds from a [`Workload`].
    pub fn from_workload(workload: &Workload) -> CoAccessGraph {
        CoAccessGraph::from_requests(workload.objects().len(), workload.requests())
    }

    /// Number of objects (graph vertices).
    pub fn n_objects(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of distinct weighted pairs (graph edges); each is stored in
    /// both endpoint rows.
    pub fn n_edges(&self) -> usize {
        self.neighbours.len() / 2
    }

    /// Row `a`: its neighbour ids, ascending, and their pair weights.
    ///
    /// # Panics
    ///
    /// Panics if `a` is outside the graph.
    pub(crate) fn row(&self, a: usize) -> (&[u32], &[f64]) {
        let row = self.offsets[a]..self.offsets[a + 1];
        (&self.neighbours[row.clone()], &self.weights[row])
    }

    /// The neighbours of `object` with their pair weights, ascending by
    /// neighbour id.
    ///
    /// # Panics
    ///
    /// Panics if `object` is outside the graph.
    #[cfg(test)]
    pub(crate) fn neighbours(
        &self,
        object: ObjectId,
    ) -> impl ExactSizeIterator<Item = (ObjectId, f64)> + '_ {
        let (ids, weights) = self.row(object.idx());
        ids.iter().zip(weights).map(|(&b, &w)| (ObjectId(b), w))
    }

    /// Similarity of a pair (0 if never co-accessed).
    #[cfg(test)]
    pub(crate) fn pair_weight(&self, a: ObjectId, b: ObjectId) -> f64 {
        self.neighbours(a)
            .find(|&(o, _)| o == b)
            .map_or(0.0, |e| e.1)
    }
}

/// Builds co-access rows one object at a time, straight from the
/// requests: the one accumulation behind [`CoAccessGraph`]'s CSR and the
/// linkage kernel's per-cluster maps, which take rows from it with no
/// graph in between.
pub(crate) struct RowBuilder<'a> {
    requests: &'a [Request],
    /// Object `a`'s requests are `listed[request_offsets[a]..request_offsets[a + 1]]`.
    request_offsets: Vec<usize>,
    /// Request indices, one per listing of an object, in request order.
    listed: Vec<u32>,
    /// Dense pair-weight accumulator, all zero between rows.
    acc: Vec<f64>,
    seen: Vec<bool>,
    /// The current row: neighbour ids, ascending, and their weights.
    touched: Vec<u32>,
    sums: Vec<f64>,
}

impl<'a> RowBuilder<'a> {
    /// Indexes `requests` by object over `n_objects` objects.
    ///
    /// # Panics
    ///
    /// Panics if a request names an object outside `0..n_objects`.
    pub(crate) fn from_requests(n_objects: usize, requests: &'a [Request]) -> RowBuilder<'a> {
        let mut request_offsets = vec![0usize; n_objects + 1];
        for o in requests.iter().flat_map(|r| &r.objects) {
            request_offsets[o.idx() + 1] += 1;
        }
        for i in 0..n_objects {
            request_offsets[i + 1] += request_offsets[i];
        }
        let mut fill = request_offsets[..n_objects].to_vec();
        let mut listed = vec![0u32; request_offsets[n_objects]];
        for (r, req) in requests.iter().enumerate() {
            for o in &req.objects {
                listed[fill[o.idx()]] = r as u32;
                fill[o.idx()] += 1;
            }
        }
        RowBuilder {
            requests,
            request_offsets,
            listed,
            acc: vec![0.0; n_objects],
            seen: vec![false; n_objects],
            touched: Vec::new(),
            sums: Vec::new(),
        }
    }

    /// Row `a`: its neighbour ids, ascending, and their pair weights,
    /// accumulated as the module doc says. The slices live until the next
    /// call.
    ///
    /// # Panics
    ///
    /// Panics if `a` is outside `0..n_objects`.
    pub(crate) fn row(&mut self, a: usize) -> (&[u32], &[f64]) {
        self.touched.clear();
        self.sums.clear();
        for &r in &self.listed[self.request_offsets[a]..self.request_offsets[a + 1]] {
            let req = &self.requests[r as usize];
            // A request listing an object twice adds no self-pair.
            for b in req.objects.iter().map(|b| b.idx()).filter(|&b| b != a) {
                if !self.seen[b] {
                    self.seen[b] = true;
                    self.touched.push(b as u32);
                }
                self.acc[b] += req.probability;
            }
        }
        self.touched.sort_unstable();
        for &b in &self.touched {
            let b = b as usize;
            self.sums.push(self.acc[b]);
            self.acc[b] = 0.0;
            self.seen[b] = false;
        }
        (&self.touched, &self.sums)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;
    use std::collections::BTreeMap;

    fn req(rank: u32, p: f64, objs: &[u32]) -> Request {
        Request {
            rank,
            probability: p,
            objects: objs.iter().map(|&o| ObjectId(o)).collect(),
        }
    }

    fn row(g: &CoAccessGraph, a: u32) -> Vec<(u32, f64)> {
        g.neighbours(ObjectId(a)).map(|(b, w)| (b.0, w)).collect()
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
    fn rows_ascend_by_neighbour_id() {
        let reqs = vec![
            req(0, 0.4, &[3, 0, 1]),
            req(1, 0.4, &[2, 3]),
            req(2, 0.2, &[0, 2]),
        ];
        let g = CoAccessGraph::from_requests(4, &reqs);
        assert_eq!(row(&g, 0), [(1, 0.4), (2, 0.2), (3, 0.4)]);
        assert_eq!(row(&g, 3), [(0, 0.4), (1, 0.4), (2, 0.4)]);
        assert_eq!(g.n_edges(), 5);
    }

    #[test]
    fn an_object_listed_twice_counts_each_listing() {
        // Object 1 twice: the pair (0,1) receives p twice, as a
        // per-request pair map over positions i < j does.
        let g = CoAccessGraph::from_requests(3, &[req(0, 0.25, &[0, 1, 1])]);
        assert_eq!(row(&g, 0), [(1, 0.5)]);
        assert_eq!(row(&g, 1), [(0, 0.5)]);
        assert!(row(&g, 2).is_empty());
        assert_eq!(g.n_edges(), 1);
    }

    #[test]
    fn empty_requests_give_empty_graph() {
        let g = CoAccessGraph::from_requests(10, &[]);
        assert_eq!(g.n_edges(), 0);
        assert!((0..10).all(|a| row(&g, a).is_empty()));
    }

    /// The per-request pair-map accumulation the CSR build replaced:
    /// every position pair `i < j` of distinct objects adds `p_r`,
    /// requests in order.
    fn pair_map(requests: &[Request]) -> BTreeMap<(u32, u32), f64> {
        let mut weights = BTreeMap::new();
        for r in requests {
            for (i, &a) in r.objects.iter().enumerate() {
                for &b in r.objects[i + 1..].iter().filter(|&&b| b != a) {
                    let key = (a.0.min(b.0), a.0.max(b.0));
                    *weights.entry(key).or_insert(0.0) += r.probability;
                }
            }
        }
        weights
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// CSR rows hold exactly the pair map's weights, bit for bit, in
        /// both endpoint rows, ascending; `n_edges` is the distinct-pair
        /// count. Probabilities tie when `uniform`; requests may list an
        /// object more than once and in any order.
        #[test]
        fn rows_match_a_per_request_pair_map(
            seed in any::<u64>(),
            n_obj in 1u32..40,
            n_req in 0usize..20,
            uniform in any::<bool>(),
        ) {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let requests: Vec<Request> = (0..n_req)
                .map(|rank| Request {
                    rank: rank as u32,
                    probability: if uniform { 0.1 } else { rng.gen_range(0.0..1.0) },
                    objects: (0..rng.gen_range(0..12))
                        .map(|_| ObjectId(rng.gen_range(0..n_obj)))
                        .collect(),
                })
                .collect();
            let g = CoAccessGraph::from_requests(n_obj as usize, &requests);
            let expected = pair_map(&requests);
            prop_assert_eq!(g.n_edges(), expected.len());
            let mut from_rows = BTreeMap::new();
            for a in 0..n_obj {
                let row = row(&g, a);
                prop_assert!(row.windows(2).all(|x| x[0].0 < x[1].0), "{:?}", row);
                for (b, w) in row {
                    prop_assert!(a != b);
                    let key = (a.min(b), a.max(b));
                    if let Some(other) = from_rows.insert(key, w) {
                        prop_assert_eq!(other.to_bits(), w.to_bits(), "asymmetric {:?}", key);
                    }
                }
            }
            prop_assert_eq!(from_rows.len(), expected.len());
            for (key, w) in &expected {
                prop_assert_eq!(from_rows.get(key).map(|x| x.to_bits()), Some(w.to_bits()), "{:?}", key);
            }
        }
    }
}
