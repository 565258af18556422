//! Sparse average-linkage agglomerative clustering.
//!
//! Average linkage scores a cluster pair by the *mean* pairwise similarity
//! across the pair (absent pairs count as zero):
//! `score(A,B) = Σ_{a∈A,b∈B} w(a,b) / (|A|·|B|)`.
//!
//! This is the linkage the placement schemes use on the paper's workload:
//! requests share objects aggressively (two 125-object requests out of a
//! 30 000-object population overlap with probability ≈ ½), and single
//! linkage would chain the whole workload into one mega-cluster through
//! those shared objects. Average linkage dilutes one-object bridges by
//! `1/(|A|·|B|)` and keeps requests apart.
//!
//! ## Implementation
//!
//! Per live cluster: a sparse adjacency map of cross-cluster weight sums
//! (fast integer hashing, reserved to the vertex degree), its size in a
//! dense array and its members as a linked list; merging is
//! smaller-into-larger. The maps start as the co-access rows, taken one
//! object at a time from the request-driven row builder (the partition
//! path, which builds no graph) or from a [`CoAccessGraph`]'s CSR rows.
//! They are the kernel's memory peak, so an entry is 12 bytes: a `u32`
//! cluster key and the sum's bytes at alignment 1.
//!
//! The kernel is the "generic" lazy best-neighbour scheme of Müllner
//! (*Modern hierarchical, agglomerative clustering algorithms*,
//! arXiv:1109.2378): a max-heap holds one live entry per cluster, keyed
//! by that cluster's *bound*, a candidate `(score, smaller pair)` at or
//! above the threshold.
//!
//! * A popped entry whose bound is still its cluster's bound is rescanned
//!   for the cluster's exact best candidate. It merges iff the exact best
//!   equals the bound; otherwise the exact best becomes the bound and is
//!   re-pushed (or the cluster leaves the heap if nothing qualifies).
//! * A merge folds the dropped side's adjacency into the kept side with
//!   the same float operations as one heap holding every candidate, then
//!   rescans the kept cluster.
//!
//! Every live pair at or above the threshold stays *covered*: the bound
//! of at least one of its sides is at or above it. A rescan covers all of
//! a cluster's pairs. A merge changes the sum only of pairs with the kept
//! cluster as a side, and that cluster is rescanned; every other pair
//! keeps its sum and only loses score as a side grows. So the greatest
//! heap entry is at or above every live pair, a popped bound that is
//! exact is the greatest live pair, and the merge sequence, every pair's
//! float fold order and the partition are those of one heap holding every
//! candidate (the `reference` kernel in the tests). Candidates compare as
//! two integers: the score's total-order bits, then the bit-inverted
//! packed `(a, b)`.
//!
//! On the paper-scale graph (2.2 M edges, 30 000 vertices, 9 120
//! clusters) the 20 880 merges take 99 695 pops and 3.56 M folds: most of
//! the cost is the folds and rescans, not the heap.

use crate::similarity::{order_key, CoAccessGraph, RowBuilder};
use crate::Request;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use tapesim_model::ObjectId;

/// Multiplicative hasher for small integer keys (FxHash-style); adjacency
/// maps are hot enough that SipHash shows up in profiles.
#[derive(Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-integer keys; not used on the hot path.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.0 = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.0 = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// `HashMap` keyed by cluster ids with [`IntHasher`].
pub type IntMap<V> = HashMap<u32, V, BuildHasherDefault<IntHasher>>;

/// A cross-cluster weight sum: the `f64`'s bytes at alignment 1, so a map
/// entry with its `u32` key is 12 bytes, not 16.
#[derive(Clone, Copy, Default)]
struct Sum([u8; 8]);

const _: () = assert!(std::mem::size_of::<(u32, Sum)>() == 12);

impl Sum {
    fn new(x: f64) -> Sum {
        Sum(x.to_ne_bytes())
    }

    fn get(self) -> f64 {
        f64::from_ne_bytes(self.0)
    }

    fn add(&mut self, x: f64) {
        *self = Sum::new(self.get() + x);
    }
}

/// A merge candidate of clusters `a < b`, greatest first: the higher
/// score, then the smaller pair (`pair` is the packed `(a, b)`, bit
/// inverted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Candidate {
    score: u64,
    pair: u64,
}

impl Candidate {
    fn new(score: f64, x: usize, y: usize) -> Candidate {
        let (a, b) = if x < y { (x, y) } else { (y, x) };
        Candidate {
            score: order_key(score),
            pair: !((a as u64) << 32 | b as u64),
        }
    }

    fn a(&self) -> usize {
        (!self.pair >> 32) as usize
    }

    fn b(&self) -> usize {
        !self.pair as u32 as usize
    }
}

/// End of a member list.
const NIL: u32 = u32::MAX;

/// The best candidate of cluster `c` at or above `threshold`, if any.
fn best(c: usize, adj: &IntMap<Sum>, size: &[u32], threshold: f64) -> Option<Candidate> {
    let len = size[c] as f64;
    adj.iter()
        .filter_map(|(&other, &sum)| {
            let score = sum.get() / (len * size[other as usize] as f64);
            (score >= threshold).then(|| Candidate::new(score, c, other as usize))
        })
        .max()
}

/// One object's adjacency map from its row, reserved to the vertex degree.
fn row_map((ids, sums): (&[u32], &[f64])) -> IntMap<Sum> {
    let mut map = IntMap::with_capacity_and_hasher(ids.len(), Default::default());
    map.extend(ids.iter().zip(sums).map(|(&b, &w)| (b, Sum::new(w))));
    map
}

/// Flat average-linkage clusters of `graph` at similarity `threshold`.
///
/// Returns a partition of all objects (singletons included), clusters
/// ordered by smallest member, members ascending.
pub fn average_linkage_clusters(graph: &CoAccessGraph, threshold: f64) -> Vec<Vec<ObjectId>> {
    let adj = (0..graph.n_objects())
        .map(|a| row_map(graph.row(a)))
        .collect();
    linkage(adj, threshold)
}

/// [`average_linkage_clusters`] of the co-access graph of `requests` over
/// `n_objects` objects, its maps filled row by row from the requests with
/// no graph built.
///
/// # Panics
///
/// Panics if a request names an object outside `0..n_objects`.
pub(crate) fn request_linkage_clusters(
    n_objects: usize,
    requests: &[Request],
    threshold: f64,
) -> Vec<Vec<ObjectId>> {
    let mut rows = RowBuilder::from_requests(n_objects, requests);
    let adj = (0..n_objects).map(|a| row_map(rows.row(a))).collect();
    linkage(adj, threshold)
}

/// The kernel over per-object adjacency maps.
fn linkage(mut adj: Vec<IntMap<Sum>>, threshold: f64) -> Vec<Vec<ObjectId>> {
    let n = adj.len();
    // Cluster sizes (0 once absorbed) and member lists: `next` links a
    // cluster's objects from its id, `last` is the list's tail.
    let mut size = vec![1u32; n];
    let mut next = vec![NIL; n];
    let mut last: Vec<u32> = (0..n as u32).collect();

    let mut bound: Vec<Option<Candidate>> =
        (0..n).map(|c| best(c, &adj[c], &size, threshold)).collect();
    let mut heap: BinaryHeap<(Candidate, u32)> = bound
        .iter()
        .enumerate()
        .filter_map(|(c, b)| Some(((*b)?, c as u32)))
        .collect();

    while let Some((cand, owner)) = heap.pop() {
        let owner = owner as usize;
        // An entry is live iff it holds its cluster's bound; absorbed
        // clusters have none.
        if bound[owner] != Some(cand) {
            continue;
        }
        let exact = best(owner, &adj[owner], &size, threshold);
        bound[owner] = exact;
        let Some(exact) = exact else { continue };
        if exact != cand {
            heap.push((exact, owner as u32));
            continue;
        }

        // Merge the smaller cluster into the larger one.
        let (a, b) = (cand.a(), cand.b());
        let (keep, drop) = if size[a] >= size[b] { (a, b) } else { (b, a) };
        let dropped = std::mem::take(&mut adj[drop]);
        let mut kept = std::mem::take(&mut adj[keep]);
        kept.remove(&(drop as u32));
        size[keep] += size[drop];
        size[drop] = 0;
        bound[drop] = None;
        next[last[keep] as usize] = drop as u32;
        last[keep] = last[drop];

        // Fold the dropped side's adjacency into the kept side. Every pair
        // whose sum changes has `keep` as a side, and `keep` is rescanned
        // below; every other pair only loses score as a side grows.
        for (&other, &w) in &dropped {
            if other as usize == keep {
                continue;
            }
            kept.entry(other).or_default().add(w.get());
            let row = &mut adj[other as usize];
            let from_drop = row.remove(&(drop as u32)).map_or(0.0, Sum::get);
            row.entry(keep as u32).or_default().add(from_drop);
        }
        bound[keep] = best(keep, &kept, &size, threshold);
        if let Some(b) = bound[keep] {
            heap.push((b, keep as u32));
        }
        adj[keep] = kept;
    }

    let mut out: Vec<Vec<ObjectId>> = (0..n)
        .filter(|&c| size[c] > 0)
        .map(|c| {
            let mut m = Vec::with_capacity(size[c] as usize);
            let mut o = c as u32;
            while o != NIL {
                m.push(ObjectId(o));
                o = next[o as usize];
            }
            m.sort_unstable();
            m
        })
        .collect();
    out.sort_by_key(|c| c[0]);
    out
}

/// The single-heap kernel, kept as the parity reference for
/// [`average_linkage_clusters`].
#[cfg(test)]
mod reference {
    use super::IntHasher;
    use crate::similarity::CoAccessGraph;
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, HashMap};
    use std::hash::BuildHasherDefault;
    use tapesim_model::ObjectId;

    type IntMap<V> = HashMap<usize, V, BuildHasherDefault<IntHasher>>;

    #[derive(Debug)]
    struct Candidate {
        score: f64,
        a: usize,
        b: usize,
        ver_a: u32,
        ver_b: u32,
    }

    impl PartialEq for Candidate {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for Candidate {}

    impl Ord for Candidate {
        fn cmp(&self, other: &Self) -> Ordering {
            // Max-heap on score; deterministic tie-break on indices (smaller
            // pair wins).
            self.score
                .partial_cmp(&other.score)
                .expect("scores are finite")
                .then_with(|| other.a.cmp(&self.a))
                .then_with(|| other.b.cmp(&self.b))
        }
    }

    impl PartialOrd for Candidate {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    struct Cluster {
        members: Vec<ObjectId>,
        /// Sum of cross-pair weights to each other live cluster.
        adj: IntMap<f64>,
        version: u32,
    }

    /// Every edge once, as `(a, b, weight)` with `a < b`, in row order.
    pub(super) fn edges(graph: &CoAccessGraph) -> Vec<(ObjectId, ObjectId, f64)> {
        (0..graph.n_objects() as u32)
            .map(ObjectId)
            .flat_map(|a| {
                graph
                    .neighbours(a)
                    .filter(move |&(b, _)| a < b)
                    .map(move |(b, w)| (a, b, w))
            })
            .collect()
    }

    /// The kernel of record: every candidate, the initial edges included,
    /// goes through one lazy max-heap with per-cluster version stamps, over
    /// edges sorted by the float comparator.
    pub(super) fn average_linkage_clusters(
        graph: &CoAccessGraph,
        threshold: f64,
    ) -> Vec<Vec<ObjectId>> {
        let n = graph.n_objects();
        let mut clusters: Vec<Option<Cluster>> = (0..n)
            .map(|i| {
                Some(Cluster {
                    members: vec![ObjectId(i as u32)],
                    adj: IntMap::default(),
                    version: 0,
                })
            })
            .collect();

        let mut edges = edges(graph);
        edges.sort_by(|x, y| {
            y.2.partial_cmp(&x.2)
                .expect("weights are finite")
                .then(x.0.cmp(&y.0))
                .then(x.1.cmp(&y.1))
        });
        let mut heap = BinaryHeap::new();
        for (a, b, w) in edges {
            let (ia, ib) = (a.idx(), b.idx());
            clusters[ia].as_mut().unwrap().adj.insert(ib, w);
            clusters[ib].as_mut().unwrap().adj.insert(ia, w);
            if w >= threshold {
                heap.push(Candidate {
                    score: w,
                    a: ia.min(ib),
                    b: ia.max(ib),
                    ver_a: 0,
                    ver_b: 0,
                });
            }
        }

        while let Some(cand) = heap.pop() {
            if cand.score < threshold {
                break; // heap is score-ordered: nothing below can merge
            }
            let (Some(ca), Some(cb)) = (&clusters[cand.a], &clusters[cand.b]) else {
                continue; // one side already absorbed
            };
            if ca.version != cand.ver_a || cb.version != cand.ver_b {
                // Stale: revalidate with the live score (the sum may have
                // changed since this entry was pushed).
                if let Some(&sum) = ca.adj.get(&cand.b) {
                    let score = sum / (ca.members.len() as f64 * cb.members.len() as f64);
                    if score >= threshold {
                        heap.push(Candidate {
                            score,
                            a: cand.a,
                            b: cand.b,
                            ver_a: ca.version,
                            ver_b: cb.version,
                        });
                    }
                }
                continue;
            }

            // Merge the smaller cluster into the larger one.
            let (keep, drop) = if ca.members.len() >= cb.members.len() {
                (cand.a, cand.b)
            } else {
                (cand.b, cand.a)
            };
            let dropped = clusters[drop].take().expect("live cluster");
            let kept = clusters[keep].as_mut().expect("live cluster");
            kept.members.extend(dropped.members);
            kept.version += 1;
            kept.adj.remove(&drop);
            let kept_version = kept.version;
            let kept_len = kept.members.len();

            // Fold the dropped side's adjacency into the kept side and push
            // fresh candidates for exactly the pairs whose sum changed. Pairs
            // adjacent only to `keep` are revalidated lazily at pop time.
            for (&other, &w) in dropped.adj.iter() {
                if other == keep {
                    continue;
                }
                let kept = clusters[keep].as_mut().expect("live cluster");
                let sum = kept.adj.entry(other).or_insert(0.0);
                *sum += w;
                let sum = *sum;
                let oc = clusters[other].as_mut().expect("adjacent cluster is live");
                let from_drop = oc.adj.remove(&drop).unwrap_or(0.0);
                *oc.adj.entry(keep).or_insert(0.0) += from_drop;
                let score = sum / (kept_len as f64 * oc.members.len() as f64);
                if score >= threshold {
                    let (a, b) = (keep.min(other), keep.max(other));
                    let (ver_a, ver_b) = if a == keep {
                        (kept_version, oc.version)
                    } else {
                        (oc.version, kept_version)
                    };
                    heap.push(Candidate {
                        score,
                        a,
                        b,
                        ver_a,
                        ver_b,
                    });
                }
            }
        }

        let mut out: Vec<Vec<ObjectId>> = clusters
            .into_iter()
            .flatten()
            .map(|c| {
                let mut m = c.members;
                m.sort_unstable();
                m
            })
            .collect();
        out.sort_by_key(|c| c[0]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObjectRecord, Request, RequestSpec, Workload, WorkloadSpec};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    fn graph(n: usize, reqs: &[(f64, &[u32])]) -> CoAccessGraph {
        let requests: Vec<Request> = reqs
            .iter()
            .enumerate()
            .map(|(rank, (p, objs))| Request {
                rank: rank as u32,
                probability: *p,
                objects: objs.iter().map(|&o| ObjectId(o)).collect(),
            })
            .collect();
        CoAccessGraph::from_requests(n, &requests)
    }

    fn partition_size(cs: &[Vec<ObjectId>]) -> usize {
        cs.iter().map(|c| c.len()).sum()
    }

    #[test]
    fn disjoint_requests_cluster_separately() {
        let g = graph(8, &[(0.6, &[0, 1, 2]), (0.4, &[4, 5])]);
        let cs = average_linkage_clusters(&g, 0.1);
        assert!(cs.contains(&vec![ObjectId(0), ObjectId(1), ObjectId(2)]));
        assert!(cs.contains(&vec![ObjectId(4), ObjectId(5)]));
        assert_eq!(partition_size(&cs), 8);
    }

    #[test]
    fn threshold_blocks_weak_merges() {
        let g = graph(4, &[(0.9, &[0, 1]), (0.2, &[1, 2])]);
        let cs = average_linkage_clusters(&g, 0.5);
        assert!(cs.contains(&vec![ObjectId(0), ObjectId(1)]));
        assert!(cs.contains(&vec![ObjectId(2)]));
    }

    #[test]
    fn average_linkage_resists_chaining() {
        // A strong pair {0,1} and a strong pair {2,3} bridged by one weak
        // edge (1,2). Average linkage dilutes the bridge:
        // score({0,1},{2,3}) = 0.3/4 = 0.075 < threshold.
        let g = graph(4, &[(0.9, &[0, 1]), (0.9, &[2, 3]), (0.3, &[1, 2])]);
        let cs = average_linkage_clusters(&g, 0.25);
        assert!(cs.contains(&vec![ObjectId(0), ObjectId(1)]));
        assert!(cs.contains(&vec![ObjectId(2), ObjectId(3)]));
    }

    #[test]
    fn shared_object_requests_stay_separate() {
        // Two 5-object requests sharing one object: the bridge dilutes to
        // well under either request's internal cohesion.
        let g = graph(9, &[(0.5, &[0, 1, 2, 3, 4]), (0.5, &[4, 5, 6, 7, 8])]);
        let cs = average_linkage_clusters(&g, 0.25);
        let big: Vec<_> = cs.iter().filter(|c| c.len() >= 4).collect();
        assert_eq!(big.len(), 2, "two request cores: {cs:?}");
        // The shared object 4 belongs to exactly one of them.
        assert_eq!(partition_size(&cs), 9);
    }

    #[test]
    fn rising_scores_are_not_lost_by_lazy_revalidation() {
        // (0,1) strong; 2 connects weakly to 0 and to 1 separately — the
        // pair score of ({0,1}, {2}) is (0.2+0.2)/2 = 0.2, above a 0.15
        // threshold even though each single edge diluted alone would be
        // 0.2/2 = 0.1 after the first merge… the sum must be combined.
        let g = graph(3, &[(0.9, &[0, 1]), (0.2, &[0, 2]), (0.2, &[1, 2])]);
        let cs = average_linkage_clusters(&g, 0.15);
        assert_eq!(cs.len(), 1, "all three merge: {cs:?}");
    }

    #[test]
    fn object_listed_twice_in_a_request_still_partitions() {
        let g = graph(4, &[(0.5, &[0, 1, 1])]);
        let cs = average_linkage_clusters(&g, 0.1);
        assert_eq!(
            cs,
            vec![
                vec![ObjectId(0), ObjectId(1)],
                vec![ObjectId(2)],
                vec![ObjectId(3)]
            ]
        );
    }

    #[test]
    fn empty_graph_yields_singletons() {
        let g = graph(5, &[]);
        let cs = average_linkage_clusters(&g, 0.1);
        assert_eq!(cs.len(), 5);
        assert_eq!(partition_size(&cs), 5);
    }

    #[test]
    fn result_is_deterministic() {
        let g = graph(
            10,
            &[
                (0.5, &[0, 1, 2, 3]),
                (0.5, &[3, 4, 5]),
                (0.2, &[6, 7]),
                (0.2, &[8, 9]),
            ],
        );
        let a = average_linkage_clusters(&g, 0.15);
        let b = average_linkage_clusters(&g, 0.15);
        assert_eq!(a, b);
        assert_eq!(partition_size(&a), 10);
    }

    /// Random overlapping requests over `n_obj` objects with probability
    /// `∝ (rank+1)^-alpha`: `alpha = 0` ties every request, and so many
    /// pair weights and scores.
    fn random_requests(seed: u64, n_obj: u32, n_req: usize, alpha: f64) -> Vec<Request> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let weight = |rank: usize| ((rank + 1) as f64).powf(-alpha);
        let norm: f64 = (0..n_req).map(weight).sum();
        (0..n_req)
            .map(|rank| {
                let k = rng.gen_range(2..=n_obj.min(16));
                let mut objects: Vec<ObjectId> =
                    (0..k).map(|_| ObjectId(rng.gen_range(0..n_obj))).collect();
                objects.sort_unstable();
                objects.dedup();
                Request {
                    rank: rank as u32,
                    probability: weight(rank) / norm,
                    objects,
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The best-neighbour kernel, from the CSR and from request-built
        /// rows, returns exactly the reference partition, under tied
        /// (uniform) and Zipf-like probabilities, at thresholds
        /// across the weight range: an edge weight, or a half, third or
        /// quarter of one, which average scores hit exactly.
        #[test]
        fn matches_reference_kernel(
            seed in any::<u64>(),
            n_obj in 4u32..80,
            n_req in 1usize..40,
            uniform in any::<bool>(),
            alpha in 0.1f64..1.5,
            pick in 0.0f64..1.0,
            div in 1u32..5,
        ) {
            let alpha = if uniform { 0.0 } else { alpha };
            let reqs = random_requests(seed, n_obj, n_req, alpha);
            let g = CoAccessGraph::from_requests(n_obj as usize, &reqs);
            let edges = reference::edges(&g);
            let at = (pick * edges.len() as f64) as usize;
            let threshold = edges.get(at).map_or(0.5, |e| e.2) / div as f64;
            let clusters = average_linkage_clusters(&g, threshold);
            prop_assert_eq!(
                &request_linkage_clusters(n_obj as usize, &reqs, threshold),
                &clusters
            );
            prop_assert_eq!(clusters, reference::average_linkage_clusters(&g, threshold));
        }
    }

    #[test]
    fn sum_round_trips_bit_for_bit() {
        for x in [0.0, f64::from_bits(1), 1.0 / 3.0, f64::MAX] {
            assert_eq!(Sum::new(x).get().to_bits(), x.to_bits(), "{x:e}");
        }
        assert_eq!(Sum::default().get().to_bits(), 0.0f64.to_bits());
    }

    /// A workload over `n_obj` unit-size objects whose requests stress what
    /// the row build must fold exactly: some requests are subsets of an
    /// earlier one (nested), some list an object twice, and under
    /// `uniform` every probability ties.
    fn nested_workload(seed: u64, n_obj: u32, n_req: usize, uniform: bool) -> Workload {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let objects = (0..n_obj)
            .map(|i| ObjectRecord {
                id: ObjectId(i),
                size: tapesim_model::Bytes::gb(1),
            })
            .collect();
        let mut sets: Vec<Vec<ObjectId>> = Vec::new();
        for _ in 0..n_req {
            let mut objects: Vec<ObjectId> = match sets.len() {
                n if n > 0 && rng.gen_bool(0.4) => {
                    let outer = &sets[rng.gen_range(0..n)];
                    outer
                        .iter()
                        .copied()
                        .filter(|_| rng.gen_bool(0.7))
                        .collect()
                }
                _ => {
                    let k = rng.gen_range(2..=n_obj.min(12));
                    (0..k).map(|_| ObjectId(rng.gen_range(0..n_obj))).collect()
                }
            };
            if !objects.is_empty() && rng.gen_bool(0.2) {
                objects.push(objects[rng.gen_range(0..objects.len())]);
            }
            sets.push(objects);
        }
        let weights: Vec<f64> = (0..n_req)
            .map(|_| {
                if uniform {
                    1.0
                } else {
                    rng.gen_range(0.05..1.0)
                }
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let requests = sets
            .into_iter()
            .zip(&weights)
            .enumerate()
            .map(|(rank, (objects, w))| Request {
                rank: rank as u32,
                probability: w / total,
                objects,
            })
            .collect();
        Workload::new(objects, requests)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The partition path (linkage maps filled from request-built rows),
        /// the CSR entry point and the reference kernel return one
        /// partition, with objects listed twice, nested requests and tied
        /// probabilities.
        #[test]
        fn request_rows_match_csr_and_reference(
            seed in any::<u64>(),
            n_obj in 2u32..60,
            n_req in 1usize..30,
            uniform in any::<bool>(),
        ) {
            let w = nested_workload(seed, n_obj, n_req, uniform);
            let threshold = w.co_access_threshold();
            let g = CoAccessGraph::from_workload(&w);
            let via_graph = average_linkage_clusters(&g, threshold);
            prop_assert_eq!(w.co_access_clusters(), &via_graph[..]);
            prop_assert_eq!(via_graph, reference::average_linkage_clusters(&g, threshold));
        }
    }

    /// FNV-1a over the little-endian cluster index of each object.
    fn membership_fingerprint(n_objects: usize, clusters: &[Vec<ObjectId>]) -> u64 {
        let mut membership = vec![0u64; n_objects];
        for (i, c) in clusters.iter().enumerate() {
            for o in c {
                membership[o.idx()] = i as u64;
            }
        }
        let bytes: Vec<u8> = membership.iter().flat_map(|m| m.to_le_bytes()).collect();
        tapesim_obs::fnv1a64(&bytes)
    }

    /// A §6-shaped workload at a fifth of the paper's scale (each object
    /// in ~1.25 requests, as in the paper) pins the partition: cluster
    /// count and FNV-1a of the membership map, as the single-heap kernel
    /// returned them before the edge stream and then the best-neighbour
    /// kernel replaced it.
    #[test]
    fn mid_size_partition_fingerprint() {
        let w = WorkloadSpec {
            objects: 6_000,
            requests: RequestSpec {
                count: 60,
                ..RequestSpec::default()
            },
            ..WorkloadSpec::default()
        }
        .generate();
        let clusters = w.co_access_clusters();
        let fingerprint = (
            clusters.len(),
            membership_fingerprint(w.objects().len(), clusters),
        );
        assert_eq!(
            fingerprint,
            (1869, 0xd91a_33be_d517_5976),
            "{fingerprint:x?}"
        );
    }

    /// The paper's §6 workload itself (`WorkloadSpec::default()`: 30 000
    /// objects, 300 requests, 2.2 M edges) pins the full-scale partition:
    /// cluster count, largest cluster and the membership fingerprint, as
    /// the edge-stream kernel returned them before the best-neighbour
    /// kernel replaced it.
    #[test]
    fn paper_scale_partition_fingerprint() {
        let w = WorkloadSpec::default().generate();
        let clusters = w.co_access_clusters();
        let largest = clusters.iter().map(Vec::len).max();
        let fingerprint = (
            clusters.len(),
            largest,
            membership_fingerprint(w.objects().len(), clusters),
        );
        assert_eq!(
            fingerprint,
            (9120, Some(146), 0xe9f5_9cd9_093b_3bb8),
            "{fingerprint:x?}"
        );
    }
}
