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
//! (fast integer hashing, reserved to the vertex degree); merging is
//! smaller-into-larger. Merge candidates are popped greatest first by
//! `(score, smaller pair)` from two sources:
//!
//! * the graph's own weight-descending edge array, read through a cursor.
//!   It is already in candidate order, so the initial edges never enter a
//!   heap, and a pair with an absorbed side is skipped with an `Option`
//!   check;
//! * a lazy max-heap holding only the candidates merges create: a fresh
//!   one for each pair whose weight sum changed (the dropped side's
//!   neighbours), and a revalidated one for each stale pop.
//!
//! A popped candidate merges iff its score is still the pair's live
//! score; otherwise the live score is re-pushed if it still reaches the
//! threshold. A pair's score rises only when its sum changes, which
//! pushes a fresh candidate, so every live pair above the threshold
//! keeps a candidate at or above its live key and each merge is the
//! greatest live pair. The merge sequence, every pair's float fold order
//! and the partition are therefore those of one heap holding every
//! candidate (the `reference` kernel in the tests). Candidates compare
//! as two integers: the score's total-order bits, then the bit-inverted
//! packed `(a, b)`.
//!
//! On the paper-scale graph (2.2 M edges, 30 000 vertices, 9 120
//! clusters) the initial edges cost no heap operation, the 2.15 M of them
//! whose pair lost a side first cost one check each, and the heap peaks
//! at 0.71 M candidates. In traced `paper-figure` runs (seed 7, 2-CPU
//! host) `cluster.linkage_s` is 1.78–1.90 s, against 3.46–3.84 s for
//! the reference kernel, whose heap holds every edge.

use crate::similarity::{order_key, CoAccessGraph};
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
    fn write_usize(&mut self, i: usize) {
        self.0 = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// `HashMap` keyed by small integers with [`IntHasher`].
pub type IntMap<V> = HashMap<usize, V, BuildHasherDefault<IntHasher>>;

/// A merge candidate of clusters `a < b`, greatest first: the higher
/// score, then the smaller pair (`pair` is the packed `(a, b)`, bit
/// inverted).
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
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

struct Cluster {
    members: Vec<ObjectId>,
    /// Sum of cross-pair weights to each other live cluster.
    adj: IntMap<f64>,
}

/// Flat average-linkage clusters of `graph` at similarity `threshold`.
///
/// Returns a partition of all objects (singletons included), clusters
/// ordered by smallest member, members ascending.
pub fn average_linkage_clusters(graph: &CoAccessGraph, threshold: f64) -> Vec<Vec<ObjectId>> {
    let edges = graph.edges_by_weight_desc();
    let mut degree = vec![0usize; graph.n_objects()];
    for &(a, b, _) in edges {
        degree[a.idx()] += 1;
        degree[b.idx()] += 1;
    }
    let mut adj: Vec<IntMap<f64>> = degree
        .into_iter()
        .map(|d| IntMap::with_capacity_and_hasher(d, Default::default()))
        .collect();
    for &(a, b, w) in edges {
        adj[a.idx()].insert(b.idx(), w);
        adj[b.idx()].insert(a.idx(), w);
    }
    let mut clusters: Vec<Option<Cluster>> = adj
        .into_iter()
        .enumerate()
        .map(|(i, adj)| {
            Some(Cluster {
                members: vec![ObjectId(i as u32)],
                adj,
            })
        })
        .collect();

    // The initial candidates: every edge at or above the threshold, in
    // candidate order already.
    let mut stream = &edges[..edges.partition_point(|e| e.2 >= threshold)];
    let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
    loop {
        // A pair with an absorbed side is a no-op whenever it pops.
        while let [(a, b, _), rest @ ..] = stream {
            if clusters[a.idx()].is_some() && clusters[b.idx()].is_some() {
                break;
            }
            stream = rest;
        }
        let cand = match stream.split_first() {
            Some((&(a, b, w), rest)) => {
                let head = Candidate::new(w, a.idx(), b.idx());
                if heap.peek().is_some_and(|top| *top > head) {
                    heap.pop()
                } else {
                    stream = rest;
                    Some(head)
                }
            }
            None => heap.pop(),
        };
        let Some(cand) = cand else { break };

        let (a, b) = (cand.a(), cand.b());
        let (Some(ca), Some(cb)) = (&clusters[a], &clusters[b]) else {
            continue; // one side already absorbed
        };
        // A candidate merges iff its score is the pair's live score; two
        // singletons still hold their initial edge weight. Otherwise it is
        // stale: re-push the live score if it still qualifies.
        if ca.members.len() > 1 || cb.members.len() > 1 {
            let Some(&sum) = ca.adj.get(&b) else {
                continue; // live candidates are adjacent
            };
            let score = sum / (ca.members.len() as f64 * cb.members.len() as f64);
            if order_key(score) != cand.score {
                if score >= threshold {
                    heap.push(Candidate::new(score, a, b));
                }
                continue;
            }
        }

        // Merge the smaller cluster into the larger one.
        let (keep, drop) = if ca.members.len() >= cb.members.len() {
            (a, b)
        } else {
            (b, a)
        };
        let (Some(mut kept), Some(dropped)) = (clusters[keep].take(), clusters[drop].take()) else {
            continue; // both checked live above
        };
        kept.members.extend(dropped.members);
        kept.adj.remove(&drop);
        let kept_len = kept.members.len();

        // Fold the dropped side's adjacency into the kept side and push
        // fresh candidates for exactly the pairs whose sum changed. Pairs
        // adjacent only to `keep` are revalidated lazily at pop time.
        for (&other, &w) in &dropped.adj {
            if other == keep {
                continue;
            }
            let sum = kept.adj.entry(other).or_insert(0.0);
            *sum += w;
            let sum = *sum;
            let Some(oc) = &mut clusters[other] else {
                continue; // adjacency holds live clusters only
            };
            let from_drop = oc.adj.remove(&drop).unwrap_or(0.0);
            *oc.adj.entry(keep).or_insert(0.0) += from_drop;
            let score = sum / (kept_len as f64 * oc.members.len() as f64);
            if score >= threshold {
                heap.push(Candidate::new(score, keep, other));
            }
        }
        clusters[keep] = Some(kept);
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

/// The single-heap kernel the edge stream replaced, kept as the parity
/// reference for [`average_linkage_clusters`].
#[cfg(test)]
mod reference {
    use super::IntMap;
    use crate::similarity::CoAccessGraph;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;
    use tapesim_model::ObjectId;

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

        let mut edges = graph.edges_by_weight_desc().to_vec();
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
    use crate::ClusterParams;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;
    use tapesim_workload::{Request, RequestSpec, WorkloadSpec};

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
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The streamed kernel returns exactly the reference partition,
        /// under tied (uniform) and Zipf-like probabilities, at thresholds
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
            let edges = g.edges_by_weight_desc();
            let at = (pick * edges.len() as f64) as usize;
            let threshold = edges.get(at).map_or(0.5, |e| e.2) / div as f64;
            prop_assert_eq!(
                average_linkage_clusters(&g, threshold),
                reference::average_linkage_clusters(&g, threshold)
            );
        }
    }

    /// A §6-shaped workload at a fifth of the paper's scale (each object
    /// in ~1.25 requests, as in the paper) pins the partition: cluster
    /// count and FNV-1a of the membership map, as the single-heap kernel
    /// returned them before the edge stream replaced it.
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
        let set = ClusterParams::default().cluster(&w);
        let bytes: Vec<u8> = set
            .membership()
            .iter()
            .flat_map(|&m| (m as u64).to_le_bytes())
            .collect();
        let fingerprint = (set.clusters().len(), tapesim_obs::fnv1a64(&bytes));
        assert_eq!(
            fingerprint,
            (1869, 0xd91a_33be_d517_5976),
            "{fingerprint:x?}"
        );
    }
}
