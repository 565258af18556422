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
//! cluster key and the sum's bytes at alignment 1. On the partition path
//! a scoped producer thread runs the row builder and hands its rows over
//! a bounded channel in flat chunks, whose buffers come back to it for
//! reuse, while the calling thread fills the maps and the initial bounds
//! from them in object order. The maps are allocated on the calling
//! thread only, the producer is joined before the merges begin, and its
//! panic is re-raised there. There is one code path on every host: on
//! one CPU the two threads take turns.
//!
//! The kernel is the "generic" lazy best-neighbour scheme of Müllner
//! (*Modern hierarchical, agglomerative clustering algorithms*,
//! arXiv:1109.2378): a max-heap holds one live entry per cluster, keyed
//! by that cluster's *bound*, a candidate `(score, smaller pair)` at or
//! above the threshold.
//!
//! * A popped entry whose bound is still its cluster's bound is checked
//!   first: if its pair is still live and scores exactly as it did (the
//!   same `sum / (|A|·|B|)` a rescan computes), it merges with no rescan.
//!   Otherwise the cluster is rescanned for its exact best candidate,
//!   which becomes the bound and is re-pushed (or the cluster leaves the
//!   heap if nothing qualifies). A rescan never confirms the popped
//!   bound: a candidate names its pair, so an equal one was still exact.
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
//! still exact is the greatest live pair, and the merge sequence, every
//! pair's float fold order and the partition are those of one heap
//! holding every candidate (the `reference` kernel in the tests).
//! Candidates compare as two integers: the score's total-order bits,
//! then the bit-inverted packed `(a, b)`.
//!
//! Both rows of a live pair hold the same sum bit for bit, so a fold
//! probes the neighbour's map once: it adds the dropped side's weight on
//! the kept side (IEEE addition commutes, so this is the sum the
//! neighbour would compute) and writes the result under the kept id. The
//! dropped id stays in the neighbour's map as a *dead key*, one whose
//! cluster has size 0: folds skip dead keys, and a rescan purges those it
//! meets while it scans. An absorbed cluster's own map is emptied and
//! never written again.
//!
//! On the paper-scale graph (2.2 M edges, 30 000 vertices, 9 120
//! clusters) the 20 880 merges take 99 695 pops, 78 815 of them live, and
//! 3.56 M folds. Every merge is of a still-exact bound, so a live pop
//! rescans only when its bound went stale (57 935 times) and each merge
//! rescans its kept cluster: 78 815 rescans over 35.9 M map entries, dead
//! keys included, after 30 000 initial bounds read from the rows' 4.4 M
//! entries. Rescanning on every live pop and removing the dropped id from
//! each neighbour's map took 99 695 rescans over 50.9 M entries. Most of
//! the cost is the folds and rescans, not the heap.

use crate::similarity::{order_key, CoAccessGraph, RowBuilder};
use crate::Request;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread;
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

/// Rows per chunk the row producer hands to the kernel.
const ROW_CHUNK: usize = 64;
/// Full chunks the channel holds before the producer waits for the
/// kernel.
const CHUNK_BOUND: usize = 4;

/// The score of a pair of clusters of `len` and `other_len` objects
/// whose cross weight sums to `sum`.
#[inline]
fn score(sum: Sum, len: u32, other_len: u32) -> f64 {
    sum.get() / (len as f64 * other_len as f64)
}

/// The best candidate of cluster `c` at or above `threshold`, if any.
/// Purges the dead keys of `adj`, those of absorbed clusters.
fn best(c: usize, adj: &mut IntMap<Sum>, size: &[u32], threshold: f64) -> Option<Candidate> {
    #[cfg(test)]
    counters::note_scan(adj.len());
    let len = size[c];
    let mut best = None;
    adj.retain(|&other, &mut sum| {
        let other_len = size[other as usize];
        if other_len == 0 {
            return false;
        }
        let score = score(sum, len, other_len);
        if score >= threshold {
            best = best.max(Some(Candidate::new(score, c, other as usize)));
        }
        true
    });
    best
}

/// Whether `cand`, a bound of live cluster `c`, is still the exact
/// candidate of its pair: the other side is live and the pair scores as
/// [`best`] would score it now.
fn still_exact(cand: Candidate, c: usize, adj: &IntMap<Sum>, size: &[u32]) -> bool {
    let other = if cand.a() == c { cand.b() } else { cand.a() };
    size[other] > 0
        && adj
            .get(&(other as u32))
            .is_some_and(|&sum| Candidate::new(score(sum, size[c], size[other]), c, other) == cand)
}

/// One object's adjacency map from its row, reserved to the vertex degree.
fn row_map((ids, sums): (&[u32], &[f64])) -> IntMap<Sum> {
    let mut map = IntMap::with_capacity_and_hasher(ids.len(), Default::default());
    map.extend(ids.iter().zip(sums).map(|(&b, &w)| (b, Sum::new(w))));
    map
}

/// The initial bound of object `a` from its row: [`best`] of a
/// singleton, whose pairs score `w / (1·1) = w`.
fn row_bound(a: usize, (ids, sums): (&[u32], &[f64]), threshold: f64) -> Option<Candidate> {
    ids.iter()
        .zip(sums)
        .filter(|&(_, &w)| w >= threshold)
        .map(|(&b, &w)| Candidate::new(w, a, b as usize))
        .max()
}

/// The kernel's per-object state, filled one row at a time in object
/// order.
struct Rows {
    adj: Vec<IntMap<Sum>>,
    bound: Vec<Option<Candidate>>,
    threshold: f64,
}

impl Rows {
    fn with_capacity(n: usize, threshold: f64) -> Rows {
        Rows {
            adj: Vec::with_capacity(n),
            bound: Vec::with_capacity(n),
            threshold,
        }
    }

    fn push(&mut self, row: (&[u32], &[f64])) {
        let a = self.adj.len();
        self.bound.push(row_bound(a, row, self.threshold));
        self.adj.push(row_map(row));
    }
}

/// Flat average-linkage clusters of `graph` at similarity `threshold`.
///
/// Returns a partition of all objects (singletons included), clusters
/// ordered by smallest member, members ascending.
pub fn average_linkage_clusters(graph: &CoAccessGraph, threshold: f64) -> Vec<Vec<ObjectId>> {
    let mut rows = Rows::with_capacity(graph.n_objects(), threshold);
    for a in 0..graph.n_objects() {
        rows.push(graph.row(a));
    }
    linkage(rows)
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
    chunked_linkage(n_objects, requests, threshold, ROW_CHUNK)
}

/// Rows back to back: row `i` is `ids`/`sums` from `ends[i - 1]` (0 for
/// the first) to `ends[i]`.
#[derive(Default)]
struct RowChunk {
    ids: Vec<u32>,
    sums: Vec<f64>,
    ends: Vec<usize>,
}

/// [`request_linkage_clusters`] with `chunk` rows to a chunk.
///
/// A scoped producer thread builds the rows and hands them over a bounded
/// channel, `chunk` rows at a time, while this thread fills the maps and
/// initial bounds from them in object order; emptied chunks go back to the
/// producer. The maps are allocated here, not on the producer. The
/// producer is joined before linkage starts, and a producer panic is
/// re-raised here.
fn chunked_linkage(
    n_objects: usize,
    requests: &[Request],
    threshold: f64,
    chunk: usize,
) -> Vec<Vec<ObjectId>> {
    let builder = RowBuilder::from_requests(n_objects, requests);
    let mut rows = Rows::with_capacity(n_objects, threshold);
    let (full_tx, full_rx) = mpsc::sync_channel(CHUNK_BOUND);
    let (empty_tx, empty_rx) = mpsc::channel();
    thread::scope(|s| {
        let producer = s.spawn(move || produce(builder, n_objects, chunk, full_tx, empty_rx));
        // The loop ends when the producer hangs up, done or panicked.
        for mut c in full_rx {
            let RowChunk { ids, sums, ends } = &mut c;
            let mut start = 0;
            for &end in ends.iter() {
                rows.push((&ids[start..end], &sums[start..end]));
                start = end;
            }
            ids.clear();
            sums.clear();
            ends.clear();
            // A producer that has sent its last chunk takes no spares.
            empty_tx.send(c).ok();
        }
        if let Err(panic) = producer.join() {
            std::panic::resume_unwind(panic);
        }
    });
    linkage(rows)
}

/// The producer: every row of `builder` in object order, `chunk` rows to a
/// sent chunk, reusing chunks the kernel hands back. Stops early if the
/// kernel hangs up, which only a panic makes it do.
fn produce(
    mut builder: RowBuilder<'_>,
    n_objects: usize,
    chunk: usize,
    full: SyncSender<RowChunk>,
    empty: Receiver<RowChunk>,
) {
    let mut c = RowChunk::default();
    for a in 0..n_objects {
        let (ids, sums) = builder.row(a);
        c.ids.extend_from_slice(ids);
        c.sums.extend_from_slice(sums);
        c.ends.push(c.ids.len());
        if c.ends.len() == chunk || a + 1 == n_objects {
            if full.send(c).is_err() {
                return;
            }
            c = empty.try_recv().unwrap_or_default();
        }
    }
}

/// The kernel over per-object adjacency maps and their initial bounds.
fn linkage(rows: Rows) -> Vec<Vec<ObjectId>> {
    let Rows {
        mut adj,
        mut bound,
        threshold,
    } = rows;
    let n = adj.len();
    // Cluster sizes (0 once absorbed) and member lists: `next` links a
    // cluster's objects from its id, `last` is the list's tail.
    let mut size = vec![1u32; n];
    let mut next = vec![NIL; n];
    let mut last: Vec<u32> = (0..n as u32).collect();

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
        // A bound whose pair still scores as it did is the greatest live
        // pair and merges as it is; any other is rescanned.
        if !still_exact(cand, owner, &adj[owner], &size) {
            let exact = best(owner, &mut adj[owner], &size, threshold);
            bound[owner] = exact;
            let Some(exact) = exact else { continue };
            if exact != cand {
                heap.push((exact, owner as u32));
                continue;
            }
            #[cfg(test)]
            counters::note_rescanned_merge();
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

        // Fold the dropped side's adjacency into the kept side. Both rows
        // of a live pair hold the same sum, so the kept side's new sum is
        // the neighbour's too; `drop` stays in the neighbour's row as a
        // dead key until a rescan purges it. Every pair whose sum changes
        // has `keep` as a side, and `keep` is rescanned below; every other
        // pair only loses score as a side grows.
        for (&other, &w) in &dropped {
            if other as usize == keep || size[other as usize] == 0 {
                continue;
            }
            let sum = kept.entry(other).or_default();
            sum.add(w.get());
            adj[other as usize].insert(keep as u32, *sum);
        }
        bound[keep] = best(keep, &mut kept, &size, threshold);
        if let Some(b) = bound[keep] {
            heap.push((b, keep as u32));
        }
        adj[keep] = kept;
    }

    #[cfg(test)]
    assert!(
        (0..n).all(|c| size[c] > 0 || adj[c].is_empty()),
        "a fold wrote into an absorbed cluster's row"
    );

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

/// Per-thread kernel counters, read by the tests.
#[cfg(test)]
mod counters {
    use std::cell::Cell;

    thread_local! {
        /// Full rescans ([`super::best`] calls) on this thread.
        pub(super) static SCANS: Cell<u64> = const { Cell::new(0) };
        /// Map entries those rescans visited, dead keys included.
        pub(super) static ENTRIES: Cell<u64> = const { Cell::new(0) };
        /// Merges of a popped bound that a rescan confirmed. A bound that
        /// rescan confirms was still exact, so none should happen.
        pub(super) static RESCANNED_MERGES: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn note_scan(entries: usize) {
        SCANS.with(|c| c.set(c.get() + 1));
        ENTRIES.with(|c| c.set(c.get() + entries as u64));
    }

    pub(super) fn note_rescanned_merge() {
        RESCANNED_MERGES.with(|c| c.set(c.get() + 1));
    }

    /// Zeroes every counter on this thread.
    pub(super) fn reset() {
        for c in [&SCANS, &ENTRIES, &RESCANNED_MERGES] {
            c.with(|c| c.set(0));
        }
    }
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

    /// Requests over `n_obj` objects: random overlapping ones, or for a
    /// lone object one request listing it twice (no pair), or none.
    fn chunk_case(seed: u64, n_obj: u32) -> Vec<Request> {
        match n_obj {
            0 => Vec::new(),
            1 => vec![Request {
                rank: 0,
                probability: 1.0,
                objects: vec![ObjectId(0), ObjectId(0)],
            }],
            _ => random_requests(seed, n_obj, 12, 0.8),
        }
    }

    /// The producer's chunking cannot move a row: chunks of 1, 2 and 7
    /// rows and the default, over 0 and 1 objects and one object either
    /// side of a chunk and of two, give the partition of the CSR entry
    /// point and of the reference kernel.
    #[test]
    fn every_row_chunk_gives_the_reference_partition() {
        for chunk in [1, 2, 7, ROW_CHUNK] {
            for n_obj in [0, 1, chunk - 1, chunk + 1, 2 * chunk + 1] {
                for seed in 0..4 {
                    let reqs = chunk_case(seed, n_obj as u32);
                    let g = CoAccessGraph::from_requests(n_obj, &reqs);
                    let edges = reference::edges(&g);
                    let threshold = edges.get(edges.len() / 2).map_or(0.5, |e| e.2) / 2.0;
                    let want = reference::average_linkage_clusters(&g, threshold);
                    assert_eq!(partition_size(&want), n_obj);
                    assert_eq!(average_linkage_clusters(&g, threshold), want);
                    assert_eq!(
                        chunked_linkage(n_obj, &reqs, threshold, chunk),
                        want,
                        "chunk {chunk}, {n_obj} objects, seed {seed}"
                    );
                }
            }
        }
    }

    /// On the mid-size workload every bound that stayed exact merges
    /// without a rescan (no rescan ever confirms a popped bound), and the
    /// rescan count is pinned: one per merge for the kept cluster plus
    /// one per popped bound that went stale.
    #[test]
    fn still_exact_bounds_merge_without_a_rescan() {
        let w = WorkloadSpec {
            objects: 6_000,
            requests: RequestSpec {
                count: 60,
                ..RequestSpec::default()
            },
            ..WorkloadSpec::default()
        }
        .generate();
        counters::reset();
        let clusters =
            request_linkage_clusters(w.objects().len(), w.requests(), w.co_access_threshold());
        assert_eq!(clusters.len(), 1869);
        let count = |c: &'static std::thread::LocalKey<std::cell::Cell<u64>>| c.with(|c| c.get());
        assert_eq!(count(&counters::RESCANNED_MERGES), 0);
        assert_eq!(count(&counters::SCANS), 14_356);
        assert_eq!(count(&counters::ENTRIES), 3_436_271);
    }
}
