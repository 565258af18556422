//! Single-linkage hierarchical clustering.
//!
//! Built with Kruskal's algorithm over edges sorted by descending
//! similarity: every successful union records a merge node, giving the
//! single-linkage dendrogram of the co-access graph in O(E log E).
//!
//! Because Kruskal consumes edges in non-increasing weight order, merge
//! weights along any root path are non-increasing — a *threshold cut* is a
//! prefix of the merge list, and every subtree of a qualifying merge also
//! qualifies. [`Dendrogram::cut_with_caps`] exploits the tree structure for
//! the paper's §5.1 size rule: an oversized cluster is split at its weakest
//! merge (the subtree root), recursively, which severs the least-similar
//! boundary first.

use crate::similarity::CoAccessGraph;
use crate::unionfind::UnionFind;
use tapesim_model::{Bytes, ObjectId};

/// One agglomeration step. Node ids `< n_leaves` are objects; node id
/// `n_leaves + i` is `merges[i]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// First child node.
    pub left: usize,
    /// Second child node.
    pub right: usize,
    /// Similarity at which the children merged.
    pub weight: f64,
}

/// A single-linkage dendrogram (in general a forest: objects that never
/// co-occur stay unconnected).
#[derive(Debug, Clone)]
pub struct Dendrogram {
    n_leaves: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Builds the dendrogram of `graph` by Kruskal's algorithm.
    pub fn single_linkage(graph: &CoAccessGraph) -> Dendrogram {
        let n = graph.n_objects();
        let mut uf = UnionFind::new(n);
        // Current tree node representing each DSU root.
        let mut node_of: Vec<usize> = (0..n).collect();
        let mut merges = Vec::new();
        for &(a, b, w) in graph.edges_by_weight_desc() {
            let (ra, rb) = (uf.find(a.idx()), uf.find(b.idx()));
            if ra == rb {
                continue;
            }
            let new_node = n + merges.len();
            merges.push(Merge {
                left: node_of[ra],
                right: node_of[rb],
                weight: w,
            });
            uf.union(ra, rb);
            let root = uf.find(ra);
            node_of[root] = new_node;
        }
        Dendrogram {
            n_leaves: n,
            merges,
        }
    }

    /// Number of leaf objects.
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// The merge steps, in the order they occurred (non-increasing weight).
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// All leaf objects under `node`, ascending.
    pub fn leaves_of(&self, node: usize) -> Vec<ObjectId> {
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            if n < self.n_leaves {
                out.push(ObjectId(n as u32));
            } else {
                let m = self.merges[n - self.n_leaves];
                stack.push(m.left);
                stack.push(m.right);
            }
        }
        out.sort_unstable();
        out
    }

    /// Flat clusters at similarity `threshold`: objects joined by merges of
    /// weight ≥ `threshold`. Singletons included; the result partitions the
    /// population. Clusters ordered by smallest member.
    pub fn cut(&self, threshold: f64) -> Vec<Vec<ObjectId>> {
        let mut uf = UnionFind::new(self.n_leaves);
        // Merge weights are non-increasing, so qualifying merges are a
        // prefix — but walk the whole list to stay robust to exact ties.
        for m in &self.merges {
            if m.weight >= threshold {
                let la = self.any_leaf(m.left);
                let lb = self.any_leaf(m.right);
                uf.union(la, lb);
            }
        }
        uf.groups()
            .into_iter()
            .map(|g| g.into_iter().map(|x| ObjectId(x as u32)).collect())
            .collect()
    }

    /// Like [`Dendrogram::cut`], but recursively splits any cluster larger
    /// than `max_objects` members or `max_bytes` total size at its weakest
    /// merge. A single leaf larger than `max_bytes` is kept as a singleton.
    pub fn cut_with_caps(
        &self,
        threshold: f64,
        max_objects: usize,
        max_bytes: Bytes,
        size_of: &dyn Fn(ObjectId) -> Bytes,
    ) -> Vec<Vec<ObjectId>> {
        assert!(max_objects >= 1, "cap must allow at least one object");
        // Roots of the cut forest: qualifying merge nodes that are not a
        // child of another qualifying merge, plus leaves never merged at or
        // above the threshold.
        let qualifies: Vec<bool> = self.merges.iter().map(|m| m.weight >= threshold).collect();
        let mut is_child = vec![false; self.n_leaves + self.merges.len()];
        for (i, m) in self.merges.iter().enumerate() {
            if qualifies[i] {
                is_child[m.left] = true;
                is_child[m.right] = true;
            }
        }
        let mut out = Vec::new();
        // Leaf roots (never merged above threshold).
        for (leaf, _) in is_child
            .iter()
            .enumerate()
            .take(self.n_leaves)
            .filter(|(_, &c)| !c)
        {
            out.push(vec![ObjectId(leaf as u32)]);
        }
        // Merge-node roots, split to caps.
        for (i, _) in self
            .merges
            .iter()
            .enumerate()
            .filter(|(i, _)| qualifies[*i])
        {
            let node = self.n_leaves + i;
            if !is_child[node] {
                self.split_node(node, max_objects, max_bytes, size_of, &mut out);
            }
        }
        out.sort_by_key(|c| c[0]);
        out
    }

    fn split_node(
        &self,
        node: usize,
        max_objects: usize,
        max_bytes: Bytes,
        size_of: &dyn Fn(ObjectId) -> Bytes,
        out: &mut Vec<Vec<ObjectId>>,
    ) {
        if node < self.n_leaves {
            out.push(vec![ObjectId(node as u32)]);
            return;
        }
        let leaves = self.leaves_of(node);
        let total: Bytes = leaves.iter().map(|&o| size_of(o)).sum();
        if leaves.len() <= max_objects && total <= max_bytes {
            out.push(leaves);
            return;
        }
        let m = self.merges[node - self.n_leaves];
        self.split_node(m.left, max_objects, max_bytes, size_of, out);
        self.split_node(m.right, max_objects, max_bytes, size_of, out);
    }

    /// Any one leaf under `node` (the leftmost), used to address DSU sets.
    fn any_leaf(&self, mut node: usize) -> usize {
        while node >= self.n_leaves {
            node = self.merges[node - self.n_leaves].left;
        }
        node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_model::ObjectId;
    use tapesim_workload::Request;

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

    #[test]
    fn merge_weights_are_non_increasing() {
        let g = graph(
            8,
            &[(0.5, &[0, 1, 2]), (0.3, &[2, 3]), (0.2, &[4, 5, 6, 7])],
        );
        let d = Dendrogram::single_linkage(&g);
        for pair in d.merges().windows(2) {
            assert!(pair[0].weight >= pair[1].weight);
        }
    }

    #[test]
    fn cut_recovers_components() {
        let g = graph(6, &[(0.6, &[0, 1]), (0.4, &[2, 3, 4])]);
        let d = Dendrogram::single_linkage(&g);
        let at_half = d.cut(0.5);
        assert!(at_half.contains(&vec![ObjectId(0), ObjectId(1)]));
        assert!(at_half.contains(&vec![ObjectId(2)]), "0.4-edges cut away");
        let at_low = d.cut(0.1);
        assert!(at_low.contains(&vec![ObjectId(2), ObjectId(3), ObjectId(4)]));
        // Partition property.
        let count: usize = at_low.iter().map(|c| c.len()).sum();
        assert_eq!(count, 6);
    }

    #[test]
    fn cut_with_caps_splits_at_weakest_merge() {
        // Chain: {0,1} strong (0.9), {2,3} strong (0.8), bridged weakly (0.5).
        let g = graph(4, &[(0.9, &[0, 1]), (0.8, &[2, 3]), (0.5, &[1, 2])]);
        let d = Dendrogram::single_linkage(&g);
        let whole = d.cut(0.4);
        assert_eq!(whole.len(), 1, "all four objects chain together");
        let capped = d.cut_with_caps(0.4, 2, Bytes(u64::MAX), &|_| Bytes::gb(1));
        assert_eq!(
            capped,
            vec![
                vec![ObjectId(0), ObjectId(1)],
                vec![ObjectId(2), ObjectId(3)]
            ],
            "split severs the weak bridge, not a strong pair"
        );
    }

    #[test]
    fn byte_cap_splits() {
        let g = graph(3, &[(0.9, &[0, 1, 2])]);
        let d = Dendrogram::single_linkage(&g);
        let capped = d.cut_with_caps(0.1, usize::MAX, Bytes::gb(2), &|_| Bytes::gb(1));
        for c in &capped {
            assert!(c.len() <= 2);
        }
        let total: usize = capped.iter().map(|c| c.len()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn oversize_single_leaf_stays_singleton() {
        let g = graph(2, &[(0.9, &[0, 1])]);
        let d = Dendrogram::single_linkage(&g);
        let capped = d.cut_with_caps(0.1, usize::MAX, Bytes::gb(1), &|_| Bytes::gb(5));
        assert_eq!(capped.len(), 2, "each oversized leaf alone");
    }

    #[test]
    fn leaves_of_collects_subtree() {
        let g = graph(4, &[(0.9, &[0, 1]), (0.5, &[1, 2])]);
        let d = Dendrogram::single_linkage(&g);
        let root = d.n_leaves() + d.merges().len() - 1;
        assert_eq!(
            d.leaves_of(root),
            vec![ObjectId(0), ObjectId(1), ObjectId(2)]
        );
        assert_eq!(d.leaves_of(3), vec![ObjectId(3)]);
    }
}
