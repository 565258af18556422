//! # tapesim-workload
//!
//! Synthetic workload generation for the parallel tape storage experiments,
//! reproducing the §6 "Simulation Settings" of the ICPP 2006 paper:
//!
//! * a fixed population of objects whose **sizes follow a bounded power
//!   law** within a configurable range (default calibrated so that the
//!   average request is ≈ 213 GB, the paper's Figure 6 operating point),
//! * a fixed set of pre-defined requests, each asking for a **power-law
//!   number of objects in \[100, 150\]** chosen uniformly at random (objects
//!   may appear in several requests),
//! * **Zipf(α) request popularity**: `P_r = c · r^(−α)` over request ranks,
//!   with α = 0 uniform and α = 1 most skewed,
//! * a deterministic, seedable **request sampling stream** (alias method)
//!   that the simulator draws its 200 serviced requests from,
//! * the **co-access partition** (§5.1): the similarity of two objects is
//!   the probability they are requested together, a property of the
//!   workload alone. [`Workload::co_access_clusters`] agglomerates the
//!   co-access rows, built straight from the requests, by average linkage
//!   down to [`THRESHOLD_FRACTION`] of the smallest request probability,
//!   once per workload value; every clustering placement (parallel batch,
//!   cluster probability, online) then byte-caps that one partition.
//!   [`CoAccessGraph`] holds the same rows as a CSR graph, and
//!   [`average_linkage_clusters`] runs the same kernel on it.
//!
//! Everything is seeded [`rand_chacha::ChaCha12Rng`]; identical specs produce
//! identical workloads on every platform.

pub mod arrivals;
pub mod average;
pub mod dist;
pub mod evolve;
pub mod object;
pub mod replicate;
pub mod request;
pub mod sampler;
pub mod similarity;
pub mod stream;
pub mod stripe;
pub mod workload;

pub use arrivals::{ArrivalProcess, ArrivalSpec};
pub use average::average_linkage_clusters;
pub use dist::{BoundedPareto, Zipf};
pub use evolve::EvolutionSpec;
pub use object::{ObjectRecord, ObjectSizeSpec};
pub use replicate::{replicate_workload, ReplicaMap, ReplicationSpec};
pub use request::{Request, RequestSpec};
pub use sampler::RequestSampler;
pub use similarity::CoAccessGraph;
pub use stream::RequestStream;
pub use stripe::{stripe_workload, StripeMap, StripeSpec};
pub use workload::{Workload, WorkloadError, WorkloadSpec, THRESHOLD_FRACTION};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;
    use tapesim_model::{Bytes, ObjectId};

    /// Random overlapping request sets over a small population.
    fn random_workload(seed: u64, n_obj: u32, n_req: usize) -> Workload {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let objects = (0..n_obj)
            .map(|i| ObjectRecord {
                id: ObjectId(i),
                size: Bytes::gb(1 + rng.gen_range(0..8)),
            })
            .collect();
        let mut requests = Vec::new();
        for rank in 0..n_req {
            let k = rng.gen_range(2..=(n_obj.min(10)));
            let mut objs: Vec<_> = (0..k).map(|_| ObjectId(rng.gen_range(0..n_obj))).collect();
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
        /// Pair weights are symmetric (bit for bit), positive, and
        /// bounded by the total request mass; every edge is in both
        /// endpoint rows.
        #[test]
        fn similarity_bounds(seed in any::<u64>(), n_obj in 4u32..40, n_req in 1usize..15) {
            let w = random_workload(seed, n_obj, n_req);
            let g = CoAccessGraph::from_workload(&w);
            let total: f64 = w.requests().iter().map(|r| r.probability).sum();
            let mut entries = 0;
            for a in (0..n_obj).map(ObjectId) {
                for (b, wgt) in g.neighbours(a) {
                    entries += 1;
                    prop_assert!(a != b);
                    prop_assert!(wgt > 0.0 && wgt <= total + 1e-9);
                    prop_assert_eq!(g.pair_weight(b, a).to_bits(), wgt.to_bits());
                }
            }
            prop_assert_eq!(entries, 2 * g.n_edges());
        }
    }
}
