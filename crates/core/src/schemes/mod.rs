//! The three placement schemes evaluated in the paper.

pub mod cluster_prob;
pub mod object_prob;
pub mod parallel_batch;

use tapesim_model::{SystemConfig, TapeId};

/// Tape enumeration interleaved across libraries:
/// `L0:T0, L1:T0, …, Ln:T0, L0:T1, …` — consecutive tapes live in
/// *different* libraries, so schemes that fill tapes in this order spread
/// consecutive (equally popular) content across robots.
pub fn round_robin_tapes(config: &SystemConfig) -> Vec<TapeId> {
    let mut out = Vec::with_capacity(config.total_tapes());
    for slot in 0..config.library.tapes {
        for lib in config.library_ids() {
            out.push(TapeId::new(lib, slot));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        ClusterProbabilityPlacement, ObjectProbabilityPlacement, ParallelBatchPlacement,
        PlacementPolicy,
    };
    use tapesim_model::specs::paper_table1;
    use tapesim_model::LibraryId;
    use tapesim_workload::{RequestSpec, Workload, WorkloadSpec};

    #[test]
    fn round_robin_interleaves_libraries() {
        let cfg = paper_table1();
        let tapes = round_robin_tapes(&cfg);
        assert_eq!(tapes.len(), 240);
        assert_eq!(tapes[0], TapeId::new(LibraryId(0), 0));
        assert_eq!(tapes[1], TapeId::new(LibraryId(1), 0));
        assert_eq!(tapes[2], TapeId::new(LibraryId(2), 0));
        assert_eq!(tapes[3], TapeId::new(LibraryId(0), 1));
        // Every tape appears exactly once.
        let set: std::collections::HashSet<_> = tapes.iter().collect();
        assert_eq!(set.len(), 240);
    }

    /// The three schemes placed in sequence on one workload, sharing its
    /// co-access partition, lay out exactly what each lays out on a fresh
    /// copy that clusters from scratch.
    #[test]
    fn schemes_sharing_one_workload_match_fresh_copies() {
        let shared = WorkloadSpec {
            objects: 6_000,
            requests: RequestSpec {
                count: 60,
                ..RequestSpec::default()
            },
            ..WorkloadSpec::default()
        }
        .generate();
        let cfg = paper_table1();
        let schemes: [&dyn PlacementPolicy; 3] = [
            &ParallelBatchPlacement::default(),
            &ObjectProbabilityPlacement::default(),
            &ClusterProbabilityPlacement::default(),
        ];
        for scheme in schemes {
            let on_shared = scheme.place(&shared, &cfg).unwrap();
            let fresh = Workload::new(shared.objects().to_vec(), shared.requests().to_vec());
            let on_fresh = scheme.place(&fresh, &cfg).unwrap();
            // `Debug` prints every float in round-trip form, so equal text
            // is equal bits.
            assert_eq!(
                format!("{on_shared:?}"),
                format!("{on_fresh:?}"),
                "{}",
                scheme.name()
            );
        }
    }
}
