//! The three placement schemes evaluated in the paper, and [`Scheme`], the
//! one table of their names.

pub mod cluster_prob;
pub mod object_prob;
pub mod parallel_batch;

use crate::{
    ClusterProbabilityPlacement, ObjectProbabilityPlacement, ParallelBatchPlacement,
    PlacementPolicy,
};
use tapesim_model::{SystemConfig, TapeId};

/// The three schemes under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// The paper's parallel batch placement (§5).
    ParallelBatch,
    /// Object probability placement \[11\].
    ObjectProbability,
    /// Cluster probability placement \[20\].
    ClusterProbability,
}

/// `(figure label, CLI name, short tag)` of each scheme, in [`Scheme::ALL`]
/// order.
const NAMES: [(&str, &str, &str); 3] = [
    ("parallel batch", "parallel-batch", "pbp"),
    ("object probability", "object-prob", "opp"),
    ("cluster probability", "cluster-prob", "cpp"),
];

impl Scheme {
    /// All three, in the paper's presentation order.
    pub const ALL: [Scheme; 3] = [
        Scheme::ParallelBatch,
        Scheme::ObjectProbability,
        Scheme::ClusterProbability,
    ];

    /// The figure-legend label (`parallel batch`).
    pub fn label(self) -> &'static str {
        NAMES[self as usize].0
    }

    /// The command-line name (`parallel-batch`).
    pub fn name(self) -> &'static str {
        NAMES[self as usize].1
    }

    /// The short tag (`pbp`) of run manifests, compound series labels and
    /// golden files.
    pub fn tag(self) -> &'static str {
        NAMES[self as usize].2
    }

    /// The scheme a command-line name or short tag names.
    pub fn parse(text: &str) -> Option<Scheme> {
        Scheme::ALL
            .into_iter()
            .find(|s| s.name() == text || s.tag() == text)
    }

    /// Builds the placement policy, with `m` switch drives per library
    /// for parallel batch placement (the other two have no `m`).
    pub fn policy(self, m: u8) -> Box<dyn PlacementPolicy + Send + Sync> {
        match self {
            Scheme::ParallelBatch => Box::new(ParallelBatchPlacement::with_m(m)),
            Scheme::ObjectProbability => Box::new(ObjectProbabilityPlacement::default()),
            Scheme::ClusterProbability => Box::new(ClusterProbabilityPlacement::default()),
        }
    }
}

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

/// Places a §6-system workload in which objects 3 and 5 are 1 PB each
/// under `scheme`, and checks that it fails naming object 3, the first
/// object larger than a cartridge.
#[cfg(test)]
pub(crate) fn assert_rejects_oversized_objects(scheme: &dyn PlacementPolicy) {
    use crate::PlacementError;
    use tapesim_model::{Bytes, ObjectId};
    use tapesim_workload::{ObjectRecord, Request, Workload};

    let config = tapesim_model::specs::paper_table1();
    let petabyte = Bytes::gb(1_000_000);
    let objects = (0..8)
        .map(|i| ObjectRecord {
            id: ObjectId(i),
            size: if i == 3 || i == 5 {
                petabyte
            } else {
                Bytes::gb(10)
            },
        })
        .collect();
    let requests = vec![Request {
        rank: 0,
        probability: 1.0,
        objects: (0..8).map(ObjectId).collect(),
    }];
    let workload = Workload::new(objects, requests);
    match scheme.place(&workload, &config) {
        Ok(_) => panic!("{} placed a 1 PB object", scheme.name()),
        Err(err) => assert_eq!(
            err,
            PlacementError::ObjectTooLarge {
                object: ObjectId(3),
                size: petabyte,
                capacity: config.library.tape.capacity,
            },
            "{}",
            scheme.name()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_model::specs::paper_table1;
    use tapesim_model::LibraryId;
    use tapesim_workload::{RequestSpec, Workload, WorkloadSpec};

    #[test]
    fn scheme_names_and_tags_parse_back() {
        assert_eq!(
            Scheme::ALL.map(Scheme::label),
            [
                "parallel batch",
                "object probability",
                "cluster probability"
            ]
        );
        for scheme in Scheme::ALL {
            assert_eq!(Scheme::parse(scheme.name()), Some(scheme));
            assert_eq!(Scheme::parse(scheme.tag()), Some(scheme));
            let policy = scheme.policy(4);
            assert_eq!(
                policy.display_name(),
                format!("{} placement", scheme.label())
            );
        }
        assert_eq!(Scheme::parse("parallel-batch"), Some(Scheme::ParallelBatch));
        assert_eq!(Scheme::parse("cpp"), Some(Scheme::ClusterProbability));
        for unknown in ["bogus", "all", "", "PBP", "parallel batch"] {
            assert_eq!(Scheme::parse(unknown), None, "{unknown:?}");
        }
    }

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
        for scheme in Scheme::ALL.map(|s| s.policy(4)) {
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
