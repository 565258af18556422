//! The object indexing database (§6): request → per-tape service jobs.
//!
//! "Integrated with the simulator is an indexing database that stores
//! object locations as well as other object properties such as object size
//! information. Given a request, the corresponding tapes are identified
//! based on the object indexing database."

use std::cmp::Reverse;
use tapesim_model::tape::Extent;
use tapesim_model::{Bytes, ObjectId, TapeId};
use tapesim_placement::Placement;

/// The work one tape owes a request: which extents to read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapeJob {
    /// The cartridge.
    pub tape: TapeId,
    /// Requested extents on it, ascending offset (the engine seek-orders
    /// them against the live head position at service time).
    pub extents: Vec<Extent>,
}

impl TapeJob {
    /// Total requested bytes on this tape.
    pub fn bytes(&self) -> Bytes {
        self.extents.iter().map(|e| e.size).sum()
    }
}

/// Groups a request's objects into per-tape jobs.
///
/// Jobs are returned **sorted by descending total bytes** (ties by tape
/// id), the dispatch order the engine uses: starting the largest pending
/// job first is the classic LPT heuristic for the per-library makespan.
///
/// Duplicate object ids in `objects` are served once (a restore does not
/// read the same object twice).
pub fn tape_jobs(placement: &Placement, objects: &[ObjectId]) -> Vec<TapeJob> {
    // Flat sort-and-group instead of a HashSet + BTreeMap-of-Vecs: this
    // runs once per request template at engine setup, and the per-node /
    // per-bucket allocations of the map-based version dominated the
    // scheduler's allocation profile (`BENCH_perf.json` `sched.allocs`).
    // The stable sort keeps equal (tape, offset) pairs — duplicate
    // requests for the same object — in first-occurrence order, so
    // `dedup_by` retains exactly the occurrence the old HashSet kept.
    let mut pairs: Vec<(TapeId, Extent)> = Vec::with_capacity(objects.len());
    for &o in objects {
        let loc = placement.locate(o);
        pairs.push((
            loc.tape,
            Extent {
                object: o,
                offset: loc.offset,
                size: loc.size,
            },
        ));
    }
    pairs.sort_by_key(|&(tape, e)| (tape, e.offset));
    pairs.dedup_by(|a, b| a.0 == b.0 && a.1.object == b.1.object);

    // Count the groups first so the jobs vec is sized in one allocation
    // — collecting straight from `chunk_by` (no size hint) grows by
    // doubling, and this function's allocations are gated by the perf
    // bench.
    let groups = pairs.chunk_by(|a, b| a.0 == b.0).count();
    let mut jobs: Vec<TapeJob> = Vec::with_capacity(groups);
    jobs.extend(pairs.chunk_by(|a, b| a.0 == b.0).filter_map(|group| {
        let tape = group.first()?.0;
        Some(TapeJob {
            tape,
            extents: group.iter().map(|p| p.1).collect(),
        })
    }));
    // Each job's byte total is summed once, not once per comparison.
    jobs.sort_by_cached_key(|j| (Reverse(j.bytes()), j.tape));
    jobs
}

/// Tape jobs by request rank, kept across calls: one slot per rank holds
/// the object list it was grouped from next to its [`tape_jobs`] and
/// their byte total.
///
/// A lookup borrows the slot while its stored list equals the asked-for
/// objects and regroups it otherwise, so the catalog stays exact when one
/// owner is handed a different workload. It holds no placement: its owner
/// must pass the same one on every call. A never-filled slot holds the
/// empty list and no jobs, which is that list's grouping.
#[derive(Debug, Default)]
pub(crate) struct JobCatalog {
    slots: Vec<Slot>,
}

#[derive(Debug, Default)]
struct Slot {
    objects: Vec<ObjectId>,
    jobs: Vec<TapeJob>,
    /// Requested bytes over all of `jobs`.
    bytes: Bytes,
}

impl JobCatalog {
    /// The tape jobs of `objects`, drawn as request `rank`, on
    /// `placement`, and their byte total.
    pub(crate) fn jobs(
        &mut self,
        placement: &Placement,
        rank: usize,
        objects: &[ObjectId],
    ) -> (&[TapeJob], Bytes) {
        if self.slots.len() <= rank {
            self.slots.resize_with(rank + 1, Slot::default);
        }
        let slot = &mut self.slots[rank];
        if slot.objects != objects {
            slot.objects.clear();
            slot.objects.extend_from_slice(objects);
            slot.jobs = tape_jobs(placement, objects);
            slot.bytes = slot.jobs.iter().map(TapeJob::bytes).sum();
        }
        (&slot.jobs, slot.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_model::specs::paper_table1;
    use tapesim_model::{LibraryId, TapeId};
    use tapesim_placement::PlacementBuilder;
    use tapesim_workload::{ObjectRecord, Request, Workload};

    fn setup() -> Placement {
        let cfg = paper_table1();
        let objects: Vec<ObjectRecord> = (0..6)
            .map(|i| ObjectRecord {
                id: ObjectId(i),
                size: Bytes::gb((i + 1) as u64),
            })
            .collect();
        let w = Workload::new(
            objects,
            vec![Request {
                rank: 0,
                probability: 1.0,
                objects: (0..6).map(ObjectId).collect(),
            }],
        );
        let mut b = PlacementBuilder::new(&cfg, &w);
        let t0 = TapeId::new(LibraryId(0), 0);
        let t1 = TapeId::new(LibraryId(1), 0);
        // Objects 0,2,4 on t0; 1,3,5 on t1.
        for i in [0u32, 2, 4] {
            b.append(t0, ObjectId(i), Bytes::gb((i + 1) as u64), 0.1)
                .unwrap();
        }
        for i in [1u32, 3, 5] {
            b.append(t1, ObjectId(i), Bytes::gb((i + 1) as u64), 0.1)
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn groups_by_tape_sorted_by_bytes() {
        let p = setup();
        let jobs = tape_jobs(&p, &[ObjectId(0), ObjectId(1), ObjectId(3), ObjectId(4)]);
        assert_eq!(jobs.len(), 2);
        // t0 carries 0 (1 GB) + 4 (5 GB) = 6 GB; t1 carries 1+3 = 2+4 = 6 GB.
        // Tie: t0 < t1.
        assert_eq!(jobs[0].tape, TapeId::new(LibraryId(0), 0));
        assert_eq!(jobs[0].bytes(), Bytes::gb(6));
        assert_eq!(jobs[1].bytes(), Bytes::gb(6));
        // Extents ascending by offset.
        assert!(jobs[0].extents[0].offset < jobs[0].extents[1].offset);
    }

    #[test]
    fn duplicates_served_once() {
        let p = setup();
        let jobs = tape_jobs(&p, &[ObjectId(2), ObjectId(2), ObjectId(2)]);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].extents.len(), 1);
    }

    #[test]
    fn empty_request_no_jobs() {
        let p = setup();
        assert!(tape_jobs(&p, &[]).is_empty());
    }
}
