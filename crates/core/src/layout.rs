//! The placement data structure.
//!
//! A [`Placement`] is the complete physical layout of a workload on a
//! system: one [`TapeLayout`] per cartridge, a per-object [`Location`]
//! index (the paper's "indexing database"), a [`TapeRole`] per cartridge
//! (pinned / switch-pool / unused) and per-tape accumulated access
//! probability. It is constructed through [`PlacementBuilder`], which
//! checks capacity as objects are appended, and finished with
//! [`PlacementBuilder::build`], which validates global invariants: every
//! object placed exactly once, contiguous extents, capacity respected.

use serde::{Deserialize, Serialize};
use tapesim_model::tape::TapeLayout;
use tapesim_model::{Bytes, ObjectId, SystemConfig, TapeId};
use tapesim_workload::Workload;

/// Where one object lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Location {
    /// The cartridge holding the object.
    pub tape: TapeId,
    /// Byte offset of the object's first byte from the load point.
    pub offset: Bytes,
    /// Object length.
    pub size: Bytes,
}

/// The runtime role a cartridge plays under the paper's switch strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum TapeRole {
    /// First-batch tape: kept mounted at all times (§5.2).
    Pinned,
    /// Member of switch batch `batch` (1-based; batch 1 is mounted at
    /// startup).
    SwitchPool {
        /// Batch index, 1-based.
        batch: u16,
    },
    /// Holds no objects.
    #[default]
    Unused,
}

/// Errors detected while building a placement.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// An object was placed twice.
    DuplicateObject(ObjectId),
    /// An object would overflow its tape.
    TapeOverflow {
        /// The refusing tape.
        tape: TapeId,
        /// The object that did not fit.
        object: ObjectId,
        /// Bytes already on the tape.
        used: Bytes,
        /// Cartridge capacity.
        capacity: Bytes,
    },
    /// An object is larger than one cartridge. Objects are never split
    /// across tapes, so no scheme can place it.
    ObjectTooLarge {
        /// The object.
        object: ObjectId,
        /// Its size.
        size: Bytes,
        /// Cartridge capacity.
        capacity: Bytes,
    },
    /// Objects left unplaced after building (count).
    Unplaced(usize),
    /// The workload needs more tapes than the system has.
    OutOfTapes {
        /// Tapes required.
        needed: usize,
        /// Tapes available.
        available: usize,
    },
    /// Parallel batch placement's switch-drive count `m` is outside
    /// `1 ..= d−1` for `d` drives per library.
    SwitchDrives {
        /// Requested switch drives per library.
        m: u8,
        /// Drives per library.
        d: u8,
    },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::DuplicateObject(o) => write!(f, "object {o} placed twice"),
            PlacementError::TapeOverflow {
                tape,
                object,
                used,
                capacity,
            } => write!(
                f,
                "object {object} does not fit on {tape} ({used} of {capacity} used)"
            ),
            PlacementError::ObjectTooLarge {
                object,
                size,
                capacity,
            } => write!(
                f,
                "object {object} ({size}) is larger than a tape cartridge ({capacity})"
            ),
            PlacementError::Unplaced(n) => write!(f, "{n} objects left unplaced"),
            PlacementError::OutOfTapes { needed, available } => {
                write!(f, "workload needs {needed} tapes, system has {available}")
            }
            PlacementError::SwitchDrives { m, d } => {
                write!(f, "m must satisfy 1 <= m <= d-1 (got m={m}, d={d})")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// The check every scheme makes before placing: the first object larger
/// than a cartridge, by id, fails the placement with
/// [`PlacementError::ObjectTooLarge`].
pub(crate) fn check_object_sizes(
    workload: &Workload,
    config: &SystemConfig,
) -> Result<(), PlacementError> {
    let capacity = config.library.tape.capacity;
    match workload.objects().iter().find(|o| o.size > capacity) {
        Some(o) => Err(PlacementError::ObjectTooLarge {
            object: o.id,
            size: o.size,
            capacity,
        }),
        None => Ok(()),
    }
}

/// Incrementally builds a [`Placement`].
pub struct PlacementBuilder {
    config: SystemConfig,
    tapes: Vec<TapeLayout>,
    roles: Vec<TapeRole>,
    locations: Vec<Option<Location>>,
    tape_probability: Vec<f64>,
}

impl PlacementBuilder {
    /// Starts an empty placement for `workload` on `config`.
    pub fn new(config: &SystemConfig, workload: &Workload) -> PlacementBuilder {
        let n_tapes = config.total_tapes();
        PlacementBuilder {
            config: *config,
            tapes: vec![TapeLayout::new(); n_tapes],
            roles: vec![TapeRole::Unused; n_tapes],
            locations: vec![None; workload.objects().len()],
            tape_probability: vec![0.0; n_tapes],
        }
    }

    /// Bytes already written to `tape`.
    pub fn used(&self, tape: TapeId) -> Bytes {
        self.tapes[self.config.tape_index(tape)].used()
    }

    /// Free bytes remaining on `tape`.
    pub fn free(&self, tape: TapeId) -> Bytes {
        self.config
            .library
            .tape
            .capacity
            .saturating_sub(self.used(tape))
    }

    /// Whether `object` would fit on `tape` right now.
    pub fn fits(&self, tape: TapeId, size: Bytes) -> bool {
        self.used(tape) + size <= self.config.library.tape.capacity
    }

    /// Appends `object` (with `probability`, for per-tape accounting) to
    /// the end of `tape`.
    pub fn append(
        &mut self,
        tape: TapeId,
        object: ObjectId,
        size: Bytes,
        probability: f64,
    ) -> Result<(), PlacementError> {
        if self.locations[object.idx()].is_some() {
            return Err(PlacementError::DuplicateObject(object));
        }
        let idx = self.config.tape_index(tape);
        let capacity = self.config.library.tape.capacity;
        if self.tapes[idx].used() + size > capacity {
            return Err(PlacementError::TapeOverflow {
                tape,
                object,
                used: self.tapes[idx].used(),
                capacity,
            });
        }
        let extent = self.tapes[idx].append(object, size);
        self.locations[object.idx()] = Some(Location {
            tape,
            offset: extent.offset,
            size,
        });
        self.tape_probability[idx] += probability;
        Ok(())
    }

    /// Sets the runtime role of `tape`.
    pub fn set_role(&mut self, tape: TapeId, role: TapeRole) {
        let idx = self.config.tape_index(tape);
        self.roles[idx] = role;
    }

    /// Finishes the placement, validating global invariants.
    pub fn build(self) -> Result<Placement, PlacementError> {
        let unplaced = self.locations.iter().filter(|l| l.is_none()).count();
        if unplaced > 0 {
            return Err(PlacementError::Unplaced(unplaced));
        }
        for (idx, layout) in self.tapes.iter().enumerate() {
            layout
                .validate(&self.config.library.tape)
                .unwrap_or_else(|e| panic!("tape index {idx} failed validation: {e}"));
        }
        Ok(Placement {
            config: self.config,
            tapes: self.tapes,
            roles: self.roles,
            locations: self.locations.into_iter().map(|l| l.unwrap()).collect(),
            tape_probability: self.tape_probability,
        })
    }
}

/// A complete, validated physical layout of a workload on a system.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Placement {
    config: SystemConfig,
    tapes: Vec<TapeLayout>,
    roles: Vec<TapeRole>,
    locations: Vec<Location>,
    tape_probability: Vec<f64>,
}

impl Placement {
    /// The system this placement targets.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Location of `object` (the "indexing database" lookup).
    pub fn locate(&self, object: ObjectId) -> Location {
        self.locations[object.idx()]
    }

    /// Layout of one cartridge.
    pub fn tape_layout(&self, tape: TapeId) -> &TapeLayout {
        &self.tapes[self.config.tape_index(tape)]
    }

    /// Role of one cartridge.
    pub fn role(&self, tape: TapeId) -> TapeRole {
        self.roles[self.config.tape_index(tape)]
    }

    /// Accumulated access probability of the objects on `tape`.
    pub fn tape_probability(&self, tape: TapeId) -> f64 {
        self.tape_probability[self.config.tape_index(tape)]
    }

    /// All tapes that hold at least one object.
    pub fn used_tapes(&self) -> Vec<TapeId> {
        self.config
            .tape_ids()
            .filter(|t| !self.tape_layout(*t).is_empty())
            .collect()
    }

    /// Number of tapes holding at least one object.
    pub fn n_used_tapes(&self) -> usize {
        self.tapes.iter().filter(|t| !t.is_empty()).count()
    }

    /// Tapes with the [`TapeRole::Pinned`] role.
    pub fn pinned_tapes(&self) -> Vec<TapeId> {
        self.config
            .tape_ids()
            .filter(|t| self.role(*t) == TapeRole::Pinned)
            .collect()
    }

    /// Tapes in switch batch `batch` (1-based).
    pub fn switch_batch(&self, batch: u16) -> Vec<TapeId> {
        self.config
            .tape_ids()
            .filter(|t| self.role(*t) == TapeRole::SwitchPool { batch })
            .collect()
    }

    /// Largest switch-batch index present (0 if none).
    pub fn max_switch_batch(&self) -> u16 {
        self.roles
            .iter()
            .filter_map(|r| match r {
                TapeRole::SwitchPool { batch } => Some(*batch),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Cross-checks the placement against its source workload: every object
    /// present with its exact size. (Builder validation already guarantees
    /// structure; this guards against mixing a placement with the wrong
    /// workload.)
    pub fn verify_against(&self, workload: &Workload) -> Result<(), PlacementError> {
        if self.locations.len() != workload.objects().len() {
            return Err(PlacementError::Unplaced(
                workload.objects().len().abs_diff(self.locations.len()),
            ));
        }
        for o in workload.objects() {
            let loc = self.locate(o.id);
            if loc.size != o.size {
                return Err(PlacementError::DuplicateObject(o.id));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_model::specs::paper_table1;
    use tapesim_model::LibraryId;
    use tapesim_workload::{ObjectRecord, Request};

    fn tiny_workload(sizes_gb: &[u64]) -> Workload {
        let objects = sizes_gb
            .iter()
            .enumerate()
            .map(|(i, &s)| ObjectRecord {
                id: ObjectId(i as u32),
                size: Bytes::gb(s),
            })
            .collect();
        let requests = vec![Request {
            rank: 0,
            probability: 1.0,
            objects: (0..sizes_gb.len()).map(|i| ObjectId(i as u32)).collect(),
        }];
        Workload::new(objects, requests)
    }

    fn t(lib: u16, slot: u16) -> TapeId {
        TapeId::new(LibraryId(lib), slot)
    }

    #[test]
    fn build_and_locate() {
        let cfg = paper_table1();
        let w = tiny_workload(&[5, 10, 3]);
        let mut b = PlacementBuilder::new(&cfg, &w);
        b.append(t(0, 0), ObjectId(0), Bytes::gb(5), 0.5).unwrap();
        b.append(t(0, 0), ObjectId(1), Bytes::gb(10), 0.3).unwrap();
        b.append(t(1, 0), ObjectId(2), Bytes::gb(3), 0.2).unwrap();
        b.set_role(t(0, 0), TapeRole::Pinned);
        b.set_role(t(1, 0), TapeRole::SwitchPool { batch: 1 });
        let p = b.build().unwrap();

        assert_eq!(p.locate(ObjectId(1)).offset, Bytes::gb(5));
        assert_eq!(p.locate(ObjectId(1)).tape, t(0, 0));
        assert_eq!(p.locate(ObjectId(2)).tape, t(1, 0));
        assert_eq!(p.n_used_tapes(), 2);
        assert_eq!(p.pinned_tapes(), vec![t(0, 0)]);
        assert_eq!(p.switch_batch(1), vec![t(1, 0)]);
        assert_eq!(p.max_switch_batch(), 1);
        assert!((p.tape_probability(t(0, 0)) - 0.8).abs() < 1e-12);
        p.verify_against(&w).unwrap();
    }

    #[test]
    fn duplicate_placement_rejected() {
        let cfg = paper_table1();
        let w = tiny_workload(&[1]);
        let mut b = PlacementBuilder::new(&cfg, &w);
        b.append(t(0, 0), ObjectId(0), Bytes::gb(1), 0.1).unwrap();
        let err = b.append(t(0, 1), ObjectId(0), Bytes::gb(1), 0.1);
        assert_eq!(err, Err(PlacementError::DuplicateObject(ObjectId(0))));
    }

    #[test]
    fn overflow_rejected() {
        let cfg = paper_table1();
        let w = tiny_workload(&[399, 2]);
        let mut b = PlacementBuilder::new(&cfg, &w);
        b.append(t(0, 0), ObjectId(0), Bytes::gb(399), 0.1).unwrap();
        let err = b.append(t(0, 0), ObjectId(1), Bytes::gb(2), 0.1);
        assert!(matches!(err, Err(PlacementError::TapeOverflow { .. })));
        assert!(b.fits(t(0, 0), Bytes::gb(1)));
        assert!(!b.fits(t(0, 0), Bytes::gb(2)));
        assert_eq!(b.free(t(0, 0)), Bytes::gb(1));
    }

    #[test]
    fn unplaced_objects_rejected_at_build() {
        let cfg = paper_table1();
        let w = tiny_workload(&[1, 1]);
        let mut b = PlacementBuilder::new(&cfg, &w);
        b.append(t(0, 0), ObjectId(0), Bytes::gb(1), 0.1).unwrap();
        assert_eq!(b.build().unwrap_err(), PlacementError::Unplaced(1));
    }

    #[test]
    fn verify_against_detects_size_mismatch() {
        let cfg = paper_table1();
        let w = tiny_workload(&[5]);
        let mut b = PlacementBuilder::new(&cfg, &w);
        b.append(t(0, 0), ObjectId(0), Bytes::gb(5), 1.0).unwrap();
        let p = b.build().unwrap();
        let other = tiny_workload(&[7]);
        assert!(p.verify_against(&other).is_err());
    }
}
