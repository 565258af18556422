//! Switch policies: which tapes are mounted at startup, which drives may
//! swap cartridges, and which mounted cartridge to evict.
//!
//! * [`SwitchPolicy::Batch`] is the paper's §5.2 strategy for parallel
//!   batch placement: `d−m` drives per library pin the first tape batch
//!   forever; the other `m` drives rotate through the switch batches.
//! * [`SwitchPolicy::LeastPopular`] is the classic strategy the baselines
//!   run under (\[11\]: keeping the highest-probability tapes mounted with
//!   least-popular replacement minimises the number of switches): every
//!   drive may switch, the startup mounts are each library's most probable
//!   tapes, and the eviction victim is the least probable mounted tape.

use serde::{Deserialize, Serialize};
use tapesim_model::{DriveId, LibraryId, SystemConfig, TapeId};
use tapesim_placement::{Placement, TapeRole};

/// Runtime tape-switch strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SwitchPolicy {
    /// §5.2: pinned batch on the first `d−m` bays, switch pool on the rest.
    Batch {
        /// Switch drives per library (`m`).
        m: u8,
    },
    /// Baselines: all drives switchable, least-popular eviction.
    LeastPopular,
}

impl SwitchPolicy {
    /// The natural policy for a placement: [`SwitchPolicy::Batch`] when the
    /// placement pinned tapes (parallel batch placement sets
    /// [`TapeRole::Pinned`]), [`SwitchPolicy::LeastPopular`] otherwise.
    pub fn for_placement(placement: &Placement, m: u8) -> SwitchPolicy {
        if placement.pinned_tapes().is_empty() {
            SwitchPolicy::LeastPopular
        } else {
            SwitchPolicy::Batch { m }
        }
    }

    /// Whether `drive` is allowed to swap cartridges at all.
    pub fn is_switch_drive(&self, drive: DriveId, config: &SystemConfig) -> bool {
        match self {
            SwitchPolicy::Batch { m } => drive.bay >= config.library.drives - m,
            SwitchPolicy::LeastPopular => true,
        }
    }

    /// Startup mounts: one optional tape per drive, dense drive order.
    pub fn initial_mounts(
        &self,
        placement: &Placement,
        config: &SystemConfig,
    ) -> Vec<Option<TapeId>> {
        let d = config.library.drives;
        let mut mounts: Vec<Option<TapeId>> = vec![None; config.total_drives()];
        match self {
            SwitchPolicy::Batch { m } => {
                // Pinned tapes go to the pinned bays (slot i → bay i); the
                // first switch batch goes to the switch bays.
                for lib in config.library_ids() {
                    for bay in 0..d {
                        let tape = TapeId::new(lib, bay as u16);
                        let drive = DriveId::new(lib, bay);
                        let want_pinned = bay < d - m;
                        let ok = match placement.role(tape) {
                            TapeRole::Pinned => want_pinned,
                            TapeRole::SwitchPool { batch } => !want_pinned && batch == 1,
                            TapeRole::Unused => false,
                        };
                        if ok {
                            mounts[config.drive_index(drive)] = Some(tape);
                        }
                    }
                }
            }
            SwitchPolicy::LeastPopular => {
                // Per library: the d most probable non-empty tapes, the
                // hottest on bay 0.
                for lib in config.library_ids() {
                    let mut tapes: Vec<TapeId> = (0..config.library.tapes)
                        .map(|slot| TapeId::new(lib, slot))
                        .filter(|&t| !placement.tape_layout(t).is_empty())
                        .collect();
                    tapes.sort_by(|&a, &b| {
                        // Probabilities are finite, so IEEE total order is
                        // the numeric order.
                        placement
                            .tape_probability(b)
                            .total_cmp(&placement.tape_probability(a))
                            .then(a.cmp(&b))
                    });
                    for (bay, &tape) in tapes.iter().take(d as usize).enumerate() {
                        let drive = DriveId::new(lib, bay as u8);
                        mounts[config.drive_index(drive)] = Some(tape);
                    }
                }
            }
        }
        mounts
    }

    /// Eviction preference among idle switchable drives: lower key = better
    /// victim. Empty drives are the best victims (no rewind/unload);
    /// otherwise the least probable mounted tape goes first.
    fn victim_key(mounted: Option<TapeId>, placement: &Placement) -> (u8, f64) {
        match mounted {
            None => (0, 0.0),
            Some(t) => (1, placement.tape_probability(t)),
        }
    }

    /// The drive of library `lib` to fetch the next tape onto: among its
    /// switch drives that `ineligible` does not rule out (busy, or in a
    /// faulty run dead or blocked), the best victim by `victim_key` over
    /// `mounted` (dense by drive index), ties to the lower index. `None`
    /// when no drive qualifies.
    pub fn pick_victim(
        &self,
        config: &SystemConfig,
        placement: &Placement,
        lib: LibraryId,
        mounted: &[Option<TapeId>],
        ineligible: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let mut best: Option<(u8, f64, usize)> = None;
        for bay in 0..config.library.drives {
            let drive = DriveId::new(lib, bay);
            let idx = config.drive_index(drive);
            if ineligible(idx) || !self.is_switch_drive(drive, config) {
                continue;
            }
            let (kind, p) = Self::victim_key(mounted[idx], placement);
            let key = (kind, p, idx);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        best.map(|(_, _, idx)| idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_model::specs::paper_table1;
    use tapesim_model::{Bytes, ObjectId};
    use tapesim_placement::{ParallelBatchPlacement, PlacementBuilder, PlacementPolicy};
    use tapesim_workload::{ObjectRecord, Request, Workload};

    fn pbp_workload() -> Workload {
        let objects = (0..400u32)
            .map(|i| ObjectRecord {
                id: ObjectId(i),
                size: Bytes::gb(20),
            })
            .collect();
        let total: f64 = (1..=20).map(|i| i as f64).sum();
        let requests = (0..20u32)
            .map(|r| Request {
                rank: r,
                probability: (20 - r) as f64 / total,
                objects: (r * 20..(r + 1) * 20).map(ObjectId).collect(),
            })
            .collect();
        Workload::new(objects, requests)
    }

    #[test]
    fn batch_policy_mounts_pinned_and_first_switch_batch() {
        let cfg = paper_table1();
        let w = pbp_workload();
        let p = ParallelBatchPlacement::with_m(4).place(&w, &cfg).unwrap();
        let policy = SwitchPolicy::for_placement(&p, 4);
        assert_eq!(policy, SwitchPolicy::Batch { m: 4 });

        let mounts = policy.initial_mounts(&p, &cfg);
        assert_eq!(mounts.len(), 24);
        for lib in cfg.library_ids() {
            for bay in 0..8u8 {
                let drive = DriveId::new(lib, bay);
                let mounted = mounts[cfg.drive_index(drive)];
                if bay < 4 {
                    // Pinned bays carry pinned tapes.
                    if let Some(t) = mounted {
                        assert_eq!(p.role(t), TapeRole::Pinned, "{drive}");
                        assert_eq!(t.library, lib);
                    }
                } else if let Some(t) = mounted {
                    assert_eq!(p.role(t), TapeRole::SwitchPool { batch: 1 }, "{drive}");
                }
            }
        }
        // Switchability is bay-based.
        assert!(!policy.is_switch_drive(DriveId::new(LibraryId(0), 3), &cfg));
        assert!(policy.is_switch_drive(DriveId::new(LibraryId(0), 4), &cfg));
    }

    #[test]
    fn least_popular_mounts_hottest_tapes() {
        let cfg = paper_table1();
        // Hand-build: three tapes in library 0 with probabilities
        // 0.2 / 0.5 / 0.3.
        let objects = (0..3u32)
            .map(|i| ObjectRecord {
                id: ObjectId(i),
                size: Bytes::gb(1),
            })
            .collect();
        let w = Workload::new(
            objects,
            vec![Request {
                rank: 0,
                probability: 1.0,
                objects: (0..3).map(ObjectId).collect(),
            }],
        );
        let mut b = PlacementBuilder::new(&cfg, &w);
        let lib = LibraryId(0);
        b.append(TapeId::new(lib, 10), ObjectId(0), Bytes::gb(1), 0.2)
            .unwrap();
        b.append(TapeId::new(lib, 11), ObjectId(1), Bytes::gb(1), 0.5)
            .unwrap();
        b.append(TapeId::new(lib, 12), ObjectId(2), Bytes::gb(1), 0.3)
            .unwrap();
        let p = b.build().unwrap();

        let policy = SwitchPolicy::for_placement(&p, 4);
        assert_eq!(policy, SwitchPolicy::LeastPopular);
        let mounts = policy.initial_mounts(&p, &cfg);
        // Library 0, bay 0 mounts the hottest tape (slot 11).
        assert_eq!(
            mounts[cfg.drive_index(DriveId::new(lib, 0))],
            Some(TapeId::new(lib, 11))
        );
        assert_eq!(
            mounts[cfg.drive_index(DriveId::new(lib, 1))],
            Some(TapeId::new(lib, 12))
        );
        // Other libraries hold nothing.
        assert_eq!(mounts[cfg.drive_index(DriveId::new(LibraryId(1), 0))], None);
    }

    #[test]
    fn victim_preference() {
        let cfg = paper_table1();
        let w = pbp_workload();
        let p = ParallelBatchPlacement::with_m(4).place(&w, &cfg).unwrap();
        let policy = SwitchPolicy::LeastPopular;
        let empty = SwitchPolicy::victim_key(None, &p);
        let used = p.used_tapes();
        let k1 = SwitchPolicy::victim_key(Some(used[0]), &p);
        assert!(empty < k1, "empty drives evict first");

        // Library 1 (dense drives 8..16): empty drives beat mounted ones,
        // ties go to the lower index, ineligible drives are skipped.
        let lib = LibraryId(1);
        let mut mounted = vec![None; cfg.total_drives()];
        for (idx, slot) in mounted.iter_mut().enumerate().skip(8).take(8) {
            *slot = Some(used[idx % used.len()]);
        }
        mounted[11] = None;
        mounted[13] = None;
        let pick = |policy: &SwitchPolicy, mounted: &[Option<TapeId>], skip: &[usize]| {
            policy.pick_victim(&cfg, &p, lib, mounted, |i| skip.contains(&i))
        };
        assert_eq!(pick(&policy, &mounted, &[]), Some(11));
        assert_eq!(pick(&policy, &mounted, &[11]), Some(13));
        // With no empty drive left, the least probable mounted tape goes.
        let (want, _) = (8..16)
            .filter(|&i| i != 11 && i != 13)
            .map(|i| (i, p.tape_probability(mounted[i].unwrap())))
            .fold(
                (usize::MAX, f64::INFINITY),
                |b, c| if c.1 < b.1 { c } else { b },
            );
        assert_eq!(pick(&policy, &mounted, &[11, 13]), Some(want));
        assert_eq!(pick(&policy, &mounted, &(8..16).collect::<Vec<_>>()), None);

        // Under the batch rule only bays d−m.. switch: with every drive
        // empty, the tie goes to the lowest eligible switch bay, never to
        // a pinned bay.
        let batch = SwitchPolicy::Batch { m: 4 };
        let empty = vec![None; cfg.total_drives()];
        assert_eq!(pick(&batch, &empty, &[]), Some(12));
        assert_eq!(pick(&batch, &empty, &[12, 13]), Some(14));
        assert_eq!(pick(&batch, &empty, &[12, 13, 14, 15]), None);
    }
}
