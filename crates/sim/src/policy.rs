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

use crate::bays::BaySet;
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

    /// The bays of every library whose drives may swap cartridges: the
    /// last `m` under the batch rule, all of them otherwise.
    pub fn switch_bays(&self, config: &SystemConfig) -> BaySet {
        let d = config.library.drives;
        match self {
            SwitchPolicy::Batch { m } => BaySet::range(d.saturating_sub(*m), d),
            SwitchPolicy::LeastPopular => BaySet::range(0, d),
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

    /// The drive of library `lib` to fetch the next tape onto: among the
    /// `eligible` bays (idle, and in a faulty run neither dead nor
    /// blocked) that are switch bays, the best victim by `victim_key` over
    /// `mounted` (dense by drive index), ties to the lower index. `None`
    /// when no bay qualifies.
    pub fn pick_victim(
        &self,
        config: &SystemConfig,
        placement: &Placement,
        lib: LibraryId,
        mounted: &[Option<TapeId>],
        eligible: BaySet,
    ) -> Option<usize> {
        let mut best: Option<(u8, f64, usize)> = None;
        for bay in (eligible & self.switch_bays(config)).iter() {
            let idx = config.drive_index(DriveId::new(lib, bay));
            let (kind, p) = Self::victim_key(mounted[idx], placement);
            if kind == 0 {
                // Bays come in ascending order and an empty drive beats
                // every mounted one: the first empty bay is the best.
                return Some(idx);
            }
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
        assert_eq!(policy.switch_bays(&cfg), BaySet::range(4, 8));
        assert_eq!(
            SwitchPolicy::LeastPopular.switch_bays(&cfg),
            BaySet::range(0, 8)
        );
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
        // Dense drive indices to skip → the eligible bays of library 1.
        let pick = |policy: &SwitchPolicy, mounted: &[Option<TapeId>], skip: &[usize]| {
            let mut eligible = BaySet::range(0, 8);
            skip.iter().for_each(|&i| eligible.remove((i - 8) as u8));
            policy.pick_victim(&cfg, &p, lib, mounted, eligible)
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

    /// The per-bay scan `pick_victim` replaced: every bay of `lib`,
    /// skipping ineligible ones and, by the §5.2 rule written out, the
    /// pinned bays.
    fn scan_victim(
        policy: &SwitchPolicy,
        cfg: &SystemConfig,
        placement: &Placement,
        lib: LibraryId,
        mounted: &[Option<TapeId>],
        eligible: BaySet,
    ) -> Option<usize> {
        let d = cfg.library.drives;
        let mut best: Option<(u8, f64, usize)> = None;
        for bay in 0..d {
            let switchable = match policy {
                SwitchPolicy::Batch { m } => bay >= d - m,
                SwitchPolicy::LeastPopular => true,
            };
            if !eligible.contains(bay) || !switchable {
                continue;
            }
            let idx = cfg.drive_index(DriveId::new(lib, bay));
            let (kind, p) = SwitchPolicy::victim_key(mounted[idx], placement);
            let key = (kind, p, idx);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        best.map(|(_, _, idx)| idx)
    }

    #[test]
    fn bay_set_victims_match_the_bay_scan_on_a_200_drive_library() {
        use tapesim_model::specs::{lto3_drive, lto3_tape, stk_l80_library};
        use tapesim_model::LibrarySpec;
        let cfg = SystemConfig::new(
            2,
            LibrarySpec {
                drives: 200,
                tapes: 300,
                ..stk_l80_library(lto3_drive(), lto3_tape())
            },
        )
        .unwrap();
        let objects = (0..600u32)
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
                objects: vec![ObjectId(0)],
            }],
        );
        // One object per tape; eleven probability levels, so many tapes
        // tie and the lower index must win.
        let mut b = PlacementBuilder::new(&cfg, &w);
        for i in 0..600u32 {
            let tape = TapeId::new(LibraryId((i / 300) as u16), (i % 300) as u16);
            let prob = ((i * 37) % 11) as f64 / 100.0;
            b.append(tape, ObjectId(i), Bytes::gb(1), prob).unwrap();
        }
        let p = b.build().unwrap();
        let lib = LibraryId(1);
        let policies = [
            SwitchPolicy::LeastPopular,
            SwitchPolicy::Batch { m: 1 },
            SwitchPolicy::Batch { m: 150 },
        ];
        let mut beyond_first_word = 0;
        for round in 0..40usize {
            // Busy, dead and blocked bays thin the eligible set; every
            // third round leaves empty drives among the rest.
            let mut mounted = vec![None; cfg.total_drives()];
            let mut eligible = BaySet::range(0, 200);
            for bay in 0..200u8 {
                let k = bay as usize + round * 7;
                let idx = cfg.drive_index(DriveId::new(lib, bay));
                let empty = round % 3 == 0 && k % 13 == 5;
                mounted[idx] = (!empty).then(|| TapeId::new(lib, ((k * 11) % 300) as u16));
                let busy = k % (2 + round % 5) == 0;
                let dead = k % 17 == 1;
                let blocked = k % 23 == round % 23;
                if busy || dead || blocked {
                    eligible.remove(bay);
                }
            }
            for policy in &policies {
                let got = policy.pick_victim(&cfg, &p, lib, &mounted, eligible);
                let want = scan_victim(policy, &cfg, &p, lib, &mounted, eligible);
                assert_eq!(got, want, "round {round}, {policy:?}");
                beyond_first_word += usize::from(got.is_some_and(|idx| idx % 200 >= 64));
            }
        }
        assert!(beyond_first_word > 0, "no victim past bay 63");
        // Nothing eligible, or only pinned bays eligible under the batch
        // rule: no victim.
        let mounted = vec![None; cfg.total_drives()];
        for policy in &policies {
            assert_eq!(
                policy.pick_victim(&cfg, &p, lib, &mounted, BaySet::EMPTY),
                None
            );
        }
        let pinned_only = BaySet::range(0, 50);
        assert_eq!(
            SwitchPolicy::Batch { m: 150 }.pick_victim(&cfg, &p, lib, &mounted, pinned_only),
            None
        );
        // All empty: the lowest eligible switch bay.
        assert_eq!(
            SwitchPolicy::Batch { m: 150 }.pick_victim(
                &cfg,
                &p,
                lib,
                &mounted,
                BaySet::range(0, 200)
            ),
            Some(200 + 50)
        );
    }
}
