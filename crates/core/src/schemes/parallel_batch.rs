//! **Parallel batch placement** — the paper's proposed scheme (§5).
//!
//! The scheme couples a *placement* with a *switch strategy*:
//!
//! * All `n×d` drives split into an **always-mounted batch** (`d−m` drives
//!   per library) and a **switch batch** (`m` drives per library). Tapes
//!   split accordingly: the first tape batch (`n×(d−m)` tapes) is pinned on
//!   the always-mounted drives forever; the second and later batches
//!   (`n×m` tapes each) rotate through the switch drives (§5.2).
//! * Objects are ranked by probability **density** `P/size` and partitioned
//!   into capacity-bounded sublists — the first sized to the pinned batch,
//!   the rest to one switch batch each — with co-access **clusters kept
//!   within one sublist** (§5.3 steps 1–4, [`crate::sublist`]).
//! * Each sublist's clusters are dealt across its batch's tapes by the
//!   greedy zig-zag of Figure 3 ([`crate::balance`]); the batch's tapes
//!   interleave across libraries, so a spread cluster engages all `n`
//!   robots and up to `n×m` (or `n×(d−m)`) drives at once (§5.4).
//! * Every tape is organ-pipe aligned (§5.3 step 6, [`crate::organ_pipe`]).
//!
//! The net effect the paper claims — and the simulator reproduces — is a
//! three-way trade: almost all probability mass sits on pinned tapes (few
//! switches), the switches that remain happen in parallel across robots,
//! and transfers fan out across drives.

use crate::balance::{zigzag_assign_lossy, TapeBin};
use crate::density::{density_ranked, RankedObject};
use crate::layout::{check_object_sizes, Placement, PlacementBuilder, PlacementError, TapeRole};
use crate::organ_pipe::{descending_order, organ_pipe_order};
use crate::policy::PlacementPolicy;
use crate::sublist::{partition_plain, partition_with_clusters, Sublist};
use tapesim_cluster::ClusterParams;
use tapesim_model::{Bytes, SystemConfig, TapeId};
use tapesim_workload::Workload;

/// In-tape alignment choice (ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Alignment {
    /// Organ-pipe (§5.3 step 6) — the paper's choice.
    #[default]
    OrganPipe,
    /// Plain descending probability from the load point.
    Descending,
}

/// Within-batch balancing choice (ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Balancing {
    /// The Figure 3 greedy zig-zag — the paper's choice.
    #[default]
    ZigZag,
    /// Naive round-robin dealing, ignoring loads.
    RoundRobin,
}

/// Tunables of parallel batch placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelBatchParams {
    /// Switch drives per library (`m`, `1 ≤ m ≤ d−1`). The paper sweeps
    /// this in Figure 5 and fixes `m = 4` elsewhere.
    pub m: u8,
    /// Tape capacity utilisation coefficient `k` (< 1) of §5.3 step 3.
    pub k_utilization: f64,
    /// Clusters smaller than this stay on a single tape (§5.3 step 5).
    pub min_split_bytes: Bytes,
    /// Whether to use co-access clusters at all (ablation; `false` reduces
    /// steps 4–5 to per-object operation).
    pub use_clusters: bool,
    /// In-tape alignment (ablation).
    pub alignment: Alignment,
    /// Batch balancing (ablation).
    pub balancing: Balancing,
}

impl Default for ParallelBatchParams {
    /// The paper's defaults: `m = 4`, `k = 0.95`.
    fn default() -> Self {
        ParallelBatchParams {
            m: 4,
            k_utilization: 0.95,
            min_split_bytes: Bytes::gb(8),
            use_clusters: true,
            alignment: Alignment::OrganPipe,
            balancing: Balancing::ZigZag,
        }
    }
}

impl ParallelBatchParams {
    /// Returns a copy with a different `m`.
    pub fn with_m(mut self, m: u8) -> ParallelBatchParams {
        self.m = m;
        self
    }
}

/// Each object's co-access cluster (§5.1): the workload's shared
/// partition, byte-capped to the narrower batch so any cluster can be
/// co-batched whole; average linkage keeps overlapping requests from
/// chaining into one workload-sized mega-cluster. (No object-count cap:
/// the Figure 3 zig-zag spreads a large cluster over the whole batch
/// width anyway.)
pub(crate) fn narrow_batch_membership(
    workload: &Workload,
    config: &SystemConfig,
    params: &ParallelBatchParams,
) -> Vec<usize> {
    let (d, m) = (config.library.drives, params.m);
    let narrow_width = (d - m).min(m).max(1) as u64 * config.libraries as u64;
    let cap = Bytes(config.library.tape.capacity.get() * narrow_width).scale(params.k_utilization);
    ClusterParams {
        max_bytes: Some(cap),
    }
    .cluster(workload)
    .membership()
}

/// The paper's proposed scheme.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ParallelBatchPlacement {
    /// Tunables.
    pub params: ParallelBatchParams,
}

impl ParallelBatchPlacement {
    /// Scheme with explicit parameters.
    pub fn new(params: ParallelBatchParams) -> ParallelBatchPlacement {
        ParallelBatchPlacement { params }
    }

    /// Scheme with the given `m` and paper defaults otherwise.
    pub fn with_m(m: u8) -> ParallelBatchPlacement {
        ParallelBatchPlacement::new(ParallelBatchParams::default().with_m(m))
    }

    /// The tapes of batch `b` (0 = pinned), interleaved across libraries.
    ///
    /// Batch 0 occupies slots `0..d−m` in every library; batch `i ≥ 1`
    /// occupies slots `d−m + (i−1)·m .. d−m + i·m`. Returns `None` when the
    /// batch would run past the library's cartridge cells.
    fn batch_tapes(&self, config: &SystemConfig, batch: usize) -> Option<Vec<TapeId>> {
        let d = config.library.drives as usize;
        let m = self.params.m as usize;
        let (start, width) = if batch == 0 {
            (0, d - m)
        } else {
            (d - m + (batch - 1) * m, m)
        };
        if start + width > config.library.tapes as usize {
            return None;
        }
        let mut out = Vec::with_capacity(width * config.libraries as usize);
        for slot in start..start + width {
            for lib in config.library_ids() {
                out.push(TapeId::new(lib, slot as u16));
            }
        }
        Some(out)
    }

    /// Groups a sublist's objects into contiguous cluster runs.
    fn cluster_runs(sublist: &Sublist, membership: &[usize]) -> Vec<Vec<RankedObject>> {
        let mut runs: Vec<Vec<RankedObject>> = Vec::new();
        let mut last: Option<usize> = None;
        for &o in &sublist.objects {
            let c = membership[o.id.idx()];
            if last == Some(c) {
                runs.last_mut().expect("run exists").push(o);
            } else {
                runs.push(vec![o]);
                last = Some(c);
            }
        }
        runs
    }
}

impl PlacementPolicy for ParallelBatchPlacement {
    fn name(&self) -> &'static str {
        "parallel_batch"
    }

    fn display_name(&self) -> &'static str {
        "parallel batch placement"
    }

    fn place(
        &self,
        workload: &Workload,
        config: &SystemConfig,
    ) -> Result<Placement, PlacementError> {
        let d = config.library.drives;
        let m = self.params.m;
        if m < 1 || m >= d {
            return Err(PlacementError::SwitchDrives { m, d });
        }
        check_object_sizes(workload, config)?;
        let n = config.libraries as u64;
        let ct = config.library.tape.capacity;
        let k = self.params.k_utilization;

        // §5.3 steps 1–2: density ranking.
        let ranked = density_ranked(workload);

        let membership: Vec<usize> = if self.params.use_clusters {
            narrow_batch_membership(workload, config, &self.params)
        } else {
            (0..workload.objects().len()).collect()
        };

        // §5.3 steps 3–4: capacity-bounded, cluster-atomic sublists.
        let first_cap = Bytes(ct.get() * n * (d - m) as u64).scale(k);
        let rest_cap = Bytes(ct.get() * n * m as u64).scale(k);
        let sublists = if self.params.use_clusters {
            partition_with_clusters(&ranked, &membership, first_cap, rest_cap)
        } else {
            partition_plain(&ranked, first_cap, rest_cap)
        };

        // §5.4 + Figure 3: allocate each sublist across its batch's tapes.
        // Bin-packing waste can exceed the `k` slack when objects are large
        // relative to the cartridge (LTO-1 sweeps), so each batch may spill
        // leftovers that are carried — ahead of the next sublist's own
        // clusters — into the following batch.
        let mut builder = PlacementBuilder::new(config, workload);
        let mut carry: Vec<Vec<RankedObject>> = Vec::new();
        let mut batch = 0usize;
        loop {
            let mut clusters: Vec<Vec<RankedObject>> = std::mem::take(&mut carry);
            if let Some(sublist) = sublists.get(batch) {
                clusters.extend(Self::cluster_runs(sublist, &membership));
            }
            if clusters.is_empty() {
                break;
            }
            let tapes = self.batch_tapes(config, batch).ok_or_else(|| {
                let per_batch = (m as usize) * config.libraries as usize;
                PlacementError::OutOfTapes {
                    needed: (d - m) as usize * config.libraries as usize + batch.max(1) * per_batch,
                    available: config.total_tapes(),
                }
            })?;
            let mut bins: Vec<TapeBin> = tapes.iter().map(|&t| TapeBin::new(t, ct)).collect();

            let (assignments, leftovers) = match self.params.balancing {
                Balancing::ZigZag => {
                    zigzag_assign_lossy(&clusters, &mut bins, self.params.min_split_bytes)
                }
                Balancing::RoundRobin => {
                    let mut out = Vec::new();
                    let mut left: Vec<Vec<RankedObject>> = Vec::new();
                    let mut next = 0usize;
                    for cluster in &clusters {
                        let mut cluster_left = Vec::new();
                        for &o in cluster {
                            let size = Bytes(o.size);
                            let slot = (0..bins.len())
                                .map(|delta| (next + delta) % bins.len())
                                .find(|&b| bins[b].used + size <= bins[b].capacity);
                            match slot {
                                Some(slot) => {
                                    bins[slot].used += size;
                                    bins[slot].load += o.load;
                                    out.push((bins[slot].tape, o));
                                    next = (slot + 1) % bins.len();
                                }
                                None => cluster_left.push(o),
                            }
                        }
                        if !cluster_left.is_empty() {
                            left.push(cluster_left);
                        }
                    }
                    (out, left)
                }
            };
            carry = leftovers;

            // Collect per tape, align, write out, set role.
            let mut per_tape: std::collections::BTreeMap<TapeId, Vec<RankedObject>> =
                std::collections::BTreeMap::new();
            for (tape, o) in assignments {
                per_tape.entry(tape).or_default().push(o);
            }
            let role = if batch == 0 {
                TapeRole::Pinned
            } else {
                TapeRole::SwitchPool {
                    batch: batch as u16,
                }
            };
            for (tape, objects) in per_tape {
                let items: Vec<(usize, f64)> = objects
                    .iter()
                    .enumerate()
                    .map(|(j, o)| (j, o.probability))
                    .collect();
                let order = match self.params.alignment {
                    Alignment::OrganPipe => organ_pipe_order(&items),
                    Alignment::Descending => descending_order(&items),
                };
                for j in order {
                    let o = objects[j];
                    builder.append(tape, o.id, Bytes(o.size), o.probability)?;
                }
                builder.set_role(tape, role);
            }
            batch += 1;
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_model::specs::paper_table1;
    use tapesim_model::{LibraryId, ObjectId};
    use tapesim_workload::{ObjectRecord, Request};

    /// `n_req` disjoint requests of `per_req` 10 GB objects each, with
    /// linearly decaying popularity, plus `extra` unrequested objects.
    fn workload(n_req: u32, per_req: u32, extra: u32) -> Workload {
        let n = n_req * per_req + extra;
        let objects = (0..n)
            .map(|i| ObjectRecord {
                id: ObjectId(i),
                size: Bytes::gb(10),
            })
            .collect();
        let total: f64 = (1..=n_req).map(|i| i as f64).sum();
        let requests = (0..n_req)
            .map(|r| Request {
                rank: r,
                probability: (n_req - r) as f64 / total,
                objects: (r * per_req..(r + 1) * per_req).map(ObjectId).collect(),
            })
            .collect();
        Workload::new(objects, requests)
    }

    #[test]
    fn batch_tapes_interleave_libraries() {
        let cfg = paper_table1();
        let scheme = ParallelBatchPlacement::with_m(4);
        let b0 = scheme.batch_tapes(&cfg, 0).unwrap();
        assert_eq!(b0.len(), 12, "n×(d−m) = 3×4 pinned tapes");
        assert_eq!(b0[0], TapeId::new(LibraryId(0), 0));
        assert_eq!(b0[1], TapeId::new(LibraryId(1), 0));
        let b1 = scheme.batch_tapes(&cfg, 1).unwrap();
        assert_eq!(b1.len(), 12, "n×m = 3×4 switch tapes");
        assert_eq!(b1[0], TapeId::new(LibraryId(0), 4));
        let b2 = scheme.batch_tapes(&cfg, 2).unwrap();
        assert_eq!(b2[0], TapeId::new(LibraryId(0), 8));
        // Batches are disjoint.
        let all: std::collections::HashSet<_> = b0.iter().chain(&b1).chain(&b2).collect();
        assert_eq!(all.len(), 36);
    }

    #[test]
    fn batch_tapes_run_out_eventually() {
        let cfg = paper_table1();
        let scheme = ParallelBatchPlacement::with_m(4);
        // d−m=4 pinned slots + 19×4 switch slots = 80; batch 20 overflows.
        assert!(scheme.batch_tapes(&cfg, 19).is_some());
        assert!(scheme.batch_tapes(&cfg, 20).is_none());
    }

    #[test]
    fn popular_clusters_are_pinned_and_spread() {
        let cfg = paper_table1();
        // 3 requests × 20 objects × 10 GB = 200 GB per cluster.
        let w = workload(3, 20, 10);
        let p = ParallelBatchPlacement::with_m(4).place(&w, &cfg).unwrap();
        p.verify_against(&w).unwrap();

        // The hottest request's objects are all on pinned tapes…
        let mut libs = std::collections::HashSet::new();
        let mut tapes = std::collections::HashSet::new();
        for i in 0..20 {
            let loc = p.locate(ObjectId(i));
            assert_eq!(p.role(loc.tape), TapeRole::Pinned, "object {i}");
            libs.insert(loc.tape.library);
            tapes.insert(loc.tape);
        }
        // …and spread across all three libraries and many tapes.
        assert_eq!(libs.len(), 3, "cluster engages every robot");
        assert!(tapes.len() >= 8, "cluster fans out, got {}", tapes.len());
    }

    #[test]
    fn pinned_batch_accumulates_most_probability() {
        let cfg = paper_table1();
        let w = workload(10, 20, 50);
        let p = ParallelBatchPlacement::with_m(4).place(&w, &cfg).unwrap();
        let pinned_p: f64 = p
            .pinned_tapes()
            .iter()
            .map(|&t| p.tape_probability(t))
            .sum();
        let total_p: f64 = p.used_tapes().iter().map(|&t| p.tape_probability(t)).sum();
        assert!(
            pinned_p / total_p > 0.5,
            "pinned batch holds {pinned_p:.3} of {total_p:.3}"
        );
    }

    #[test]
    fn switch_batches_have_descending_probability() {
        let cfg = paper_table1();
        // 40 requests × 40 × 10 GB = 16 TB: fills the 4.56 TB pinned batch
        // and several 4.56 TB switch batches.
        let w = workload(40, 40, 0);
        let p = ParallelBatchPlacement::with_m(4).place(&w, &cfg).unwrap();
        let max_batch = p.max_switch_batch();
        assert!(max_batch >= 2, "enough data for several switch batches");
        let batch_probability = |b: u16| -> f64 {
            p.switch_batch(b)
                .iter()
                .map(|&t| p.tape_probability(t))
                .sum()
        };
        for b in 1..max_batch {
            assert!(
                batch_probability(b) >= batch_probability(b + 1) - 1e-9,
                "batch {b} lighter than batch {}",
                b + 1
            );
        }
    }

    #[test]
    fn m_parameter_controls_pinned_width() {
        let cfg = paper_table1();
        let w = workload(3, 20, 0);
        for m in 1..8u8 {
            let p = ParallelBatchPlacement::with_m(m).place(&w, &cfg).unwrap();
            let pinned = p.pinned_tapes();
            assert!(
                pinned.len() <= (8 - m) as usize * 3,
                "m={m}: {} pinned tapes",
                pinned.len()
            );
        }
    }

    #[test]
    fn rejects_m_equal_d() {
        let cfg = paper_table1();
        let w = workload(1, 10, 0);
        for m in [0, 8, 9] {
            let err = ParallelBatchPlacement::with_m(m)
                .place(&w, &cfg)
                .unwrap_err();
            assert_eq!(err, PlacementError::SwitchDrives { m, d: 8 });
        }
    }

    #[test]
    fn ablations_produce_valid_placements() {
        let cfg = paper_table1();
        let w = workload(5, 20, 10);
        for params in [
            ParallelBatchParams {
                use_clusters: false,
                ..ParallelBatchParams::default()
            },
            ParallelBatchParams {
                alignment: Alignment::Descending,
                ..ParallelBatchParams::default()
            },
            ParallelBatchParams {
                balancing: Balancing::RoundRobin,
                ..ParallelBatchParams::default()
            },
        ] {
            let p = ParallelBatchPlacement::new(params).place(&w, &cfg).unwrap();
            p.verify_against(&w).unwrap();
        }
    }

    #[test]
    fn rejects_an_object_larger_than_a_cartridge() {
        crate::schemes::assert_rejects_oversized_objects(&ParallelBatchPlacement::with_m(4));
    }

    #[test]
    fn deterministic() {
        let cfg = paper_table1();
        let w = workload(5, 20, 10);
        let s = ParallelBatchPlacement::with_m(4);
        let a = s.place(&w, &cfg).unwrap();
        let b = s.place(&w, &cfg).unwrap();
        for o in w.objects() {
            assert_eq!(a.locate(o.id), b.locate(o.id));
        }
    }
}
