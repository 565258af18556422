//! Incremental (online) placement across backup epochs — the paper's §7
//! future work, implemented.
//!
//! "In a real system, objects are moved to tapes periodically. When we
//! place objects on tapes, we only have the local knowledge of object
//! probability and relationship. How to make an optimal or near-optimal
//! solution for the long-term backup/retrieve operations remains to be
//! solved."
//!
//! [`IncrementalPlacer`] models exactly that constraint: data already
//! written to tape **stays where it is** (tapes are sequential media; a
//! migration would be a full read-back), and each epoch only the *newly
//! arrived* objects are placed — clustered among themselves with the
//! epoch's current request knowledge, packed into the free tail of the
//! most recent switch batch and into fresh batches after it. The pinned
//! batch is whatever epoch 0 chose; as popularity drifts it holds
//! yesterday's favourites, and the `ext_online` experiment quantifies the
//! resulting decay against a full re-placement oracle.

use crate::density::density_ranked;
use crate::layout::{Placement, PlacementBuilder, PlacementError, TapeRole};
use crate::schemes::parallel_batch::{narrow_batch_membership, ParallelBatchPlacement};
use crate::ParallelBatchParams;
use crate::PlacementPolicy;
use tapesim_model::{Bytes, ObjectId, SystemConfig, TapeId};
use tapesim_workload::Workload;

/// Persistent physical contents of the system across epochs.
pub struct IncrementalPlacer {
    config: SystemConfig,
    params: ParallelBatchParams,
    /// Ordered contents of every tape (append-only), dense tape index.
    tape_contents: Vec<Vec<(ObjectId, Bytes)>>,
    /// Role assigned when each tape first received data.
    roles: Vec<TapeRole>,
    /// Objects already on tape.
    placed: usize,
    /// Highest switch batch index in use.
    last_batch: u16,
}

impl IncrementalPlacer {
    /// Performs the epoch-0 full placement (parallel batch placement with
    /// `params`) and records the physical state.
    pub fn bootstrap(
        workload: &Workload,
        config: &SystemConfig,
        params: ParallelBatchParams,
    ) -> Result<IncrementalPlacer, PlacementError> {
        let initial = ParallelBatchPlacement::new(params).place(workload, config)?;
        let n_tapes = config.total_tapes();
        let mut tape_contents: Vec<Vec<(ObjectId, Bytes)>> = vec![Vec::new(); n_tapes];
        let mut roles = vec![TapeRole::Unused; n_tapes];
        for tape in initial.used_tapes() {
            let idx = config.tape_index(tape);
            roles[idx] = initial.role(tape);
            tape_contents[idx] = initial
                .tape_layout(tape)
                .extents()
                .iter()
                .map(|e| (e.object, e.size))
                .collect();
        }
        Ok(IncrementalPlacer {
            config: *config,
            params,
            tape_contents,
            roles,
            placed: workload.objects().len(),
            last_batch: initial.max_switch_batch(),
        })
    }

    /// Number of objects currently on tape.
    pub fn placed_objects(&self) -> usize {
        self.placed
    }

    /// Highest switch-batch index in use.
    pub fn last_batch(&self) -> u16 {
        self.last_batch
    }

    /// Places the objects of `workload` that arrived since the last epoch
    /// (ids `>= placed_objects()`), then returns the placement of the whole
    /// population with tape probabilities refreshed from the epoch's
    /// request set.
    ///
    /// Existing data never moves; new objects append to the most recent
    /// switch batch's free space and to fresh batches beyond it.
    pub fn advance(&mut self, workload: &Workload) -> Result<Placement, PlacementError> {
        assert!(
            workload.objects().len() >= self.placed,
            "workload shrank — evolution is append-only"
        );
        let capacity = self.config.library.tape.capacity;

        // Rank the new objects by this epoch's density (step 1–2, applied
        // locally).
        let ranked = density_ranked(workload);
        let new_ranked: Vec<_> = ranked
            .iter()
            .filter(|r| r.id.idx() >= self.placed)
            .copied()
            .collect();

        // Cluster the epoch's requests and keep runs of *new* objects
        // together (old cluster members are immovable anyway).
        let membership: Vec<usize> = if self.params.use_clusters && !new_ranked.is_empty() {
            narrow_batch_membership(workload, &self.config, &self.params)
        } else {
            (0..workload.objects().len()).collect()
        };

        // Group new objects into cluster runs, preserving density order.
        let mut runs: Vec<Vec<crate::density::RankedObject>> = Vec::new();
        let mut last = usize::MAX;
        for &o in &new_ranked {
            let c = membership[o.id.idx()];
            if c == last {
                runs.last_mut().expect("run exists").push(o);
            } else {
                runs.push(vec![o]);
                last = c;
            }
        }

        // Append each run into the current batch's free space; open fresh
        // batches as needed. Within a batch, objects go to the tape with
        // the most free space (greedy balance; the batch interleaves
        // libraries, so spreading is automatic).
        let mut batch_tapes = self.switch_batch_tapes(self.last_batch.max(1))?;
        for run in runs {
            for o in run {
                let size = Bytes(o.size);
                loop {
                    let best = batch_tapes
                        .iter()
                        .copied()
                        .max_by_key(|&t| {
                            let idx = self.config.tape_index(t);
                            capacity.saturating_sub(self.used(idx))
                        })
                        .filter(|&t| {
                            let idx = self.config.tape_index(t);
                            self.used(idx) + size <= capacity
                        });
                    match best {
                        Some(t) => {
                            let idx = self.config.tape_index(t);
                            self.tape_contents[idx].push((o.id, size));
                            if self.roles[idx] == TapeRole::Unused {
                                self.roles[idx] = TapeRole::SwitchPool {
                                    batch: self.last_batch.max(1),
                                };
                            }
                            break;
                        }
                        None => {
                            self.last_batch += 1;
                            batch_tapes = self.switch_batch_tapes(self.last_batch)?;
                        }
                    }
                }
            }
        }
        self.placed = workload.objects().len();
        self.rebuild(workload)
    }

    fn used(&self, tape_idx: usize) -> Bytes {
        self.tape_contents[tape_idx].iter().map(|&(_, s)| s).sum()
    }

    /// Tapes of switch batch `b` under the bootstrap's geometry.
    fn switch_batch_tapes(&self, b: u16) -> Result<Vec<TapeId>, PlacementError> {
        let d = self.config.library.drives as usize;
        let m = self.params.m as usize;
        let start = d - m + (b as usize - 1) * m;
        if start + m > self.config.library.tapes as usize {
            return Err(PlacementError::OutOfTapes {
                needed: (start + m) * self.config.libraries as usize,
                available: self.config.total_tapes(),
            });
        }
        let mut out = Vec::with_capacity(m * self.config.libraries as usize);
        for slot in start..start + m {
            for lib in self.config.library_ids() {
                out.push(TapeId::new(lib, slot as u16));
            }
        }
        Ok(out)
    }

    /// Builds the full [`Placement`] view with probabilities from the
    /// current workload.
    fn rebuild(&self, workload: &Workload) -> Result<Placement, PlacementError> {
        let probs = workload.object_probabilities();
        let mut builder = PlacementBuilder::new(&self.config, workload);
        for (idx, contents) in self.tape_contents.iter().enumerate() {
            if contents.is_empty() {
                continue;
            }
            let tape = TapeId::new(
                tapesim_model::LibraryId((idx / self.config.library.tapes as usize) as u16),
                (idx % self.config.library.tapes as usize) as u16,
            );
            for &(object, size) in contents {
                builder.append(tape, object, size, probs[object.idx()])?;
            }
            builder.set_role(tape, self.roles[idx]);
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_model::specs::paper_table1;
    use tapesim_workload::{EvolutionSpec, ObjectSizeSpec, RequestSpec, WorkloadSpec};

    fn base_workload() -> Workload {
        WorkloadSpec {
            objects: 3_000,
            sizes: ObjectSizeSpec::default().calibrated(Bytes::gb(5)),
            requests: RequestSpec {
                count: 60,
                min_objects: 20,
                max_objects: 30,
                count_shape: 1.0,
                alpha: 0.3,
            },
            seed: 99,
        }
        .generate()
    }

    fn evolution(seed: u64) -> EvolutionSpec {
        EvolutionSpec {
            growth: 0.05,
            churn: 0.25,
            new_sizes: ObjectSizeSpec::default().calibrated(Bytes::gb(5)),
            new_requests: RequestSpec {
                count: 60,
                min_objects: 20,
                max_objects: 30,
                count_shape: 1.0,
                alpha: 0.3,
            },
            seed,
        }
    }

    #[test]
    fn bootstrap_matches_full_placement() {
        let cfg = paper_table1();
        let w = base_workload();
        let params = ParallelBatchParams::default();
        let mut placer = IncrementalPlacer::bootstrap(&w, &cfg, params).unwrap();
        let incremental = placer.advance(&w).unwrap(); // no new objects
        let full = ParallelBatchPlacement::new(params).place(&w, &cfg).unwrap();
        for o in w.objects() {
            assert_eq!(incremental.locate(o.id), full.locate(o.id));
        }
    }

    #[test]
    fn old_objects_never_move_across_epochs() {
        let cfg = paper_table1();
        let w0 = base_workload();
        let mut placer =
            IncrementalPlacer::bootstrap(&w0, &cfg, ParallelBatchParams::default()).unwrap();
        let p0 = placer.advance(&w0).unwrap();
        let w1 = evolution(1).advance(&w0);
        let p1 = placer.advance(&w1).unwrap();
        for o in w0.objects() {
            assert_eq!(
                p0.locate(o.id),
                p1.locate(o.id),
                "object {} moved between epochs",
                o.id
            );
        }
        // …and the new arrivals are placed.
        p1.verify_against(&w1).unwrap();
        assert_eq!(placer.placed_objects(), w1.objects().len());
    }

    #[test]
    fn pinned_batch_is_never_extended() {
        let cfg = paper_table1();
        let w0 = base_workload();
        let mut placer =
            IncrementalPlacer::bootstrap(&w0, &cfg, ParallelBatchParams::default()).unwrap();
        let p0 = placer.advance(&w0).unwrap();
        let pinned_used: Vec<Bytes> = p0
            .pinned_tapes()
            .iter()
            .map(|&t| p0.tape_layout(t).used())
            .collect();
        let mut w = w0;
        for seed in 1..4 {
            w = evolution(seed).advance(&w);
            let p = placer.advance(&w).unwrap();
            for (i, &t) in p0.pinned_tapes().iter().enumerate() {
                assert_eq!(
                    p.tape_layout(t).used(),
                    pinned_used[i],
                    "pinned tape {t} grew"
                );
            }
        }
    }

    #[test]
    fn epochs_extend_switch_batches_monotonically() {
        let cfg = paper_table1();
        let w0 = base_workload();
        let mut placer =
            IncrementalPlacer::bootstrap(&w0, &cfg, ParallelBatchParams::default()).unwrap();
        let b0 = placer.last_batch();
        let mut w = w0;
        for seed in 1..6 {
            w = evolution(seed).advance(&w);
            placer.advance(&w).unwrap();
        }
        assert!(placer.last_batch() >= b0, "batches never shrink");
        // 5 epochs × 5% growth on 15 TB adds ~4 TB: at least one new batch.
        assert!(placer.last_batch() > b0, "growth must open new batches");
    }

    #[test]
    #[should_panic(expected = "append-only")]
    fn rejects_shrinking_workload() {
        let cfg = paper_table1();
        let w0 = base_workload();
        let mut placer =
            IncrementalPlacer::bootstrap(&w0, &cfg, ParallelBatchParams::default()).unwrap();
        let smaller = WorkloadSpec {
            objects: 100,
            sizes: ObjectSizeSpec::default(),
            requests: RequestSpec {
                count: 5,
                min_objects: 2,
                max_objects: 4,
                count_shape: 1.0,
                alpha: 0.3,
            },
            seed: 1,
        }
        .generate();
        let _ = placer.advance(&smaller);
    }
}
