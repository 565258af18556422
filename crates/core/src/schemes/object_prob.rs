//! **Object probability placement** (Christodoulakis et al., VLDB'97 \[11\]).
//!
//! The first baseline of the paper's evaluation. Individual object access
//! probabilities are assumed known — and *only* they: the scheme is blind
//! to object relationships. Objects are ranked by descending probability
//! and **dealt round-robin across the tapes in use** (the reading of the
//! paper's Figure 4, which shows a 15-object/3-tape library with each tape
//! holding an organ-pipe of every third rank): each tape accumulates a
//! balanced probability mass with its most popular resident in the middle,
//! which is what minimises expected *seek* time under independent accesses
//! and maximises *transfer* parallelism.
//!
//! The consequences the paper measures all follow from this rank striping:
//! the scheme has the best data transfer time and the lowest all-mounted
//! response (Figure 7's extreme case), it scales with libraries (Figure
//! 8), but a request's co-accessed objects scatter over many offline
//! cartridges, so its tape switch time is the worst of the three schemes
//! and dominates its response (Figure 9).

use crate::density::probability_ranked;
use crate::layout::{check_object_sizes, Placement, PlacementBuilder, PlacementError, TapeRole};
use crate::organ_pipe::organ_pipe_order;
use crate::policy::PlacementPolicy;
use crate::schemes::round_robin_tapes;
use tapesim_model::{Bytes, SystemConfig};
use tapesim_workload::Workload;

/// Configuration of the object-probability baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectProbabilityPlacement {
    /// Tape capacity utilisation coefficient `k` (< 1): the tape pool is
    /// sized so each tape targets `k × C_t` bytes.
    pub k_utilization: f64,
}

impl Default for ObjectProbabilityPlacement {
    fn default() -> Self {
        ObjectProbabilityPlacement {
            k_utilization: 0.95,
        }
    }
}

impl PlacementPolicy for ObjectProbabilityPlacement {
    fn name(&self) -> &'static str {
        "object_prob"
    }

    fn display_name(&self) -> &'static str {
        "object probability placement"
    }

    fn place(
        &self,
        workload: &Workload,
        config: &SystemConfig,
    ) -> Result<Placement, PlacementError> {
        check_object_sizes(workload, config)?;
        let ranked = probability_ranked(workload);
        let tapes = round_robin_tapes(config);
        let capacity = config.library.tape.capacity;
        let soft_cap = capacity.scale(self.k_utilization);

        // Size the active tape pool from the soft capacity target.
        let total: u64 = ranked.iter().map(|o| o.size).sum();
        let pool = ((total + soft_cap.get() - 1) / soft_cap.get().max(1)) as usize;
        let pool = pool.clamp(1, tapes.len());

        // Deal ranks round-robin over the pool (Figure 4), with a capacity
        // guard walking forward to the next tape with room.
        let mut per_tape: Vec<Vec<&crate::density::RankedObject>> = vec![Vec::new(); pool];
        let mut used = vec![Bytes::ZERO; pool];
        let mut overflow_from = pool; // next fresh tape if the pool fills up
        for (rank, obj) in ranked.iter().enumerate() {
            let size = Bytes(obj.size);
            let start = rank % pool;
            let slot = (0..pool)
                .map(|delta| (start + delta) % pool)
                .find(|&i| used[i] + size <= capacity);
            match slot {
                Some(i) => {
                    used[i] += size;
                    per_tape[i].push(obj);
                }
                None => {
                    // Pool exhausted (k-slack used up): open fresh tapes.
                    if overflow_from >= tapes.len() {
                        return Err(PlacementError::OutOfTapes {
                            needed: overflow_from + 1,
                            available: tapes.len(),
                        });
                    }
                    per_tape.push(vec![obj]);
                    used.push(size);
                    overflow_from += 1;
                }
            }
        }

        // Write out: organ-pipe order within each tape; role batches follow
        // the deal order so startup mounts are well-defined.
        let mut builder = PlacementBuilder::new(config, workload);
        let total_drives = config.total_drives();
        for (i, objects) in per_tape.iter().enumerate() {
            if objects.is_empty() {
                continue;
            }
            let items: Vec<(usize, f64)> = objects
                .iter()
                .enumerate()
                .map(|(j, o)| (j, o.probability))
                .collect();
            for j in organ_pipe_order(&items) {
                let o = objects[j];
                builder.append(tapes[i], o.id, Bytes(o.size), o.probability)?;
            }
            builder.set_role(
                tapes[i],
                TapeRole::SwitchPool {
                    batch: (i / total_drives) as u16 + 1,
                },
            );
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_model::specs::paper_table1;
    use tapesim_model::ObjectId;
    use tapesim_workload::{ObjectRecord, Request};

    fn workload(n: u32, size_gb: u64) -> Workload {
        let objects = (0..n)
            .map(|i| ObjectRecord {
                id: ObjectId(i),
                size: Bytes::gb(size_gb),
            })
            .collect();
        // Object i requested alone with probability proportional to n−i:
        // object 0 is the most popular, all probabilities distinct.
        let total: f64 = (1..=n).map(|i| i as f64).sum();
        let requests = (0..n)
            .map(|i| Request {
                rank: i,
                probability: (n - i) as f64 / total,
                objects: vec![ObjectId(i)],
            })
            .collect();
        Workload::new(objects, requests)
    }

    #[test]
    fn ranks_stripe_across_the_pool() {
        let cfg = paper_table1();
        // 30 × 100 GB = 3 TB → pool of ceil(3000/380) = 8 tapes.
        let w = workload(30, 100);
        let p = ObjectProbabilityPlacement::default()
            .place(&w, &cfg)
            .unwrap();
        p.verify_against(&w).unwrap();
        assert_eq!(p.n_used_tapes(), 8);
        // Consecutive ranks land on different tapes…
        let t0 = p.locate(ObjectId(0)).tape;
        let t1 = p.locate(ObjectId(1)).tape;
        assert_ne!(t0, t1);
        // …and rank r and rank r+pool share a tape.
        assert_eq!(t0, p.locate(ObjectId(8)).tape);
        // Consecutive tapes rotate libraries (round-robin enumeration).
        assert_ne!(t0.library, t1.library);
    }

    #[test]
    fn tape_probabilities_are_balanced() {
        let cfg = paper_table1();
        let w = workload(64, 50);
        let p = ObjectProbabilityPlacement::default()
            .place(&w, &cfg)
            .unwrap();
        let probs: Vec<f64> = p
            .used_tapes()
            .iter()
            .map(|&t| p.tape_probability(t))
            .collect();
        let max = probs.iter().cloned().fold(f64::MIN, f64::max);
        let min = probs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max / min < 1.5,
            "striping should balance tape probability: {probs:?}"
        );
    }

    #[test]
    fn organ_pipe_within_tape() {
        let cfg = paper_table1();
        let w = workload(24, 100); // pool of 7; tape of rank 0 gets ranks 0,7,14,21
        let p = ObjectProbabilityPlacement::default()
            .place(&w, &cfg)
            .unwrap();
        let tape = p.locate(ObjectId(0)).tape;
        let layout = p.tape_layout(tape);
        assert_eq!(layout.len(), 4);
        // Most popular resident (rank 0) sits mid-tape, not at the front.
        let pos = layout
            .extents()
            .iter()
            .position(|e| e.object == ObjectId(0))
            .unwrap();
        assert!(pos == 1 || pos == 2, "organ-pipe middle, got index {pos}");
    }

    #[test]
    fn out_of_tapes_detected() {
        let cfg = tapesim_model::SystemConfig::new(
            1,
            tapesim_model::specs::stk_l80_library(
                tapesim_model::specs::lto3_drive(),
                tapesim_model::specs::lto3_tape(),
            ),
        )
        .unwrap();
        // 81 tapes' worth of 400 GB objects into an 80-tape library.
        let w = workload(81, 400);
        let err = ObjectProbabilityPlacement::default().place(&w, &cfg);
        assert!(matches!(err, Err(PlacementError::OutOfTapes { .. })));
    }

    #[test]
    fn rejects_an_object_larger_than_a_cartridge() {
        crate::schemes::assert_rejects_oversized_objects(&ObjectProbabilityPlacement::default());
    }

    #[test]
    fn deterministic() {
        let cfg = paper_table1();
        let w = workload(50, 40);
        let scheme = ObjectProbabilityPlacement::default();
        let a = scheme.place(&w, &cfg).unwrap();
        let b = scheme.place(&w, &cfg).unwrap();
        for i in 0..50 {
            assert_eq!(a.locate(ObjectId(i)), b.locate(ObjectId(i)));
        }
    }
}
