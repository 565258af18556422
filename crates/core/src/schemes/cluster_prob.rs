//! **Cluster probability placement** (Li & Prabhakar, MSS'02 \[20\]).
//!
//! The second baseline. It assumes the access cost of a tape library is
//! dominated by media switches and head positioning, and therefore packs
//! objects with a strong access relationship **onto the same tape**: a
//! request then touches as few cartridges as possible. Clusters are placed
//! in descending popularity so the hottest cartridges accumulate the most
//! probability (keeping them mounted avoids most switches), and each
//! cartridge is organ-pipe aligned internally.
//!
//! What the scheme gives up is *transfer parallelism*: a whole request
//! streams from one drive, which is exactly the behaviour the paper's
//! Figure 8 (no scaling with libraries) and Figure 9 (worst transfer time)
//! show.

use crate::density::density_ranked;
use crate::layout::{check_object_sizes, Placement, PlacementBuilder, PlacementError, TapeRole};
use crate::organ_pipe::organ_pipe_order;
use crate::policy::PlacementPolicy;
use crate::schemes::round_robin_tapes;
use tapesim_cluster::ClusterParams;
use tapesim_model::{Bytes, SystemConfig};
use tapesim_workload::Workload;

/// Configuration of the cluster-probability baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterProbabilityPlacement {
    /// Tape capacity utilisation coefficient `k` (< 1). Clusters are cut
    /// at [`tapesim_cluster::THRESHOLD_FRACTION`] of the smallest request
    /// probability.
    pub k_utilization: f64,
}

impl Default for ClusterProbabilityPlacement {
    fn default() -> Self {
        ClusterProbabilityPlacement {
            k_utilization: 0.95,
        }
    }
}

impl PlacementPolicy for ClusterProbabilityPlacement {
    fn name(&self) -> &'static str {
        "cluster_prob"
    }

    fn display_name(&self) -> &'static str {
        "cluster probability placement"
    }

    fn place(
        &self,
        workload: &Workload,
        config: &SystemConfig,
    ) -> Result<Placement, PlacementError> {
        check_object_sizes(workload, config)?;
        let soft_cap = config.library.tape.capacity.scale(self.k_utilization);
        // Clusters must fit one cartridge — that is the whole point of the
        // scheme. Average linkage keeps overlapping requests from chaining
        // into one mega-cluster (the paper's workload shares objects across
        // requests aggressively).
        let params = ClusterParams {
            max_bytes: Some(soft_cap),
        };
        let clusters = params.cluster(workload);

        // Rank objects once; index by id for cluster accounting.
        let ranked = density_ranked(workload);
        let mut by_id = ranked.clone();
        for r in &ranked {
            by_id[r.id.idx()] = *r;
        }

        // Order clusters by descending total probability (ties: smaller
        // first member — deterministic).
        let mut order: Vec<usize> = (0..clusters.clusters().len()).collect();
        let cluster_prob: Vec<f64> = clusters
            .clusters()
            .iter()
            .map(|c| c.iter().map(|o| by_id[o.idx()].probability).sum())
            .collect();
        order.sort_by(|&a, &b| {
            cluster_prob[b]
                .partial_cmp(&cluster_prob[a])
                .expect("finite probabilities")
                .then(clusters.clusters()[a][0].cmp(&clusters.clusters()[b][0]))
        });

        // First-fit in popularity order over library-interleaved tapes.
        let tapes = round_robin_tapes(config);
        let mut per_tape: Vec<Vec<tapesim_model::ObjectId>> = vec![Vec::new(); tapes.len()];
        let mut used: Vec<Bytes> = vec![Bytes::ZERO; tapes.len()];
        let mut frontier = 0usize; // first tape that has ever been empty
        for &c in &order {
            let members = &clusters.clusters()[c];
            let bytes: Bytes = members.iter().map(|o| Bytes(by_id[o.idx()].size)).sum();
            let slot = (0..=frontier.min(tapes.len() - 1)).find(|&i| {
                used[i] + bytes <= soft_cap || (per_tape[i].is_empty() && bytes > soft_cap)
            });
            let Some(slot) = slot else {
                return Err(PlacementError::OutOfTapes {
                    needed: tapes.len() + 1,
                    available: tapes.len(),
                });
            };
            used[slot] += bytes;
            per_tape[slot].extend_from_slice(members);
            if slot == frontier && frontier + 1 < tapes.len() {
                frontier += 1;
            } else if slot == frontier {
                // Last tape opened; future misfits are errors.
            }
        }

        // Write out with organ-pipe alignment and popularity-ordered roles.
        let mut builder = PlacementBuilder::new(config, workload);
        let total_drives = config.total_drives();
        let mut fill_rank = 0usize;
        for (i, members) in per_tape.iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            let items: Vec<(usize, f64)> = members
                .iter()
                .enumerate()
                .map(|(j, o)| (j, by_id[o.idx()].probability))
                .collect();
            for j in organ_pipe_order(&items) {
                let o = by_id[members[j].idx()];
                builder.append(tapes[i], o.id, Bytes(o.size), o.probability)?;
            }
            builder.set_role(
                tapes[i],
                TapeRole::SwitchPool {
                    batch: (fill_rank / total_drives) as u16 + 1,
                },
            );
            fill_rank += 1;
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

    /// Two requests with disjoint object sets plus background singletons.
    fn workload() -> Workload {
        let objects = (0..20)
            .map(|i| ObjectRecord {
                id: ObjectId(i),
                size: Bytes::gb(10),
            })
            .collect();
        let requests = vec![
            Request {
                rank: 0,
                probability: 0.7,
                objects: (0..8).map(ObjectId).collect(),
            },
            Request {
                rank: 1,
                probability: 0.3,
                objects: (8..14).map(ObjectId).collect(),
            },
        ];
        Workload::new(objects, requests)
    }

    #[test]
    fn request_clusters_land_on_single_tapes() {
        let cfg = paper_table1();
        let p = ClusterProbabilityPlacement::default()
            .place(&workload(), &cfg)
            .unwrap();
        // All of request 0's objects on one tape.
        let t0 = p.locate(ObjectId(0)).tape;
        for i in 0..8 {
            assert_eq!(p.locate(ObjectId(i)).tape, t0, "object {i} strayed");
        }
        // All of request 1's objects on one tape (possibly the same: both
        // clusters total 140 GB < 380 GB soft cap).
        let t1 = p.locate(ObjectId(8)).tape;
        for i in 8..14 {
            assert_eq!(p.locate(ObjectId(i)).tape, t1);
        }
    }

    #[test]
    fn hottest_cluster_gets_the_first_tape() {
        let cfg = paper_table1();
        let p = ClusterProbabilityPlacement::default()
            .place(&workload(), &cfg)
            .unwrap();
        let t0 = p.locate(ObjectId(0)).tape;
        assert_eq!(t0.slot, 0, "0.7-probability cluster placed first");
        assert!(p.tape_probability(t0) >= 0.7);
    }

    #[test]
    fn placement_is_complete_and_valid() {
        let cfg = paper_table1();
        let w = workload();
        let p = ClusterProbabilityPlacement::default()
            .place(&w, &cfg)
            .unwrap();
        p.verify_against(&w).unwrap();
        assert!(p.n_used_tapes() >= 1);
    }

    #[test]
    fn empty_workload_places_nothing() {
        let w = Workload::new(vec![], vec![]);
        let p = ClusterProbabilityPlacement::default()
            .place(&w, &paper_table1())
            .unwrap();
        p.verify_against(&w).unwrap();
        assert_eq!(p.n_used_tapes(), 0);
    }

    #[test]
    fn rejects_an_object_larger_than_a_cartridge() {
        crate::schemes::assert_rejects_oversized_objects(&ClusterProbabilityPlacement::default());
    }

    #[test]
    fn deterministic() {
        let cfg = paper_table1();
        let w = workload();
        let s = ClusterProbabilityPlacement::default();
        let a = s.place(&w, &cfg).unwrap();
        let b = s.place(&w, &cfg).unwrap();
        for i in 0..20 {
            assert_eq!(a.locate(ObjectId(i)), b.locate(ObjectId(i)));
        }
    }
}
