//! Extension — long-term incremental placement (§7 future work).
//!
//! "How to make an optimal or near-optimal solution for the long-term
//! backup/retrieve operations remains to be solved." This driver runs a
//! multi-epoch campaign: every epoch the object population grows, a
//! quarter of the restore patterns churn (new ones favour recent data),
//! and two systems serve the epoch's requests:
//!
//! * **incremental** — objects already on tape never move
//!   ([`tapesim_placement::IncrementalPlacer`]); only new arrivals are
//!   placed, with the epoch's local knowledge;
//! * **oracle re-place** — a full parallel batch placement of the entire
//!   population with the epoch's request set (what a periodic full
//!   reorganisation would achieve).
//!
//! The gap between the two curves is the price of the paper's open
//! problem.

use crate::harness::evaluate_placement;
use crate::settings::ExperimentSettings;
use tapesim_analysis::{ExperimentResult, Series};
use tapesim_placement::{
    IncrementalPlacer, ParallelBatchParams, ParallelBatchPlacement, PlacementPolicy,
};
use tapesim_workload::EvolutionSpec;

/// Number of epochs simulated (epoch 0 = the bootstrap placement).
pub fn epochs() -> usize {
    6
}

/// Runs the experiment. x is the epoch index.
pub fn run(base: &ExperimentSettings) -> ExperimentResult {
    let n_epochs = epochs();
    let system = base.system();
    let params = ParallelBatchParams::default().with_m(base.m);

    let oracle_policy = ParallelBatchPlacement::new(params);

    let mut workload = base.generate_workload();
    let bootstrap = oracle_policy
        .place(&workload, &system)
        .expect("bootstrap placement");
    let mut placer = IncrementalPlacer::from_placement(&workload, &bootstrap, params);
    // Epoch 0's oracle is the bootstrap placement itself.
    let mut bootstrap = Some(bootstrap);

    let mut incremental = Vec::with_capacity(n_epochs);
    let mut oracle = Vec::with_capacity(n_epochs);
    for epoch in 0..n_epochs {
        if epoch > 0 {
            workload = EvolutionSpec {
                growth: 0.05,
                churn: 0.25,
                new_sizes: base.workload.sizes,
                new_requests: base.workload.requests,
                seed: base.workload.seed ^ (0xE90C_u64 + epoch as u64),
            }
            .advance(&workload);
        }
        let inc_placement = placer.advance(&workload).expect("incremental placement");
        incremental.push(evaluate_placement(base, &workload, inc_placement).avg_bandwidth_mbs());
        let oracle_placement = bootstrap.take().unwrap_or_else(|| {
            oracle_policy
                .place(&workload, &system)
                .expect("oracle placement")
        });
        oracle.push(evaluate_placement(base, &workload, oracle_placement).avg_bandwidth_mbs());
    }

    let mut result = ExperimentResult::new(
        "ext_online",
        "Incremental placement vs. full re-placement across epochs",
        "epoch",
        "bandwidth (MB/s)",
        (0..n_epochs).map(|e| e as f64).collect(),
    );
    result.push_series(Series::new(
        "incremental (no migration)",
        incremental.clone(),
    ));
    result.push_series(Series::new("oracle full re-place", oracle.clone()));
    let final_gap =
        (oracle.last().unwrap() - incremental.last().unwrap()) / oracle.last().unwrap() * 100.0;
    result.push_note(format!(
        "5% object growth and 25% request churn per epoch; final-epoch gap {final_gap:.0}% \
         — the cost of §7's open problem"
    ));
    result.push_note(format!("{} samples per epoch", base.samples));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::quick_settings;

    #[test]
    fn oracle_dominates_and_gap_opens() {
        let mut s = quick_settings();
        s.samples = 30;
        let r = run(&s);
        let inc = &r
            .series_by_label("incremental (no migration)")
            .unwrap()
            .values;
        let ora = &r.series_by_label("oracle full re-place").unwrap().values;
        assert_eq!(inc.len(), epochs());
        // Epoch 0: identical physical layout → identical measurement.
        assert!(
            (inc[0] - ora[0]).abs() < 1e-6,
            "epoch 0 should match exactly: {} vs {}",
            inc[0],
            ora[0]
        );
        // Later epochs: the oracle is never (meaningfully) worse, and by
        // the final epoch a real gap has opened.
        for e in 1..inc.len() {
            assert!(
                ora[e] >= inc[e] * 0.95,
                "epoch {e}: oracle {:.0} far below incremental {:.0}",
                ora[e],
                inc[e]
            );
        }
        let last = inc.len() - 1;
        assert!(
            ora[last] > inc[last],
            "no gap by the final epoch: oracle {:.0} vs incremental {:.0}",
            ora[last],
            inc[last]
        );
    }
}
