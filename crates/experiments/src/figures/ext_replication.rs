//! Extension — buying back the residual switches with replication.
//!
//! Even parallel batch placement cannot co-locate a *shared* object with
//! every request that wants it; at the paper's workload (~half of
//! requested objects shared) those foreign-cartridge visits are most of
//! PBP's remaining switch time. Tape capacity is the one resource the
//! system has spare (~46% of the cells are empty), so this driver spends
//! it: [`tapesim_workload::replicate_workload`] gives the most valuable
//! shared objects a private copy per requesting group, and the sweep
//! measures bandwidth and residual exchanges as the byte budget grows.

use crate::harness::{evaluate, sweep};
use crate::settings::ExperimentSettings;
use tapesim_analysis::{ExperimentResult, Series};
use tapesim_model::Bytes;
use tapesim_placement::Scheme;
use tapesim_workload::{replicate_workload, ReplicationSpec};

/// Swept budgets as a percentage of the workload's total bytes.
pub fn budget_percents() -> Vec<f64> {
    vec![0.0, 1.0, 2.0, 5.0, 10.0, 20.0]
}

/// Runs the experiment (parallel batch placement; x = budget %).
pub fn run(base: &ExperimentSettings) -> ExperimentResult {
    let pcts = budget_percents();
    let system = base.system();
    let original = base.generate_workload();
    let total = original.total_bytes();

    let rows = sweep(pcts.clone(), |&pct| {
        let budget = total.scale(pct / 100.0);
        let (workload, map) = replicate_workload(&original, ReplicationSpec { budget });
        let run = evaluate(base, &system, &workload, Scheme::ParallelBatch);
        (
            run.avg_bandwidth_mbs(),
            run.avg_switches(),
            run.avg_switch(),
            map.n_copies(),
            map.spent,
        )
    });

    let mut result = ExperimentResult::new(
        "ext_replication",
        "Replicating shared objects vs. residual switches (PBP)",
        "replication budget (% of workload bytes)",
        "bandwidth (MB/s)",
        pcts.clone(),
    );
    result.push_series(Series::new("bandwidth", rows.iter().map(|r| r.0).collect()));
    result.push_series(Series::new(
        "exchanges per request",
        rows.iter().map(|r| r.1).collect(),
    ));
    result.push_series(Series::new(
        "switch time (s)",
        rows.iter().map(|r| r.2).collect(),
    ));
    for (pct, row) in pcts.iter().zip(&rows) {
        result.push_note(format!(
            "budget {pct}%: {} copies ({} spent), {:.1} MB/s, {:.1} exchanges/request",
            row.3,
            Bytes(row.4.get()),
            row.0,
            row.1
        ));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::quick_settings;

    #[test]
    fn replication_buys_bandwidth_with_bytes() {
        let mut s = quick_settings();
        s.samples = 40;
        let r = run(&s);
        let bw = &r.series_by_label("bandwidth").unwrap().values;
        let sw = &r.series_by_label("exchanges per request").unwrap().values;
        // More budget never means more exchanges (weak monotone with
        // generous slack for placement noise)…
        assert!(
            sw.last().unwrap() <= &(sw[0] * 1.05 + 0.5),
            "exchanges rose with budget: {sw:?}"
        );
        // …and a 20% budget buys a real bandwidth win over none.
        assert!(
            bw.last().unwrap() > &(bw[0] * 1.05),
            "20% budget should clearly beat 0%: {bw:?}"
        );
    }
}
