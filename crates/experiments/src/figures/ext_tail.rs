//! Extension — restore-time tail latencies (beyond the paper's averages).
//!
//! The paper reports averages; a restore SLA lives in the tail. A scheme
//! whose *average* looks acceptable can still strand the unlucky request
//! behind a wall of tape exchanges. This driver reports the p50 / p95 /
//! p99 / max response time per scheme over a long sampled stream.
//!
//! Expected shape: parallel batch placement compresses the whole
//! distribution — popular requests stream switch-free from pinned tapes
//! (tight p50) and cold ones swap one batch in parallel (bounded tail) —
//! while cluster probability placement's serial transfers stretch every
//! percentile and object probability placement's exchange storms blow up
//! the tail specifically.

use crate::harness::place;
use crate::settings::ExperimentSettings;
use tapesim_analysis::{ExperimentResult, Series};
use tapesim_des::stats::Samples;
use tapesim_placement::Scheme;
use tapesim_sim::Simulator;

/// Runs the experiment. x indexes the percentile (50, 95, 99, 100).
pub fn run(base: &ExperimentSettings) -> ExperimentResult {
    let system = base.system();
    let workload = base.generate_workload();
    let percentiles = [50.0, 95.0, 99.0, 100.0];

    let mut result = ExperimentResult::new(
        "ext_tail",
        "Restore response-time percentiles per scheme",
        "percentile",
        "response time (s)",
        percentiles.to_vec(),
    );
    for scheme in Scheme::ALL {
        let placement = place(base, &system, &workload, scheme);
        let mut sim = Simulator::with_natural_policy(placement, base.m);
        let detailed =
            sim.run_sampled_detailed(&workload, base.samples.max(100) * 2, base.sim_seed);
        let mut responses: Vec<f64> = detailed.iter().map(|m| m.response).collect();
        // Pushed in ascending order, so the mean sums smallest first.
        responses.sort_by(f64::total_cmp);
        let mut samples = Samples::new();
        for r in responses {
            samples.push(r);
        }
        let ys: Vec<f64> = percentiles.iter().map(|&p| samples.percentile(p)).collect();
        result.push_note(format!(
            "{}: mean {:.0} s, p50 {:.0}, p95 {:.0}, p99 {:.0}, max {:.0} (n = {})",
            scheme.label(),
            samples.mean(),
            ys[0],
            ys[1],
            ys[2],
            ys[3],
            samples.len()
        ));
        result.push_series(Series::new(scheme.label(), ys));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::quick_settings;

    #[test]
    fn parallel_batch_compresses_the_whole_distribution() {
        let mut s = quick_settings();
        s.samples = 60;
        let r = run(&s);
        let pbp = &r.series_by_label("parallel batch").unwrap().values;
        let opp = &r.series_by_label("object probability").unwrap().values;
        let cpp = &r.series_by_label("cluster probability").unwrap().values;
        // Percentiles are non-decreasing by construction.
        for series in &r.series {
            for pair in series.values.windows(2) {
                assert!(pair[1] >= pair[0] - 1e-9, "{}", series.label);
            }
        }
        // Parallel batch placement beats both baselines at the median AND
        // at p99 — the average win is not bought with a worse tail.
        assert!(pbp[0] < opp[0] && pbp[0] < cpp[0], "median");
        assert!(pbp[2] < opp[2] && pbp[2] < cpp[2], "p99");
    }
}
