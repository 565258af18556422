//! Figure 6 — effective bandwidth vs. request popularity skew α.
//!
//! Paper finding: a more skewed popularity favours *parallel batch* and
//! *object probability* placement (fewer tapes accumulate more probability
//! and stay mounted), while *cluster probability* placement barely moves;
//! parallel batch placement wins everywhere. The paper runs this at an
//! average request size of ≈213 GB and then fixes α = 0.3.

use crate::harness::{scheme_bandwidths, sweep};
use crate::settings::ExperimentSettings;
use tapesim_analysis::ExperimentResult;

/// The swept α values.
pub fn alphas() -> Vec<f64> {
    (0..=10).map(|i| i as f64 / 10.0).collect()
}

/// Runs the experiment.
pub fn run(base: &ExperimentSettings) -> ExperimentResult {
    let alphas = alphas();
    let system = base.system();

    // One workload per α (same objects and request memberships — only the
    // popularity weights change; see tapesim-workload's stream splitting),
    // shared by the three schemes.
    let workloads = sweep(alphas.clone(), |&a| base.with_alpha(a).generate_workload());
    let points: Vec<_> = alphas
        .iter()
        .zip(&workloads)
        .map(|(&a, w)| (base.with_alpha(a), system, w))
        .collect();

    let mut result = ExperimentResult::new(
        "fig6",
        "Effective bandwidth vs. alpha",
        "alpha",
        "bandwidth (MB/s)",
        alphas.clone(),
    );
    for series in scheme_bandwidths(&points) {
        result.push_series(series);
    }
    // α leaves object sizes and request memberships alone, so every
    // workload has the base workload's average request size.
    result.push_note(format!(
        "average request size {:.0} GB; {} samples per point; m = {}",
        workloads[0].avg_request_bytes().as_gb(),
        base.samples,
        base.m
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::quick_settings;

    #[test]
    fn shape_matches_the_paper() {
        let mut s = quick_settings();
        s.samples = 40;
        let r = run(&s);
        assert_eq!(r.x.len(), 11);
        assert_eq!(r.series.len(), 3);

        let pbp = &r.series_by_label("parallel batch").unwrap().values;
        let opp = &r.series_by_label("object probability").unwrap().values;
        let cpp = &r.series_by_label("cluster probability").unwrap().values;

        // Parallel batch wins at every α (the paper's headline claim).
        for i in 0..r.x.len() {
            assert!(
                pbp[i] > opp[i] && pbp[i] > cpp[i],
                "α={}: pbp {:.1} opp {:.1} cpp {:.1}",
                r.x[i],
                pbp[i],
                opp[i],
                cpp[i]
            );
        }
        // Skew helps parallel batch placement: compare ends.
        assert!(
            pbp[10] > pbp[0],
            "pbp at α=1 ({:.1}) should beat α=0 ({:.1})",
            pbp[10],
            pbp[0]
        );
    }
}
