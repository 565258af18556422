//! Extension — what would a second robot arm buy? (§4's contention story.)
//!
//! The paper's whole trade-off space exists because "the tape load/unload
//! within a tape library is sequential due to the constraint of one robot
//! in a tape library". Larger silos ship with dual accessors; this driver
//! re-runs the three schemes with 1–3 arms per library.
//!
//! Expected shape: the switch-bound scheme (object probability placement)
//! gains the most — its exchanges queue on the arm — while cluster
//! probability placement, which hardly exchanges, gains almost nothing.
//! Parallel batch placement sits in between: it already *schedules around*
//! the single arm by spreading batches across libraries, which is exactly
//! why the paper's scheme wins without extra hardware.

use crate::harness::scheme_bandwidths;
use crate::settings::ExperimentSettings;
use tapesim_analysis::ExperimentResult;

/// Swept arm counts per library.
pub fn arm_counts() -> Vec<u8> {
    vec![1, 2, 3]
}

/// Runs the experiment. x is the number of arms per library.
pub fn run(base: &ExperimentSettings) -> ExperimentResult {
    let arms = arm_counts();
    let workload = base.generate_workload();
    let points: Vec<_> = arms
        .iter()
        .map(|&a| {
            let mut system = base.system();
            system.library.robot.arms = a;
            (*base, system, &workload)
        })
        .collect();

    let mut result = ExperimentResult::new(
        "ext_robots",
        "Bandwidth vs. robot arms per library",
        "robot arms per library",
        "bandwidth (MB/s)",
        arms.iter().map(|&a| a as f64).collect(),
    );
    for series in scheme_bandwidths(&points) {
        result.push_series(series);
    }
    result.push_note(format!(
        "identical placements; only the per-library accessor count changes; {} samples",
        base.samples
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::quick_settings;

    #[test]
    fn extra_arms_help_the_switch_bound_scheme_most() {
        let mut s = quick_settings();
        s.samples = 40;
        let r = run(&s);
        let pbp = &r.series_by_label("parallel batch").unwrap().values;
        let opp = &r.series_by_label("object probability").unwrap().values;
        let cpp = &r.series_by_label("cluster probability").unwrap().values;

        // A second arm never hurts anyone.
        for series in &r.series {
            assert!(
                series.values[1] >= series.values[0] * 0.99,
                "{}: second arm regressed {:?}",
                series.label,
                series.values
            );
        }
        // OPP (exchange-bound) gains more, relatively, than CPP
        // (transfer-bound).
        let opp_gain = opp[2] / opp[0];
        let cpp_gain = cpp[2] / cpp[0];
        assert!(
            opp_gain > cpp_gain,
            "OPP gain {opp_gain:.2}× should exceed CPP gain {cpp_gain:.2}×"
        );
        // Even with triple arms, parallel batch placement keeps the lead.
        for i in 0..3 {
            assert!(pbp[i] > cpp[i], "arms {}: {} vs {}", i + 1, pbp[i], cpp[i]);
        }
    }
}
