//! Figure 9 — response-time component comparison (average request ≈160 GB).
//!
//! Paper finding: *object probability* placement pays by far the longest
//! switch time (it ignores object relationships, so a request scatters
//! over many offline tapes); average seek time is a minor component for
//! all three schemes; *object probability* has the best transfer time but
//! its switch time dominates; *cluster probability* is all transfer
//! (serial); *parallel batch* balances the three.

use crate::harness::evaluate;
use crate::settings::ExperimentSettings;
use tapesim_analysis::{ExperimentResult, Series};
use tapesim_model::Bytes;
use tapesim_placement::Scheme;

/// Runs the experiment. The x-axis indexes the schemes (0 = parallel
/// batch, 1 = object probability, 2 = cluster probability); the series are
/// the time components.
pub fn run(base: &ExperimentSettings) -> ExperimentResult {
    let mut sized = *base;
    sized.workload = sized.workload.with_target_request_size(Bytes::gb(160));
    let system = sized.system();
    let workload = sized.generate_workload();

    let runs: Vec<_> = Scheme::ALL
        .iter()
        .map(|&s| evaluate(&sized, &system, &workload, s))
        .collect();

    let mut result = ExperimentResult::new(
        "fig9",
        "Response time component comparison",
        "scheme (0=parallel batch, 1=object probability, 2=cluster probability)",
        "time (s)",
        (0..Scheme::ALL.len()).map(|i| i as f64).collect(),
    );
    result.push_series(Series::new(
        "switch",
        runs.iter().map(|r| r.avg_switch()).collect(),
    ));
    result.push_series(Series::new(
        "seek",
        runs.iter().map(|r| r.avg_seek()).collect(),
    ));
    result.push_series(Series::new(
        "transfer",
        runs.iter().map(|r| r.avg_transfer()).collect(),
    ));
    result.push_series(Series::new(
        "response",
        runs.iter().map(|r| r.avg_response()).collect(),
    ));
    result.push_note(format!(
        "average request {:.1} GB; {} samples; switch time = response − seek − transfer of the last-finishing drive",
        workload.avg_request_bytes().as_gb(),
        sized.samples
    ));
    for (scheme, run) in Scheme::ALL.iter().zip(&runs) {
        result.push_note(format!(
            "{}: response {:.1} s = switch {:.1} + seek {:.1} + transfer {:.1} (avg {:.1} exchanges/request)",
            scheme.label(),
            run.avg_response(),
            run.avg_switch(),
            run.avg_seek(),
            run.avg_transfer(),
            run.avg_switches()
        ));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::quick_settings;

    #[test]
    fn component_shapes_match_the_paper() {
        let mut s = quick_settings();
        s.samples = 40;
        let r = run(&s);
        let switch = &r.series_by_label("switch").unwrap().values;
        let seek = &r.series_by_label("seek").unwrap().values;
        let transfer = &r.series_by_label("transfer").unwrap().values;
        let response = &r.series_by_label("response").unwrap().values;
        let (pbp, opp, cpp) = (0, 1, 2);

        // Object probability placement has the worst switch time, and it
        // dominates its response.
        assert!(switch[opp] > switch[pbp], "{switch:?}");
        assert!(switch[opp] > switch[cpp], "{switch:?}");
        assert!(switch[opp] > transfer[opp], "switch should dominate OPP");

        // Seek is a minor component for every scheme.
        for i in 0..3 {
            assert!(
                seek[i] < 0.25 * response[i],
                "seek {} vs response {} for scheme {i}",
                seek[i],
                response[i]
            );
        }

        // Cluster probability has the worst transfer time (serial).
        assert!(transfer[cpp] > transfer[pbp], "{transfer:?}");
        assert!(transfer[cpp] > transfer[opp], "{transfer:?}");

        // Parallel batch placement has the best response.
        assert!(response[pbp] < response[opp] && response[pbp] < response[cpp]);
    }
}
