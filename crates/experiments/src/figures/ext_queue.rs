//! Extension — restore queueing under load (beyond the §6 sparse-arrival
//! assumption).
//!
//! The paper measures isolated requests ("the request queuing time in the
//! request queue is zero"). In a busy data centre, restores arrive while
//! earlier ones are still streaming; served FCFS, a scheme's response
//! time becomes a *service* time and queueing theory takes over: mean
//! waiting time diverges as the arrival rate approaches `1/E[service]`.
//! Because parallel batch placement's services are 1.5–2× shorter, it
//! sustains proportionally higher restore rates before the queue blows
//! up — the operational payoff of the paper's bandwidth numbers.

use crate::harness::scheme_cells;
use crate::settings::ExperimentSettings;
use tapesim_analysis::{ExperimentResult, Series};
use tapesim_placement::Scheme;
use tapesim_sched::{run_scheduled, Fcfs, SchedConfig};
use tapesim_workload::ArrivalSpec;

/// Swept arrival rates, restores per hour.
pub fn rates() -> Vec<f64> {
    vec![0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
}

/// Runs the experiment. x is the arrival rate; y the mean sojourn
/// (arrival → completion) time.
pub fn run(base: &ExperimentSettings) -> ExperimentResult {
    let rs = rates();
    let system = base.system();
    let workload = base.generate_workload();

    let rows = scheme_cells(base, &system, &workload, &rs, |_, sim, &per_hour| {
        let cfg = SchedConfig::new(
            ArrivalSpec {
                per_hour,
                seed: base.sim_seed,
            },
            base.samples,
        );
        run_scheduled(&sim, &workload, &Fcfs, &cfg)
            .metrics
            .avg_sojourn()
    });

    let mut result = ExperimentResult::new(
        "ext_queue",
        "Mean restore sojourn time vs. arrival rate (FCFS queue)",
        "arrivals per hour",
        "sojourn time (s)",
        rs.clone(),
    );
    for (scheme, ys) in Scheme::ALL.iter().zip(rows) {
        result.push_series(Series::new(scheme.label(), ys));
    }
    result.push_note(format!(
        "Poisson arrivals, FCFS, one restore in service at a time; {} requests per point",
        base.samples
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::quick_settings;

    #[test]
    fn queueing_amplifies_the_scheme_gap() {
        let mut s = quick_settings();
        s.samples = 40;
        let r = run(&s);
        let pbp = &r.series_by_label("parallel batch").unwrap().values;
        let cpp = &r.series_by_label("cluster probability").unwrap().values;
        // Sojourn grows with load for every scheme…
        for series in &r.series {
            assert!(
                series.values.last().unwrap() > series.values.first().unwrap(),
                "{}: no growth under load: {:?}",
                series.label,
                series.values
            );
        }
        // …parallel batch placement stays fastest at every rate…
        for i in 0..r.x.len() {
            assert!(
                pbp[i] < cpp[i],
                "rate {}: pbp {} vs cpp {}",
                r.x[i],
                pbp[i],
                cpp[i]
            );
        }
        // …and the absolute gap widens as the queue saturates.
        let gap_low = cpp[0] - pbp[0];
        let gap_high = cpp[r.x.len() - 1] - pbp[r.x.len() - 1];
        assert!(
            gap_high > 2.0 * gap_low,
            "queueing should amplify the gap: {gap_low:.0} → {gap_high:.0}"
        );
    }
}
