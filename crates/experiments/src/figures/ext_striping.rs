//! Extension — does object striping help? (§2 of the paper.)
//!
//! The paper dismisses tape striping, citing the mass-storage literature:
//! "striping on sequential-accessed tapes suffers from long
//! synchronization latencies … The striping system may perform worse than
//! non-striping system. Thus, in our proposed scheme, we do not consider
//! object striping." This driver checks the claim inside our simulator:
//! the workload is rewritten so every large object becomes `w` fragments
//! ([`tapesim_workload::stripe_workload`]) and each scheme places and
//! serves the striped equivalent.
//!
//! Expected shape: striping inflates the number of cartridges a request
//! touches, so switch-bound schemes degrade (or gain nothing), while its
//! theoretical transfer-parallelism benefit is already delivered — without
//! the extra mounts — by parallel batch placement's cluster spreading.

use crate::harness::{scheme_bandwidths, sweep};
use crate::settings::ExperimentSettings;
use tapesim_analysis::ExperimentResult;
use tapesim_model::Bytes;
use tapesim_workload::{stripe_workload, StripeSpec};

/// Swept stripe widths (1 = no striping).
pub fn widths() -> Vec<u8> {
    vec![1, 2, 4, 8]
}

/// Runs the experiment. x is the stripe width.
pub fn run(base: &ExperimentSettings) -> ExperimentResult {
    let ws = widths();
    let system = base.system();
    let original = base.generate_workload();

    // One striped workload per width, shared by the three schemes.
    let striped = sweep(ws.clone(), |&w| {
        (w > 1).then(|| {
            let spec = StripeSpec {
                width: w,
                min_object: Bytes::gb(1),
            };
            stripe_workload(&original, spec).0
        })
    });
    let points: Vec<_> = striped
        .iter()
        .map(|w| (*base, system, w.as_ref().unwrap_or(&original)))
        .collect();

    let mut result = ExperimentResult::new(
        "ext_striping",
        "Effect of object striping (§2 claim)",
        "stripe width (1 = whole objects)",
        "bandwidth (MB/s)",
        ws.iter().map(|&w| w as f64).collect(),
    );
    for series in scheme_bandwidths(&points) {
        result.push_series(series);
    }
    result.push_note(
        "objects ≥ 1 GB split into w fragments; requests fetch every fragment \
         (synchronisation latency appears as extra cartridges per request)"
            .to_string(),
    );
    result.push_note(format!("{} samples per point", base.samples));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::quick_settings;

    #[test]
    fn striping_never_rescues_a_scheme_past_parallel_batch() {
        let mut s = quick_settings();
        s.samples = 30;
        let r = run(&s);
        let pbp = &r.series_by_label("parallel batch").unwrap().values;
        let opp = &r.series_by_label("object probability").unwrap().values;
        let cpp = &r.series_by_label("cluster probability").unwrap().values;
        // Unstriped parallel batch placement beats every striped variant
        // of the other two schemes — the §2 position that striping is not
        // the way to buy transfer parallelism.
        for w in 0..r.x.len() {
            assert!(
                pbp[0] > opp[w] && pbp[0] > cpp[w],
                "width {}: pbp(1)={:.0} vs opp {:.0} / cpp {:.0}",
                r.x[w],
                pbp[0],
                opp[w],
                cpp[w]
            );
        }
    }

    #[test]
    fn wide_striping_hurts_the_switch_bound_scheme() {
        let mut s = quick_settings();
        s.samples = 30;
        let r = run(&s);
        let opp = &r.series_by_label("object probability").unwrap().values;
        // Object probability placement is already switch-bound; 8-way
        // striping multiplies the cartridges per request and must not
        // help it.
        assert!(
            opp[3] <= opp[0] * 1.05,
            "8-way striping should not rescue OPP: {opp:?}"
        );
    }
}
