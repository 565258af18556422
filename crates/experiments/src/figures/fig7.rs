//! Figure 7 — effective bandwidth vs. average request size.
//!
//! The request size is swept "by changing the object size" (§6): the
//! object-size distribution is rescaled so the popularity-and-membership
//! structure of the requests is untouched. Paper finding: bandwidth rises
//! (but not dramatically) with request size — transfer amortises the fixed
//! switch/seek costs — and parallel batch placement leads throughout.
//!
//! The driver also reproduces the §6 **extreme case**: object sizes shrunk
//! until the `n×d` startup-mounted tapes hold everything, so no request
//! ever switches. There *object probability* placement has the lowest
//! response (pure seek optimisation wins) and the interesting contrast is
//! the transfer share of the response: the paper reports ≈62% for cluster
//! probability (serial transfer) vs ≈19% for parallel batch.

use crate::figures::cells_needed;
use crate::harness::{evaluate, scheme_bandwidths, sweep};
use crate::settings::ExperimentSettings;
use tapesim_analysis::ExperimentResult;
use tapesim_model::Bytes;
use tapesim_placement::Scheme;

/// Swept average request sizes (GB).
pub fn request_sizes_gb() -> Vec<u64> {
    vec![80, 120, 160, 200, 240, 280, 320]
}

/// Runs the sweep plus the extreme all-mounted case.
pub fn run(base: &ExperimentSettings) -> ExperimentResult {
    let sizes = request_sizes_gb();
    // One workload per size, shared by the three schemes.
    let workloads = sweep(sizes.clone(), |&gb| {
        base.workload
            .with_target_request_size(Bytes::gb(gb))
            .generate()
    });
    // Size the cartridge-cell count to the *largest* sweep point: scaling
    // object sizes up scales total bytes with them, and the cell count has
    // no performance effect beyond providing capacity (drives and robots
    // are untouched).
    let mut base = *base;
    let largest = workloads.last().expect("non-empty sweep");
    base.tapes_per_library =
        base.tapes_per_library
            .max(cells_needed(largest, &base.system(), base.libraries));
    let system = base.system();

    let points: Vec<_> = sizes
        .iter()
        .zip(&workloads)
        .map(|(&gb, w)| {
            let mut settings = base;
            settings.workload = settings.workload.with_target_request_size(Bytes::gb(gb));
            (settings, system, w)
        })
        .collect();

    let mut result = ExperimentResult::new(
        "fig7",
        "Effective bandwidth vs. average request size",
        "average request size (GB)",
        "bandwidth (MB/s)",
        sizes.iter().map(|&g| g as f64).collect(),
    );
    for series in scheme_bandwidths(&points) {
        result.push_series(series);
    }

    // Extreme case: everything fits the n×d startup-mounted tapes.
    let nd = system.total_drives() as u64;
    let all_mounted_bytes = Bytes(system.library.tape.capacity.get() * nd).scale(0.9);
    let per_request = Bytes(
        (all_mounted_bytes.get() as f64 / base.workload.objects as f64
            * mean_request_objects(&base)) as u64,
    );
    let mut extreme = base;
    extreme.workload = extreme.workload.with_target_request_size(per_request);
    let workload = extreme.generate_workload();
    result.push_note(format!(
        "extreme case: avg request {:.1} GB so all data fits the {} startup-mounted tapes",
        workload.avg_request_bytes().as_gb(),
        nd
    ));
    for scheme in Scheme::ALL {
        let run = evaluate(&extreme, &system, &workload, scheme);
        result.push_note(format!(
            "extreme {}: response {:.1} s, switch share {:.0}%, transfer share {:.0}% of response",
            scheme.label(),
            run.avg_response(),
            run.avg_switch() / run.avg_response() * 100.0,
            run.avg_transfer() / run.avg_response() * 100.0,
        ));
    }
    result.push_note(format!("{} samples per point", base.samples));
    result
}

fn mean_request_objects(base: &ExperimentSettings) -> f64 {
    (base.workload.requests.min_objects + base.workload.requests.max_objects) as f64 / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::quick_settings;

    #[test]
    fn bandwidth_rises_with_request_size_and_pbp_leads() {
        let mut s = quick_settings();
        s.samples = 30;
        let r = run(&s);
        let pbp = &r.series_by_label("parallel batch").unwrap().values;
        let opp = &r.series_by_label("object probability").unwrap().values;
        let cpp = &r.series_by_label("cluster probability").unwrap().values;
        for i in 0..r.x.len() {
            assert!(pbp[i] > opp[i] && pbp[i] > cpp[i], "point {i}");
        }
        // Rising trend: the largest request size clearly beats the smallest.
        assert!(pbp.last().unwrap() > &(pbp[0] * 1.1));
    }

    #[test]
    fn extreme_case_transfer_shares_separate_the_schemes() {
        let mut s = quick_settings();
        s.samples = 30;
        let r = run(&s);
        // Parse the transfer shares back out of the notes.
        let share = |needle: &str| -> f64 {
            r.notes
                .iter()
                .find(|n| n.starts_with(&format!("extreme {needle}")))
                .and_then(|n| n.split("transfer share ").nth(1))
                .and_then(|s| s.split('%').next())
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("missing extreme note for {needle}"))
        };
        let cpp = share("cluster probability");
        let pbp = share("parallel batch");
        // Paper: ≈62% vs ≈19%. The shrunken instance compresses the gap
        // (tiny transfers leave seeks dominating PBP's response), but the
        // separation must stay unmistakable.
        assert!(
            cpp > 1.3 * pbp,
            "serial CPP transfer share ({cpp}%) should dwarf parallel PBP ({pbp}%)"
        );
    }
}
