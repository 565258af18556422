//! Figure 8 — effective bandwidth vs. number of tape libraries.
//!
//! Paper finding (average request ≈240 GB): *parallel batch* and *object
//! probability* placement scale with the library count, *cluster
//! probability* placement does not (it has no transfer parallelism),
//! although going from 1 to 3 libraries helps even CPP a little by
//! relieving robot contention.
//!
//! Deviation documented in EXPERIMENTS.md: each library gets 240 cartridge
//! cells instead of the L80's 80, because a single library must be able to
//! hold the entire ≈55 TB workload (the paper is silent on how its 32 TB
//! single-library point stores 57 TB of objects). Drives and robots per
//! library — the quantities that determine performance — are unchanged.

use crate::figures::cells_needed;
use crate::harness::scheme_bandwidths;
use crate::settings::ExperimentSettings;
use tapesim_analysis::ExperimentResult;
use tapesim_model::Bytes;

/// Swept library counts.
pub fn library_counts() -> Vec<u16> {
    vec![1, 2, 3, 4, 5, 6]
}

/// Runs the experiment.
pub fn run(base: &ExperimentSettings) -> ExperimentResult {
    let ns = library_counts();
    let mut sized = *base;
    sized.workload = sized.workload.with_target_request_size(Bytes::gb(240));
    // The workload does not depend on the library count: one serves every
    // point.
    let workload = sized.generate_workload();
    // The single-library point must hold the whole workload by itself.
    sized.tapes_per_library =
        sized
            .tapes_per_library
            .max(cells_needed(&workload, &sized.system(), 1));
    let points: Vec<_> = ns
        .iter()
        .map(|&n| {
            let settings = sized.with_libraries(n);
            (settings, settings.system(), &workload)
        })
        .collect();

    let mut result = ExperimentResult::new(
        "fig8",
        "Effective bandwidth vs. number of tape libraries",
        "libraries",
        "bandwidth (MB/s)",
        ns.iter().map(|&n| n as f64).collect(),
    );
    for series in scheme_bandwidths(&points) {
        result.push_series(series);
    }
    result.push_note(format!(
        "average request ≈240 GB; {} cartridge cells per library (see EXPERIMENTS.md); {} samples",
        sized.tapes_per_library, base.samples
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::quick_settings;

    #[test]
    fn pbp_scales_with_libraries_and_cpp_does_not() {
        let mut s = quick_settings();
        s.samples = 30;
        let r = run(&s);
        let pbp = &r.series_by_label("parallel batch").unwrap().values;
        let cpp = &r.series_by_label("cluster probability").unwrap().values;
        // Parallel batch placement gains substantially from 1 → 6 libraries.
        assert!(pbp[5] > pbp[0] * 1.5, "pbp should scale: {pbp:?}");
        // Cluster probability placement barely moves past n = 3 (robot
        // contention relief only).
        assert!(
            cpp[5] < cpp[2] * 1.5,
            "cpp should not keep scaling: {cpp:?}"
        );
        // Parallel batch leads at every point.
        for i in 0..6 {
            assert!(pbp[i] > cpp[i], "point {i}: {} vs {}", pbp[i], cpp[i]);
        }
    }
}
