//! Extension — tape technology improvement (§6 closing remarks).
//!
//! "Due to page limitations, we will not show the performance of different
//! schemes when tape library technology improves, e.g., increased data
//! transfer speed and tape capacity. In general, our scheme improves more
//! than the other two schemes for these cases." This driver runs the LTO
//! generation ladder (LTO-1 → LTO-4) and reports each scheme's bandwidth,
//! checking that claim.
//!
//! Libraries get 240 cartridge cells so the fixed ≈51 TB workload fits
//! even the 100 GB LTO-1 cartridges (see EXPERIMENTS.md).

use crate::harness::scheme_bandwidths;
use crate::settings::ExperimentSettings;
use tapesim_analysis::ExperimentResult;
use tapesim_model::specs::lto_generations;

/// Runs the experiment. x indexes the LTO generation (1-based).
pub fn run(base: &ExperimentSettings) -> ExperimentResult {
    let generations = lto_generations();
    // LTO-1 stores 100 GB/cartridge: 80 cells × 3 libraries = 24 TB < the
    // ~51 TB workload, so every generation runs with 720 cells per library
    // for comparability.
    let sized = base.with_tapes_per_library(base.tapes_per_library.max(720));

    // The workload does not depend on the generation: one serves every
    // point.
    let workload = sized.generate_workload();
    let points: Vec<_> = generations
        .iter()
        .map(|&(_, drive, tape)| (sized, sized.system_with(drive, tape), &workload))
        .collect();

    let mut result = ExperimentResult::new(
        "ext_technology",
        "Bandwidth across LTO generations",
        "LTO generation",
        "bandwidth (MB/s)",
        (1..=generations.len()).map(|g| g as f64).collect(),
    );
    for series in scheme_bandwidths(&points) {
        result.push_series(series);
    }
    for (name, drive, tape) in &generations {
        result.push_note(format!(
            "{name}: {} native, {} cartridges",
            drive.native_rate, tape.capacity
        ));
    }
    result.push_note(format!(
        "{} cartridge cells per library so the workload fits LTO-1; {} samples",
        sized.tapes_per_library, base.samples
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::quick_settings;

    #[test]
    fn pbp_gains_most_from_technology() {
        let mut s = quick_settings();
        s.samples = 30;
        let r = run(&s);
        let pbp = &r.series_by_label("parallel batch").unwrap().values;
        let cpp = &r.series_by_label("cluster probability").unwrap().values;
        // Bandwidth grows with the generation for the parallel scheme.
        assert!(pbp[3] > pbp[0] * 1.5, "{pbp:?}");
        // Absolute improvement of PBP exceeds CPP's (the paper's claim
        // "our scheme improves more than the other two").
        assert!(
            pbp[3] - pbp[0] > cpp[3] - cpp[0],
            "pbp {pbp:?} vs cpp {cpp:?}"
        );
        // PBP leads at every generation.
        for g in 0..4 {
            assert!(pbp[g] > cpp[g], "generation {g}");
        }
    }
}
