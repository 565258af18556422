//! Extension — workload-scale invariance (§6 closing remarks).
//!
//! "We have varied the total number of objects, the number of pre-defined
//! requests and the number of simulated requests, and found they do not
//! change the relative performance of the three schemes." This driver
//! runs those variations and verifies the ordering
//! `parallel batch > object probability > cluster probability` (by
//! effective bandwidth) holds at every point.

use crate::harness::{scheme_bandwidths, sweep};
use crate::settings::ExperimentSettings;
use tapesim_analysis::ExperimentResult;

/// One scale variation.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// Label for the report.
    pub name: &'static str,
    /// Object-population multiplier.
    pub objects_factor: f64,
    /// Pre-defined request-set multiplier.
    pub requests_factor: f64,
    /// Serviced-sample multiplier.
    pub samples_factor: f64,
}

/// The variations exercised.
pub fn variants() -> Vec<Variant> {
    vec![
        Variant {
            name: "baseline",
            objects_factor: 1.0,
            requests_factor: 1.0,
            samples_factor: 1.0,
        },
        Variant {
            name: "objects ÷ 2",
            objects_factor: 0.5,
            requests_factor: 1.0,
            samples_factor: 1.0,
        },
        Variant {
            name: "objects × 2",
            objects_factor: 2.0,
            requests_factor: 1.0,
            samples_factor: 1.0,
        },
        Variant {
            name: "requests ÷ 2",
            objects_factor: 1.0,
            requests_factor: 0.5,
            samples_factor: 1.0,
        },
        Variant {
            name: "requests × 2",
            objects_factor: 1.0,
            requests_factor: 2.0,
            samples_factor: 1.0,
        },
        Variant {
            name: "samples ÷ 2",
            objects_factor: 1.0,
            requests_factor: 1.0,
            samples_factor: 0.5,
        },
        Variant {
            name: "samples × 2",
            objects_factor: 1.0,
            requests_factor: 1.0,
            samples_factor: 2.0,
        },
    ]
}

fn apply(base: &ExperimentSettings, v: &Variant) -> ExperimentSettings {
    let mut s = *base;
    s.workload.objects = ((base.workload.objects as f64 * v.objects_factor) as u32)
        .max(base.workload.requests.max_objects);
    s.workload.requests.count =
        ((base.workload.requests.count as f64 * v.requests_factor) as u32).max(2);
    s.samples = ((base.samples as f64 * v.samples_factor) as usize).max(10);
    // Doubling the object population doubles total bytes: give every
    // variant enough cartridge cells.
    s.tapes_per_library = base.tapes_per_library.max(240);
    s
}

/// Runs the experiment. x indexes the variant.
pub fn run(base: &ExperimentSettings) -> ExperimentResult {
    let vs = variants();
    // One workload per variant, shared by the three schemes.
    let settings: Vec<ExperimentSettings> = vs.iter().map(|v| apply(base, v)).collect();
    let workloads = sweep(settings.clone(), ExperimentSettings::generate_workload);
    let points: Vec<_> = settings
        .iter()
        .zip(&workloads)
        .map(|(&s, w)| (s, s.system(), w))
        .collect();

    let mut result = ExperimentResult::new(
        "ext_scale",
        "Scheme ordering across workload scales",
        "variant index",
        "bandwidth (MB/s)",
        (0..vs.len()).map(|i| i as f64).collect(),
    );
    for series in scheme_bandwidths(&points) {
        result.push_series(series);
    }
    for (i, v) in vs.iter().enumerate() {
        result.push_note(format!("variant {i}: {}", v.name));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::quick_settings;

    #[test]
    fn ordering_is_invariant_across_scales() {
        let mut s = quick_settings();
        s.samples = 30;
        let r = run(&s);
        let pbp = &r.series_by_label("parallel batch").unwrap().values;
        let opp = &r.series_by_label("object probability").unwrap().values;
        let cpp = &r.series_by_label("cluster probability").unwrap().values;
        for i in 0..r.x.len() {
            assert!(
                pbp[i] > opp[i] && pbp[i] > cpp[i],
                "variant {i}: pbp {:.0} opp {:.0} cpp {:.0}",
                pbp[i],
                opp[i],
                cpp[i]
            );
        }
    }
}
