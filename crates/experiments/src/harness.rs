//! The evaluation harness: scheme dispatch, single-point evaluation,
//! rayon-parallel sweeps and result output.

use crate::settings::ExperimentSettings;
use rayon::prelude::*;
use std::path::Path;
use tapesim_analysis::{ascii_chart, ExperimentResult, Series, Table};
use tapesim_model::SystemConfig;
use tapesim_placement::{
    ClusterProbabilityPlacement, ObjectProbabilityPlacement, ParallelBatchParams,
    ParallelBatchPlacement, Placement, PlacementPolicy,
};
use tapesim_sim::{RunMetrics, Simulator, SwitchPolicy};
use tapesim_workload::Workload;

/// The three schemes under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// The paper's parallel batch placement (§5).
    ParallelBatch,
    /// Object probability placement \[11\].
    ObjectProbability,
    /// Cluster probability placement \[20\].
    ClusterProbability,
}

impl Scheme {
    /// All three, in the paper's presentation order.
    pub const ALL: [Scheme; 3] = [
        Scheme::ParallelBatch,
        Scheme::ObjectProbability,
        Scheme::ClusterProbability,
    ];

    /// The figure-legend label.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::ParallelBatch => "parallel batch",
            Scheme::ObjectProbability => "object probability",
            Scheme::ClusterProbability => "cluster probability",
        }
    }

    /// Builds the placement policy for these settings.
    pub fn policy(&self, m: u8) -> Box<dyn PlacementPolicy + Send + Sync> {
        match self {
            Scheme::ParallelBatch => Box::new(ParallelBatchPlacement::with_m(m)),
            Scheme::ObjectProbability => Box::new(ObjectProbabilityPlacement::default()),
            Scheme::ClusterProbability => Box::new(ClusterProbabilityPlacement::default()),
        }
    }
}

/// Places `workload` under `scheme` and serves the sampled request stream.
pub fn evaluate(
    settings: &ExperimentSettings,
    system: &SystemConfig,
    workload: &Workload,
    scheme: Scheme,
) -> RunMetrics {
    let placement = scheme
        .policy(settings.m)
        .place(workload, system)
        .unwrap_or_else(|e| panic!("{} placement failed: {e}", scheme.label()));
    evaluate_placement(settings, workload, placement)
}

/// Serves the sampled request stream against an existing placement (used
/// by the ablations, which build custom [`ParallelBatchParams`]).
pub fn evaluate_placement(
    settings: &ExperimentSettings,
    workload: &Workload,
    placement: Placement,
) -> RunMetrics {
    let policy = SwitchPolicy::for_placement(&placement, settings.m);
    let mut sim = Simulator::new(placement, policy);
    sim.run_sampled(workload, settings.samples, settings.sim_seed)
}

/// Convenience for the ablation experiment: parallel batch placement with
/// explicit parameters.
pub fn evaluate_pbp_with(
    settings: &ExperimentSettings,
    system: &SystemConfig,
    workload: &Workload,
    params: ParallelBatchParams,
) -> RunMetrics {
    let placement = ParallelBatchPlacement::new(params)
        .place(workload, system)
        .expect("parallel batch placement");
    evaluate_placement(settings, workload, placement)
}

/// Runs `f` over `points` in parallel (rayon), preserving input order.
/// Each point is an independent, internally-deterministic simulation, so
/// parallelism cannot change any result.
pub fn sweep<P, R, F>(points: Vec<P>, f: F) -> Vec<R>
where
    P: Send + Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    points.par_iter().map(&f).collect()
}

/// Average bandwidth of every scheme at every sweep point, one [`Series`]
/// per scheme in [`Scheme::ALL`] order. Point `i` is the settings, system
/// and workload of x-index `i`. The two clustering schemes share the
/// workload's co-access partition; the sweep runs point-major, so one
/// worker usually runs a point's schemes and the other rarely waits for
/// the partition.
pub fn scheme_bandwidths(points: &[(ExperimentSettings, SystemConfig, &Workload)]) -> Vec<Series> {
    let runs: Vec<(usize, Scheme)> = (0..points.len())
        .flat_map(|i| Scheme::ALL.map(|s| (i, s)))
        .collect();
    let values = sweep(runs, |&(i, scheme)| {
        let (settings, system, workload) = &points[i];
        evaluate(settings, system, workload, scheme).avg_bandwidth_mbs()
    });
    Scheme::ALL
        .iter()
        .enumerate()
        .map(|(s, scheme)| {
            let ys = values.iter().skip(s).step_by(Scheme::ALL.len()).copied();
            Series::new(scheme.label(), ys.collect())
        })
        .collect()
}

/// Writes a result to `<dir>/<id>.json` and `<dir>/<id>.md`, and returns
/// the human-readable report (table + chart) that binaries print.
pub fn render_and_save(result: &ExperimentResult, dir: &Path) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{}.json", result.id)), result.to_json())?;
    let table = Table::from_result(result);
    let mut report = String::new();
    report.push_str(&format!("## {} — {}\n\n", result.id, result.title));
    report.push_str(&table.to_markdown());
    report.push('\n');
    if result.x.len() >= 2 {
        report.push_str(&ascii_chart(result, 64, 16));
        report.push('\n');
    }
    for note in &result.notes {
        report.push_str(&format!("> {note}\n"));
    }
    std::fs::write(dir.join(format!("{}.md", result.id)), &report)?;
    Ok(report)
}

/// The default results directory: `<workspace>/results`.
pub fn results_dir() -> std::path::PathBuf {
    // CARGO_MANIFEST_DIR = crates/experiments; the workspace root is two up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("results")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_model::Bytes;
    use tapesim_workload::{ObjectSizeSpec, RequestSpec, WorkloadSpec};

    /// Small settings for fast tests.
    pub fn small_settings() -> ExperimentSettings {
        ExperimentSettings {
            samples: 30,
            workload: WorkloadSpec {
                objects: 2_000,
                sizes: ObjectSizeSpec::default().calibrated(Bytes::gb(2)),
                requests: RequestSpec {
                    count: 50,
                    min_objects: 15,
                    max_objects: 25,
                    count_shape: 1.0,
                    alpha: 0.3,
                },
                seed: 11,
            },
            ..ExperimentSettings::default()
        }
    }

    #[test]
    fn evaluate_all_schemes_small() {
        let s = small_settings();
        let sys = s.system();
        let w = s.generate_workload();
        for scheme in Scheme::ALL {
            let run = evaluate(&s, &sys, &w, scheme);
            assert_eq!(run.count(), 30, "{}", scheme.label());
            assert!(run.avg_bandwidth_mbs() > 0.0);
        }
    }

    #[test]
    fn sweep_preserves_order_and_matches_serial() {
        let points: Vec<u32> = (0..8).collect();
        let parallel = sweep(points.clone(), |&p| p * p);
        let serial: Vec<u32> = points.iter().map(|&p| p * p).collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn render_and_save_writes_files() {
        let mut r = ExperimentResult::new("testfig", "T", "x", "y", vec![1.0, 2.0]);
        r.push_series(Series::new("s", vec![3.0, 4.0]));
        r.push_note("note");
        let dir = std::env::temp_dir().join("tapesim-test-results");
        let report = render_and_save(&r, &dir).unwrap();
        assert!(report.contains("testfig"));
        assert!(dir.join("testfig.json").exists());
        assert!(dir.join("testfig.md").exists());
        let json = std::fs::read_to_string(dir.join("testfig.json")).unwrap();
        let back = ExperimentResult::from_json(&json).unwrap();
        assert_eq!(back, r);
    }
}
