//! The evaluation harness: single-point evaluation, place-once scheme
//! sweeps, rayon-parallel sweeps and result output.

use crate::settings::ExperimentSettings;
use rayon::prelude::*;
use std::path::Path;
use tapesim_analysis::{ascii_chart, ExperimentResult, Series, Table};
use tapesim_model::SystemConfig;
use tapesim_placement::{
    ParallelBatchParams, ParallelBatchPlacement, Placement, PlacementPolicy, Scheme,
};
use tapesim_sim::{RunMetrics, Simulator, SwitchPolicy};
use tapesim_workload::Workload;

/// Places `workload` under `scheme` with `settings.m` switch drives.
pub fn place(
    settings: &ExperimentSettings,
    system: &SystemConfig,
    workload: &Workload,
    scheme: Scheme,
) -> Placement {
    scheme
        .policy(settings.m)
        .place(workload, system)
        .unwrap_or_else(|e| panic!("{} placement failed: {e}", scheme.label()))
}

/// Places `workload` under `scheme` and serves the sampled request stream.
pub fn evaluate(
    settings: &ExperimentSettings,
    system: &SystemConfig,
    workload: &Workload,
    scheme: Scheme,
) -> RunMetrics {
    let placement = place(settings, system, workload, scheme);
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

/// Places `workload` once under every scheme, then runs `cell` for every
/// scheme × runtime point on a fresh simulator (the scheme's natural
/// switch policy, `settings.m` switch drives) over a copy of that
/// placement. Returns one row per scheme in [`Scheme::ALL`] order, each
/// in `points` order. Every cell is an independent, internally
/// deterministic run, so the parallel sweep cannot change any result.
pub fn scheme_cells<P, R, F>(
    settings: &ExperimentSettings,
    system: &SystemConfig,
    workload: &Workload,
    points: &[P],
    cell: F,
) -> Vec<Vec<R>>
where
    P: Sync,
    R: Send,
    F: Fn(Scheme, Simulator, &P) -> R + Sync,
{
    let placements = sweep(Scheme::ALL.to_vec(), |&scheme| {
        place(settings, system, workload, scheme)
    });
    let runs: Vec<(usize, usize)> = (0..Scheme::ALL.len())
        .flat_map(|s| (0..points.len()).map(move |i| (s, i)))
        .collect();
    let mut values = sweep(runs, |&(s, i)| {
        let sim = Simulator::with_natural_policy(placements[s].clone(), settings.m);
        cell(Scheme::ALL[s], sim, &points[i])
    })
    .into_iter();
    Scheme::ALL
        .iter()
        .map(|_| values.by_ref().take(points.len()).collect())
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

    /// A place-once sweep serves each cell exactly what placing the scheme
    /// afresh for that cell serves.
    #[test]
    fn scheme_cells_match_fresh_placements() {
        let s = small_settings();
        let sys = s.system();
        let w = s.generate_workload();
        let seeds = [3u64, 5];
        let rows = scheme_cells(&s, &sys, &w, &seeds, |_, mut sim, &seed| {
            sim.run_sampled(&w, 10, seed).avg_response()
        });
        for (scheme, row) in Scheme::ALL.iter().zip(&rows) {
            for (&seed, &response) in seeds.iter().zip(row) {
                let mut sim = Simulator::with_natural_policy(place(&s, &sys, &w, *scheme), s.m);
                let fresh = sim.run_sampled(&w, 10, seed).avg_response();
                assert_eq!(response.to_bits(), fresh.to_bits(), "{}", scheme.label());
            }
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
