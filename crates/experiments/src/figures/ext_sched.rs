//! Extension — concurrent scheduling policies under load.
//!
//! `ext_queue` showed what happens when the paper's one-by-one assumption
//! meets a Poisson stream: FCFS on one conceptual server. This figure
//! adds the scheduling dimension on top of the placement dimension: the
//! same arrival streams run through `tapesim-sched`, where all drives
//! serve concurrently from a shared admission queue and requests for the
//! same tape can coalesce into one mount. Nine series: three placement
//! schemes × three policies (`fcfs` = one request at a time, `batch` =
//! per-tape coalescing, `sltf` = shortest-locate/service-time-first).
//!
//! The headline: at high arrival rates, batching strictly reduces tape
//! switches versus FCFS on the same demand (the mount counts are recorded
//! in the figure notes), and the sojourn gap between placement schemes
//! persists under every policy.

use crate::harness::scheme_cells;
use crate::settings::ExperimentSettings;
use tapesim_analysis::{ExperimentResult, Series};
use tapesim_obs::SpanKind;
use tapesim_placement::Scheme;
use tapesim_sched::{run_scheduled, PolicyKind, SchedConfig, SchedOutcome};
use tapesim_sim::Simulator;
use tapesim_workload::{ArrivalSpec, Workload};

/// Swept arrival rates, restores per hour. A log sweep: FCFS mount counts
/// are rate-independent (a sequential server replays the same service
/// order whatever the arrival spacing), so the interesting regime — where
/// deep queues let per-tape coalescing beat even cluster-probability's
/// naturally low switch count — only opens up at the top of the range.
pub fn rates() -> Vec<f64> {
    vec![1.0, 4.0, 16.0, 64.0]
}

/// Runs one (policy, rate) cell on `sim`, with span accounting when
/// `obs` is set.
pub fn cell(
    base: &ExperimentSettings,
    workload: &Workload,
    sim: &Simulator,
    kind: PolicyKind,
    per_hour: f64,
    obs: bool,
) -> SchedOutcome {
    let cfg = SchedConfig::new(
        ArrivalSpec {
            per_hour,
            seed: base.sim_seed,
        },
        base.samples,
    )
    .with_obs(obs);
    run_scheduled(sim, workload, kind.build().as_ref(), &cfg)
}

/// Runs the experiment. x is the arrival rate; y the mean sojourn time,
/// one series per placement scheme × scheduling policy.
pub fn run(base: &ExperimentSettings) -> ExperimentResult {
    let rs = rates();
    let system = base.system();
    let workload = base.generate_workload();

    let top_rate = rs.len() - 1;
    let points: Vec<(PolicyKind, usize)> = PolicyKind::ALL
        .iter()
        .flat_map(|&k| (0..rs.len()).map(move |i| (k, i)))
        .collect();
    let rows = scheme_cells(base, &system, &workload, &points, |_, sim, &(kind, i)| {
        // The top-rate batch cells also account their spans, for the
        // resource-budget notes.
        let obs = kind == PolicyKind::BatchByTape && i == top_rate;
        let out = cell(base, &workload, &sim, kind, rs[i], obs);
        (out.metrics.avg_sojourn(), out.metrics.mounts(), out.budget)
    });

    let mut result = ExperimentResult::new(
        "ext_sched",
        "Mean restore sojourn vs. arrival rate (scheduling policy × placement)",
        "arrivals per hour",
        "sojourn time (s)",
        rs.clone(),
    );
    for (scheme, row) in Scheme::ALL.iter().zip(&rows) {
        let mut mount_note = format!("{} mounts at {}/h:", scheme.label(), rs[top_rate]);
        for (kind, cells) in PolicyKind::ALL.iter().zip(row.chunks(rs.len())) {
            let ys = cells.iter().map(|c| c.0).collect();
            result.push_series(Series::new(
                format!("{}/{}", scheme.tag(), kind.label()),
                ys,
            ));
            mount_note.push_str(&format!(" {} {}", kind.label(), cells[top_rate].1));
        }
        result.push_note(mount_note);
    }
    // Resource-budget columns for the top-rate batch runs: where each
    // scheme's drive time actually goes, from the span accountant.
    for (scheme, row) in Scheme::ALL.iter().zip(&rows) {
        let budget = row.iter().find_map(|c| c.2.as_ref()).expect("obs on");
        let drive_secs = budget.makespan_s * budget.drives.len() as f64;
        let share = |kind| 100.0 * budget.drive_total(kind) / drive_secs;
        result.push_note(format!(
            "{} budget at {}/h (batch): transfer {:.1}% seek {:.1}% rewind {:.1}% \
             exchange {:.1}% idle {:.1}% | drive util {:.1}% | robot overlap {:.1}%",
            scheme.tag(),
            rs[top_rate],
            share(SpanKind::Transfer),
            share(SpanKind::Seek),
            share(SpanKind::Rewind),
            share(SpanKind::Exchange),
            share(SpanKind::Idle),
            budget.drive_utilisation() * 100.0,
            budget.robot_overlap_ratio() * 100.0,
        ));
    }
    result.push_note(format!(
        "Poisson arrivals into a shared admission queue, all drives serving \
         concurrently; per-tape batching under batch/sltf; {} requests per point",
        base.samples
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::quick_settings;

    #[test]
    fn nine_series_and_batching_cuts_mounts_under_load() {
        let mut s = quick_settings();
        s.samples = 40;
        let r = run(&s);
        assert_eq!(r.series.len(), 9);
        assert_eq!(r.x, rates());

        // The headline acceptance: at the highest swept rate, per-tape
        // batching performs strictly fewer mounts than FCFS on the same
        // demand stream, for every placement scheme.
        let top = *rates().last().expect("rates");
        let w = s.generate_workload();
        let kinds = [PolicyKind::Fcfs, PolicyKind::BatchByTape];
        let rows = scheme_cells(&s, &s.system(), &w, &kinds, |_, sim, &kind| {
            cell(&s, &w, &sim, kind, top, false).metrics.mounts()
        });
        for (scheme, mounts) in Scheme::ALL.iter().zip(rows) {
            let (fcfs_mounts, batch_mounts) = (mounts[0], mounts[1]);
            assert!(
                batch_mounts < fcfs_mounts,
                "{}: batching should cut mounts at {top}/h: batch {batch_mounts} \
                 vs fcfs {fcfs_mounts}",
                scheme.label()
            );
        }
    }
}
