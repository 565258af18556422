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

use crate::harness::{sweep, Scheme};
use crate::settings::ExperimentSettings;
use tapesim_analysis::{ExperimentResult, Series};
use tapesim_obs::SpanKind;
use tapesim_sched::{run_scheduled, PolicyKind, SchedConfig};
use tapesim_sim::Simulator;
use tapesim_workload::ArrivalSpec;

/// Swept arrival rates, restores per hour. A log sweep: FCFS mount counts
/// are rate-independent (a sequential server replays the same service
/// order whatever the arrival spacing), so the interesting regime — where
/// deep queues let per-tape coalescing beat even cluster-probability's
/// naturally low switch count — only opens up at the top of the range.
pub fn rates() -> Vec<f64> {
    vec![1.0, 4.0, 16.0, 64.0]
}

/// Short scheme tag for the compound series labels.
fn short(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::ParallelBatch => "pbp",
        Scheme::ObjectProbability => "opp",
        Scheme::ClusterProbability => "cpp",
    }
}

/// Runs one (scheme, policy, rate) cell; returns (mean sojourn, mounts).
pub fn cell(
    base: &ExperimentSettings,
    scheme: Scheme,
    kind: PolicyKind,
    per_hour: f64,
) -> (f64, u64) {
    let system = base.system();
    let workload = base.generate_workload();
    let placement = scheme
        .policy(base.m)
        .place(&workload, &system)
        .expect("placement");
    let mut sim = Simulator::with_natural_policy(placement, base.m);
    let cfg = SchedConfig::new(
        ArrivalSpec {
            per_hour,
            seed: base.sim_seed,
        },
        base.samples,
    );
    let out = run_scheduled(&mut sim, &workload, kind.build().as_ref(), &cfg);
    (out.metrics.avg_sojourn(), out.metrics.mounts())
}

/// Runs the experiment. x is the arrival rate; y the mean sojourn time,
/// one series per placement scheme × scheduling policy.
pub fn run(base: &ExperimentSettings) -> ExperimentResult {
    let rs = rates();
    let system = base.system();
    let workload = base.generate_workload();

    let n = rs.len();
    let points: Vec<(Scheme, PolicyKind, usize)> = Scheme::ALL
        .iter()
        .flat_map(|&s| {
            PolicyKind::ALL
                .iter()
                .flat_map(move |&k| (0..n).map(move |i| (s, k, i)))
        })
        .collect();
    let values: Vec<(f64, u64)> = sweep(points, |&(scheme, kind, i)| {
        let placement = scheme
            .policy(base.m)
            .place(&workload, &system)
            .expect("placement");
        let mut sim = Simulator::with_natural_policy(placement, base.m);
        let cfg = SchedConfig::new(
            ArrivalSpec {
                per_hour: rs[i],
                seed: base.sim_seed,
            },
            base.samples,
        );
        let out = run_scheduled(&mut sim, &workload, kind.build().as_ref(), &cfg);
        (out.metrics.avg_sojourn(), out.metrics.mounts())
    });

    let mut result = ExperimentResult::new(
        "ext_sched",
        "Mean restore sojourn vs. arrival rate (scheduling policy × placement)",
        "arrivals per hour",
        "sojourn time (s)",
        rs.clone(),
    );
    let top_rate = rs.len() - 1;
    for (si, &scheme) in Scheme::ALL.iter().enumerate() {
        let mut mount_note = format!("{} mounts at {}/h:", scheme.label(), rs[top_rate]);
        for (ki, &kind) in PolicyKind::ALL.iter().enumerate() {
            let off = (si * PolicyKind::ALL.len() + ki) * rs.len();
            let ys = values[off..off + rs.len()].iter().map(|v| v.0).collect();
            result.push_series(Series::new(
                format!("{}/{}", short(scheme), kind.label()),
                ys,
            ));
            mount_note.push_str(&format!(" {} {}", kind.label(), values[off + top_rate].1));
        }
        result.push_note(mount_note);
    }
    // Resource-budget columns for the top-rate batch runs: where each
    // scheme's drive time actually goes, from the span accountant.
    for &scheme in Scheme::ALL.iter() {
        let placement = scheme
            .policy(base.m)
            .place(&workload, &system)
            .expect("placement");
        let mut sim = Simulator::with_natural_policy(placement, base.m);
        let cfg = SchedConfig::new(
            ArrivalSpec {
                per_hour: rs[top_rate],
                seed: base.sim_seed,
            },
            base.samples,
        )
        .with_obs(true);
        let out = run_scheduled(
            &mut sim,
            &workload,
            PolicyKind::BatchByTape.build().as_ref(),
            &cfg,
        );
        let budget = out.budget.expect("obs on");
        let drive_secs = budget.makespan_s * budget.drives.len() as f64;
        let share = |kind| 100.0 * budget.drive_total(kind) / drive_secs;
        result.push_note(format!(
            "{} budget at {}/h (batch): transfer {:.1}% seek {:.1}% rewind {:.1}% \
             exchange {:.1}% idle {:.1}% | drive util {:.1}% | robot overlap {:.1}%",
            short(scheme),
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
        for scheme in Scheme::ALL {
            let (_, fcfs_mounts) = cell(&s, scheme, PolicyKind::Fcfs, top);
            let (_, batch_mounts) = cell(&s, scheme, PolicyKind::BatchByTape, top);
            assert!(
                batch_mounts < fcfs_mounts,
                "{}: batching should cut mounts at {top}/h: batch {batch_mounts} \
                 vs fcfs {fcfs_mounts}",
                scheme.label()
            );
        }
    }

    /// The FCFS series reproduces the retired single-server queue loop
    /// bit for bit: the constant is that loop's mean sojourn on this
    /// cell, recorded before the loop was folded into the sequential gear.
    #[test]
    fn fcfs_series_anchors_to_the_legacy_queue() {
        let mut s = quick_settings();
        s.samples = 25;
        let rate = rates()[0];
        let (sojourn, _) = cell(&s, Scheme::ParallelBatch, PolicyKind::Fcfs, rate);
        assert_eq!(
            sojourn.to_bits(),
            0x4081edf2711918ac,
            "fcfs drifted from legacy"
        );
    }
}
