//! Extension — degraded-mode operation under injected faults.
//!
//! Every other figure assumes perfect hardware: drives never die, robot
//! arms never jam, media never grows bad spots. Real tape libraries fail
//! in all three ways, and a placement scheme's value under load is only
//! as good as its behaviour when the library is limping. This driver
//! sweeps a fault-intensity multiplier over `tapesim-faults`'s calibrated
//! *moderate* profile (drive MTBF, jam rate and bad-spot density all
//! scale together) and reruns the concurrent scheduler sweep at each
//! point, with a modest replication budget so exhausted reads can fail
//! over to a copy instead of being counted as losses.
//!
//! Two series per placement scheme: mean restore sojourn (the user-visible
//! cost of retries, jams and shrunken batches) and drive availability
//! (the fraction of drive-hours that survived). Every sweep point runs
//! with the trace auditor on — a fault-path invariant breach fails the
//! experiment rather than producing a quietly wrong figure.
//!
//! The headline inverts every fault-free figure: parallel batch
//! placement, the winner everywhere else, loses the *most* requests once
//! drives start dying. Striping a request across libraries makes its
//! completion depend on every one of them — the same coupling that buys
//! parallel bandwidth amplifies fault exposure, exactly as striping does
//! in disk arrays. The probability-based schemes, which spread objects
//! with no per-request structure, degrade more gracefully.

use crate::harness::scheme_cells;
use crate::settings::ExperimentSettings;
use std::collections::BTreeMap;
use tapesim_analysis::{ExperimentResult, Series};
use tapesim_faults::{FaultPlan, FaultSpec};
use tapesim_model::{ObjectId, SystemConfig};
use tapesim_placement::Scheme;
use tapesim_sched::{run_scheduled_faulty, PolicyKind, SchedConfig};
use tapesim_sim::Simulator;
use tapesim_workload::{replicate_workload, ArrivalSpec, ReplicationSpec, Workload};

/// Swept multipliers over [`FaultSpec::moderate`]. 0 is the fault-free
/// anchor (bit-identical to `ext_sched`'s engine); 4 is a library having
/// a very bad day.
pub fn intensities() -> Vec<f64> {
    vec![0.0, 0.5, 1.0, 2.0, 4.0]
}

/// Arrival rate for every sweep point, restores per hour. High enough
/// that queues form and degraded batching matters, low enough that the
/// fault-free anchor is not already saturated.
const PER_HOUR: f64 = 16.0;

/// Replication budget as a fraction of workload bytes, spent up front so
/// that reads which exhaust their retry budget have somewhere to go.
pub const REPLICA_BUDGET: f64 = 0.10;

/// Extra multiplier on the profile's bad-spot density. An object extent
/// covers well under 1% of a cartridge, so at the profile's base density
/// a swept run of a few hundred requests almost never crosses a spot and
/// the retry/failover machinery sits idle; running the media process
/// hotter (only in this driver — drive and robot processes stay at the
/// profile's scaled rates) makes it observable at realistic sample
/// counts.
const MEDIA_FACTOR: f64 = 8.0;

/// The fault plan for one sweep point.
pub fn plan(base: &ExperimentSettings, system: &SystemConfig, intensity: f64) -> FaultPlan {
    let mut spec = FaultSpec::moderate(base.sim_seed ^ 0xFA).scaled(intensity);
    spec.bad_spots_per_tape *= MEDIA_FACTOR;
    FaultPlan::generate(&spec, system)
}

/// Scheduling policy for every cell: per-tape batching, the default
/// concurrent policy and the one whose shrink-below-`d−m` rule the fault
/// path exercises.
const POLICY: PolicyKind = PolicyKind::BatchByTape;

/// What every cell serves: the base workload plus [`REPLICA_BUDGET`] of
/// replica copies, and each object's alternates for failover.
pub struct Demand {
    /// The replicated workload.
    pub workload: Workload,
    /// Each object's replica copies.
    pub alternates: BTreeMap<ObjectId, Vec<ObjectId>>,
}

impl Demand {
    /// Generates and replicates the base workload.
    pub fn new(base: &ExperimentSettings) -> Demand {
        let original = base.generate_workload();
        let budget = original.total_bytes().scale(REPLICA_BUDGET);
        let (workload, map) = replicate_workload(&original, ReplicationSpec { budget });
        Demand {
            alternates: map.alternates(),
            workload,
        }
    }
}

/// Per-cell outcome of [`cell`].
#[derive(Debug, Clone, Copy)]
pub struct FaultCell {
    /// Mean sojourn over served requests, seconds.
    pub sojourn: f64,
    /// Fraction of drive-hours alive over the run.
    pub availability: f64,
    /// Transient read errors retried.
    pub retries: u64,
    /// Jobs redirected to a replica copy.
    pub failovers: u64,
    /// Requests that lost at least one job terminally.
    pub lost: u64,
    /// Requests served to completion.
    pub served: u64,
}

/// Runs one cell on `sim` (placed under `scheme`) against `plan`, the
/// plan of fault intensity `intensity`, auditing every transcript;
/// panics on any invariant breach (an experiment must not chart a broken
/// run).
pub fn cell(
    base: &ExperimentSettings,
    demand: &Demand,
    scheme: Scheme,
    sim: &mut Simulator,
    intensity: f64,
    plan: &FaultPlan,
) -> FaultCell {
    let cfg = SchedConfig::new(
        ArrivalSpec {
            per_hour: PER_HOUR,
            seed: base.sim_seed,
        },
        base.samples,
    )
    .with_audit(true);
    let out = run_scheduled_faulty(
        sim,
        &demand.workload,
        POLICY.build().as_ref(),
        &cfg,
        plan,
        &demand.alternates,
    );
    if let Some(report) = out.reports.iter().find(|r| !r.is_clean()) {
        panic!(
            "{} at intensity {intensity}: fault-path invariant breach: {report}",
            scheme.label()
        );
    }
    FaultCell {
        sojourn: out.metrics.avg_sojourn(),
        availability: out.metrics.availability(),
        retries: out.metrics.retries(),
        failovers: out.metrics.failovers(),
        lost: out.metrics.lost(),
        served: out.metrics.served(),
    }
}

/// Runs the experiment. x is the fault-intensity multiplier; y the mean
/// sojourn, plus one availability series per scheme.
pub fn run(base: &ExperimentSettings) -> ExperimentResult {
    let xs = intensities();
    let n = xs.len();
    let system = base.system();
    let demand = Demand::new(base);
    let points: Vec<(f64, FaultPlan)> = xs.iter().map(|&x| (x, plan(base, &system, x))).collect();
    let rows = scheme_cells(
        base,
        &system,
        &demand.workload,
        &points,
        |scheme, mut sim, (x, plan)| cell(base, &demand, scheme, &mut sim, *x, plan),
    );

    let mut result = ExperimentResult::new(
        "ext_faults",
        "Mean restore sojourn vs. fault intensity (drive/robot/media faults)",
        "fault intensity (x moderate profile)",
        "sojourn time (s)",
        xs.clone(),
    );
    for (scheme, row) in Scheme::ALL.iter().zip(&rows) {
        result.push_series(Series::new(
            format!("{} sojourn", scheme.tag()),
            row.iter().map(|c| c.sojourn).collect(),
        ));
        result.push_series(Series::new(
            format!("{} availability", scheme.tag()),
            row.iter().map(|c| c.availability).collect(),
        ));
        for &i in &[n / 2, n - 1] {
            let c = &row[i];
            result.push_note(format!(
                "{} at {}x: {} served, {} lost, {} retries, {} failovers, \
                 availability {:.3}",
                scheme.label(),
                xs[i],
                c.served,
                c.lost,
                c.retries,
                c.failovers,
                c.availability,
            ));
        }
    }
    result.push_note(format!(
        "moderate fault profile scaled per point (media process x{MEDIA_FACTOR}); \
         {PER_HOUR}/h Poisson arrivals, batch policy, {:.0}% replication budget \
         for failover, auditor on at every point; {} requests per point",
        REPLICA_BUDGET * 100.0,
        base.samples
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::quick_settings;
    use crate::harness::place;

    #[test]
    fn six_series_and_fault_free_anchor_is_perfect() {
        let mut s = quick_settings();
        s.samples = 25;
        let r = run(&s);
        assert_eq!(r.series.len(), 6);
        assert_eq!(r.x, intensities());
        for scheme in Scheme::ALL {
            let avail = &r
                .series_by_label(&format!("{} availability", scheme.tag()))
                .unwrap()
                .values;
            assert_eq!(
                avail[0],
                1.0,
                "{}: zero faults, full availability",
                scheme.label()
            );
            for (i, a) in avail.iter().enumerate() {
                assert!(
                    *a > 0.0 && *a <= 1.0,
                    "{} availability out of range at point {i}: {a}",
                    scheme.label()
                );
            }
        }
    }

    /// Every request is either served or counted lost, at every swept
    /// intensity — the conservation law the auditor enforces per
    /// transcript, checked here end-to-end through the driver.
    #[test]
    fn sweep_conserves_requests_under_faults() {
        let mut s = quick_settings();
        s.samples = 20;
        let system = s.system();
        let demand = Demand::new(&s);
        let placement = place(&s, &system, &demand.workload, Scheme::ParallelBatch);
        let cell = |intensity| {
            let mut sim = Simulator::with_natural_policy(placement.clone(), s.m);
            let plan = plan(&s, &system, intensity);
            cell(
                &s,
                &demand,
                Scheme::ParallelBatch,
                &mut sim,
                intensity,
                &plan,
            )
        };
        for &intensity in &[0.0, 4.0] {
            let c = cell(intensity);
            assert_eq!(
                c.served + c.lost,
                s.samples as u64,
                "conservation at intensity {intensity}"
            );
        }
        let calm = cell(0.0);
        assert_eq!(calm.retries, 0);
        assert_eq!(calm.failovers, 0);
        assert_eq!(calm.lost, 0);
    }
}
