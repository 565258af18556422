//! The service's configuration, report and shared plumbing: the
//! sharded `Topology`, per-shard registry publishing, and the
//! deterministic join (`assemble`) of per-shard books into one
//! [`ServeReport`].
//!
//! The one runtime that spawns and drives the shards is
//! [`crate::supervisor::supervisor_run`]; [`serve_run`] is that runtime
//! with an empty chaos plan and no admission control. Everything here is
//! deterministic in *virtual* time: thread interleavings only decide
//! when work happens on the wall clock, never what the shards compute —
//! each shard's event loop is a pure function of the submission
//! subsequence it receives, and that subsequence is fixed by
//! `(workload, seed, shard_count)`.

use std::collections::{BTreeMap, BTreeSet};

use tapesim_des::audit::AuditReport;
use tapesim_des::SimTime;
use tapesim_faults::{ChaosPlan, FaultPlan};
use tapesim_model::ObjectId;
use tapesim_obs::{MetricsRegistry, RegistrySnapshot};
use tapesim_sched::{
    tape_jobs, PolicyKind, RequestRecord, SchedConfig, SchedMetrics, ShardReport, TapeJob,
};
use tapesim_sim::{SeekPolicy, Simulator};
use tapesim_workload::{ArrivalSpec, Workload};

use crate::health::Health;
use crate::supervisor::{supervisor_run, SuperviseConfig};

/// Sojourn histogram bucket upper edges, seconds: 1 min to 32 h in
/// doublings. Fixed so every shard (and every run) shares one layout —
/// the precondition for registry merging.
pub(crate) const SOJOURN_BOUNDS: [f64; 12] = [
    60.0, 300.0, 900.0, 1800.0, 3600.0, 7200.0, 14400.0, 28800.0, 57600.0, 115200.0, 230400.0,
    460800.0,
];

/// Configuration of one service run.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// The Poisson arrival stream (rate + seed).
    pub arrivals: ArrivalSpec,
    /// Number of requests to ingest before shutdown.
    pub samples: usize,
    /// Requested library shards. Clamped to `[1, libraries]` — a shard
    /// with no library would idle forever.
    pub shards: usize,
    /// Largest number of jobs one mount may serve (0 = unlimited).
    pub max_batch: usize,
    /// Whether shards record and audit their event traces.
    pub audit: bool,
    /// The in-tape service-order planner every shard uses
    /// ([`SeekPolicy::Greedy`] by default — bit-identical to pre-policy
    /// runs).
    pub seek: SeekPolicy,
    /// Capacity of each shard's submission channel. Full channel blocks
    /// ingestion — backpressure, never loss.
    pub channel_bound: usize,
    /// Broadcast a snapshot tick every this many ingested requests
    /// (0 = no periodic snapshots, final state only).
    pub snapshot_every: usize,
}

impl ServeConfig {
    /// A single-shard run of `samples` requests with default bounds and
    /// no periodic snapshots.
    pub fn new(arrivals: ArrivalSpec, samples: usize) -> ServeConfig {
        ServeConfig {
            arrivals,
            samples,
            shards: 1,
            max_batch: 0,
            audit: false,
            seek: SeekPolicy::Greedy,
            channel_bound: 256,
            snapshot_every: 0,
        }
    }

    /// Sets the shard count (clamped to the library count at run time).
    pub fn with_shards(mut self, shards: usize) -> ServeConfig {
        self.shards = shards;
        self
    }

    /// Caps batch size (0 = unlimited).
    pub fn with_max_batch(mut self, max_batch: usize) -> ServeConfig {
        self.max_batch = max_batch;
        self
    }

    /// Enables trace auditing in every shard.
    pub fn with_audit(mut self, audit: bool) -> ServeConfig {
        self.audit = audit;
        self
    }

    /// Selects the in-tape service-order planner for every shard.
    pub fn with_seek(mut self, seek: SeekPolicy) -> ServeConfig {
        self.seek = seek;
        self
    }

    /// Sets the per-shard submission channel capacity (min 1).
    pub fn with_channel_bound(mut self, bound: usize) -> ServeConfig {
        self.channel_bound = bound;
        self
    }

    /// Sets the periodic snapshot cadence in ingested requests.
    pub fn with_snapshot_every(mut self, every: usize) -> ServeConfig {
        self.snapshot_every = every;
        self
    }

    /// The per-shard engine config this service config induces.
    fn sched_config(&self) -> SchedConfig {
        let mut cfg = SchedConfig::new(self.arrivals, self.samples);
        cfg.max_batch = self.max_batch;
        cfg.audit = self.audit;
        cfg.seek = self.seek;
        cfg
    }
}

/// Per-shard tail numbers for the final report.
#[derive(Debug, Clone, Copy)]
pub struct ShardStats {
    /// Shard index (owns libraries `lib % shards == shard`).
    pub shard: usize,
    /// Submissions this shard accepted (counts fan-out parts).
    pub submitted: u64,
    /// Requests this shard served to completion.
    pub served: u64,
    /// Requests this shard terminally lost.
    pub lost: u64,
    /// Submissions rejected after close (0 in a clean shutdown).
    pub rejected: u64,
    /// Tape exchanges this shard performed.
    pub mounts: u64,
    /// DES events this shard dispatched.
    pub events: u64,
    /// The shard's final virtual clock.
    pub end: SimTime,
}

/// How a supervised shard died (or was declared dead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// An injected `ChaosKind::Kill` — the actor returned without a
    /// drain or report.
    Killed,
    /// The shard stopped acknowledging liveness ticks (injected stall,
    /// or a genuine wedge surfaced by the watchdog).
    Stalled,
    /// The shard thread panicked (its channel disconnected mid-run).
    Panicked,
    /// The shard never returned its books inside the drain watchdog,
    /// even after a recovery restart.
    Unresponsive,
}

/// One shard failure the supervisor detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardFailure {
    /// Which shard failed.
    pub shard: usize,
    /// The shard's incarnation (0 = original spawn) when it failed.
    pub generation: u64,
    /// Why the supervisor declared it dead.
    pub reason: FailureReason,
    /// The global ingestion draw at which the failure was detected
    /// (`cfg.samples` when detected during drain).
    pub at_draw: u64,
}

/// The final report of one service run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Merged per-request metrics: accumulators rebuilt from the joined
    /// records in deterministic order, run counters folded across
    /// shards ([`SchedMetrics::merge_counters`]). For a single shard
    /// this is bit-identical to the equivalent batch run's metrics.
    /// Note `metrics.lost()` counts shard-local losses (fan-out parts);
    /// [`ServeReport::lost`] counts distinct lost requests.
    pub metrics: SchedMetrics,
    /// Joined per-request records keyed by global submission id.
    /// Single shard: the engine's completion order, untouched. Multiple
    /// shards: sorted by `(finish, id)` — a deterministic total order,
    /// since the per-shard streams are only ordered within themselves.
    pub records: Vec<RequestRecord>,
    /// Final merged registry, canonical (name-sorted) form.
    pub registry: MetricsRegistry,
    /// Periodic snapshots, one per completed tick round, in tick order.
    /// Deterministic: snapshot `k` merges every shard's registry state
    /// after exactly the submissions that preceded tick `k`.
    pub snapshots: Vec<RegistrySnapshot>,
    /// Every shard's audit reports, concatenated in shard order.
    pub reports: Vec<AuditReport>,
    /// Per-shard tail numbers, in shard order.
    pub per_shard: Vec<ShardStats>,
    /// Distinct requests ingested.
    pub submitted: u64,
    /// Distinct requests served to completion (all fan-out parts done).
    pub served: u64,
    /// Distinct requests lost (at least one part terminally lost).
    pub lost: u64,
    /// Submissions rejected after close, summed over shards (0 in a
    /// clean shutdown).
    pub rejected: u64,
    /// Distinct requests shed under supervision: admission-control
    /// sheds while `Overloaded`, plus requests with a part dropped into
    /// a dead shard's restart window. Always 0 without chaos or a health
    /// policy.
    pub shed: u64,
    /// Shard restarts the supervisor performed (0 on a healthy run).
    pub restarts: u64,
    /// Every shard failure the supervisor detected, in detection order.
    pub failures: Vec<ShardFailure>,
    /// Health state at each snapshot barrier, `(seq, health)` — empty
    /// unless a health policy was active.
    pub health_trace: Vec<(u64, Health)>,
    /// Effective shard count.
    pub shards: usize,
    /// Latest virtual instant any shard reached.
    pub end: SimTime,
}

impl ServeReport {
    /// Whether the run conserved requests — every ingested request is
    /// served, lost, shed or rejected, never silently vanished — and
    /// every audit came back clean.
    pub fn is_clean(&self) -> bool {
        self.submitted == self.served + self.lost + self.shed + self.rejected
            && self.reports.iter().all(AuditReport::is_clean)
    }
}

/// Everything a shard thread hands back at join time.
pub(crate) struct ShardDone {
    /// Global id of each local submission, in submission order: the
    /// key that maps [`RequestRecord::request`] back to the service-
    /// wide request.
    pub(crate) ids: Vec<u64>,
    pub(crate) report: ShardReport,
    pub(crate) registry: MetricsRegistry,
}

/// What supervision adds on top of the fault-free books: the shed
/// ledgers and the failure/restart/health history. A run without chaos
/// or admission control leaves it at `Default`: nothing shed, failed or
/// restarted.
#[derive(Default)]
pub(crate) struct SupExtra {
    /// Global ids shed at admission (health `Overloaded`): never sent
    /// to any shard.
    pub(crate) shed_admission: BTreeSet<u64>,
    /// Global ids with at least one fan-out part dropped into a dead
    /// shard's restart window (or an unrecoverable shard's log).
    pub(crate) shed_parts: BTreeSet<u64>,
    /// Shard restarts performed.
    pub(crate) restarts: u64,
    /// Failures detected, in detection order.
    pub(crate) failures: Vec<ShardFailure>,
    /// Health state per snapshot barrier.
    pub(crate) health_trace: Vec<(u64, Health)>,
}

/// Registry handles one shard updates through.
pub(crate) struct Handles {
    pub(crate) submitted: tapesim_obs::CounterId,
    served: tapesim_obs::CounterId,
    lost: tapesim_obs::CounterId,
    mounts: tapesim_obs::CounterId,
    events: tapesim_obs::CounterId,
    depth: tapesim_obs::GaugeId,
    sojourn: tapesim_obs::HistogramId,
}

impl Handles {
    pub(crate) fn register(reg: &mut MetricsRegistry) -> Handles {
        Handles {
            submitted: reg.counter("serve.submitted"),
            served: reg.counter("serve.served"),
            lost: reg.counter("serve.lost"),
            mounts: reg.counter("serve.mounts"),
            events: reg.counter("serve.events"),
            depth: reg.gauge("serve.queue_depth"),
            sojourn: reg.histogram("serve.sojourn", &SOJOURN_BOUNDS),
        }
    }
}

/// Last-published values, so counter updates are deltas.
#[derive(Default)]
pub(crate) struct Tally {
    served: u64,
    lost: u64,
    mounts: u64,
    events: u64,
    records: usize,
}

/// Publishes the engine's current totals into the registry: counters
/// advance by their delta since the last refresh, the queue-depth gauge
/// is overwritten, and every record not yet observed lands in the
/// sojourn histogram.
#[allow(clippy::too_many_arguments)]
pub(crate) fn refresh_registry(
    reg: &mut MetricsRegistry,
    h: &Handles,
    tally: &mut Tally,
    served: u64,
    lost: u64,
    mounts: u64,
    events: u64,
    depth: usize,
    records: &[RequestRecord],
) {
    reg.add(h.served, served.saturating_sub(tally.served));
    reg.add(h.lost, lost.saturating_sub(tally.lost));
    reg.add(h.mounts, mounts.saturating_sub(tally.mounts));
    reg.add(h.events, events.saturating_sub(tally.events));
    reg.set(h.depth, depth as f64);
    for r in records.iter().skip(tally.records) {
        reg.observe(h.sojourn, r.sojourn_secs());
    }
    tally.served = served;
    tally.lost = lost;
    tally.mounts = mounts;
    tally.events = events;
    tally.records = records.len();
}

/// One joined request across its fan-out parts.
struct Join {
    arrival: SimTime,
    first_start: SimTime,
    finish: SimTime,
    parts: u32,
    lost: bool,
}

/// The sharded topology `(cfg, plan)` induce over the simulator:
/// effective shard count, per-shard catalog slices, per-shard
/// restricted fault plans, and the fan-out of every workload rank.
/// The supervisor builds it once per run and spawns one shard seat per
/// shard.
pub(crate) struct Topology {
    pub(crate) nshards: usize,
    pub(crate) sched_cfg: SchedConfig,
    pub(crate) shard_catalogs: Vec<Vec<Vec<TapeJob>>>,
    pub(crate) fanouts: Vec<Vec<usize>>,
    pub(crate) shard_plans: Vec<FaultPlan>,
}

pub(crate) fn topology(
    sim: &Simulator,
    workload: &Workload,
    cfg: &ServeConfig,
    plan: &FaultPlan,
) -> Topology {
    let placement = sim.placement();
    let system = placement.config();
    let n_libs = (system.libraries as usize).max(1);
    let nshards = cfg.shards.max(1).min(n_libs);
    let sched_cfg = cfg.sched_config();

    // The global job catalog, then each shard's filtered view: shard s
    // owns the libraries congruent to s, and sees only jobs on them.
    let catalog: Vec<Vec<TapeJob>> = workload
        .requests()
        .iter()
        .map(|r| tape_jobs(placement, &r.objects))
        .collect();
    let shard_catalogs: Vec<Vec<Vec<TapeJob>>> = (0..nshards)
        .map(|s| {
            catalog
                .iter()
                .map(|jobs| {
                    jobs.iter()
                        .filter(|j| j.tape.library.idx() % nshards == s)
                        .cloned()
                        .collect()
                })
                .collect()
        })
        .collect();
    // Fan-out per workload rank: every shard holding work for it, or a
    // deterministic fallback shard (which serves the empty request
    // instantaneously) so each request reaches at least one actor.
    let fanouts: Vec<Vec<usize>> = catalog
        .iter()
        .enumerate()
        .map(|(rank, _)| {
            let targets: Vec<usize> = shard_catalogs
                .iter()
                .enumerate()
                .filter(|(_, c)| c.get(rank).is_some_and(|jobs| !jobs.is_empty()))
                .map(|(s, _)| s)
                .collect();
            if targets.is_empty() {
                vec![rank % nshards]
            } else {
                targets
            }
        })
        .collect();
    let shard_plans: Vec<FaultPlan> = (0..nshards)
        .map(|s| {
            let owned: Vec<bool> = (0..n_libs).map(|lib| lib % nshards == s).collect();
            plan.restrict_to_libraries(system, &owned)
        })
        .collect();

    Topology {
        nshards,
        sched_cfg,
        shard_catalogs,
        fanouts,
        shard_plans,
    }
}

/// Runs the service end to end: ingest `cfg.samples` requests from the
/// canonical demand stream, serve them across per-library shards, and
/// join everything into one deterministic [`ServeReport`].
///
/// `plan` is the *global* fault plan; each shard sees only the faults
/// on the libraries it owns ([`FaultPlan::restrict_to_libraries`]).
/// `alternates` maps objects to replica copies for failover, exactly as
/// in [`tapesim_sched::run_scheduled_faulty`].
///
/// This is [`supervisor_run`] with an empty [`ChaosPlan`] and the
/// default [`SuperviseConfig`] (no admission control): nothing is
/// injected or shed, so a healthy run reports `shed`, `restarts` and
/// `failures` all zero. A shard that panics or wedges is not unwound
/// into the caller; it shows up in [`ServeReport::failures`].
pub fn serve_run(
    sim: &Simulator,
    workload: &Workload,
    kind: PolicyKind,
    cfg: &ServeConfig,
    plan: &FaultPlan,
    alternates: &BTreeMap<ObjectId, Vec<ObjectId>>,
) -> ServeReport {
    supervisor_run(
        sim,
        workload,
        kind,
        cfg,
        plan,
        alternates,
        &ChaosPlan::zero(cfg.shards.max(1)),
        &SuperviseConfig::default(),
    )
}

/// Joins the per-shard books into the final report. Pure and
/// single-threaded: everything deterministic about the run funnels
/// through here. `dones` carries explicit shard indices because a
/// shard's books may be lost entirely under chaos; `extra` is the
/// supervisor's shed/failure ledger ([`SupExtra::default`] when nothing
/// was shed, failed or restarted).
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble(
    sim: &Simulator,
    plan: &FaultPlan,
    cfg: &ServeConfig,
    nshards: usize,
    submitted: u64,
    dones: Vec<(usize, ShardDone)>,
    snapshots: Vec<RegistrySnapshot>,
    extra: SupExtra,
) -> ServeReport {
    let system = sim.placement().config();
    let clock = plan.clock();

    // Every id with any shed part: classified shed unless it is lost.
    let shed_ids: BTreeSet<u64> = extra
        .shed_admission
        .union(&extra.shed_parts)
        .copied()
        .collect();

    let mut lost = 0u64;
    let mut shed = 0u64;
    let mut records: Vec<RequestRecord> = Vec::new();
    if let (1, true, Some((_, done))) = (dones.len(), shed_ids.is_empty(), dones.first()) {
        // Single shard, nothing shed: the engine's completion order IS
        // the batch engine's record stream — pass it through untouched
        // so the rebuilt metrics reproduce the batch bits.
        lost = done.report.lost.len() as u64;
        records.extend(done.report.records.iter().map(|r| RequestRecord {
            request: done.ids.get(r.request).map_or(r.request, |&id| id as usize),
            ..*r
        }));
    } else {
        // Expected fan-out per global id: how many shards accepted it.
        let mut expected: BTreeMap<u64, u32> = BTreeMap::new();
        for (_, done) in &dones {
            for &id in &done.ids {
                *expected.entry(id).or_insert(0) += 1;
            }
        }

        // Join records (and losses) by global id.
        let mut joined: BTreeMap<u64, Join> = BTreeMap::new();
        for (_, done) in &dones {
            for r in &done.report.records {
                let Some(&id) = done.ids.get(r.request) else {
                    continue;
                };
                let entry = joined.entry(id).or_insert(Join {
                    arrival: r.arrival,
                    first_start: r.first_start,
                    finish: r.finish,
                    parts: 0,
                    lost: false,
                });
                entry.first_start = entry.first_start.min(r.first_start);
                entry.finish = entry.finish.max(r.finish);
                entry.parts += 1;
            }
            for &local in &done.report.lost {
                if let Some(&id) = done.ids.get(local) {
                    joined
                        .entry(id)
                        .or_insert(Join {
                            arrival: SimTime::ZERO,
                            first_start: SimTime::ZERO,
                            finish: SimTime::ZERO,
                            parts: 0,
                            lost: true,
                        })
                        .lost = true;
                }
            }
        }

        for (&id, join) in &joined {
            if join.lost {
                lost += 1;
                continue;
            }
            if shed_ids.contains(&id) {
                // A part was shed: the request cannot be complete, and
                // the supervisor already promised to count it.
                shed += 1;
                continue;
            }
            if expected.get(&id).copied() == Some(join.parts) {
                records.push(RequestRecord {
                    request: id as usize,
                    arrival: join.arrival,
                    first_start: join.first_start,
                    finish: join.finish,
                });
            } else {
                // Incomplete without a recorded shed or loss (a shard's
                // books vanished): count it shed so conservation holds.
                shed += 1;
            }
        }
        // Sheds that never reached a surviving shard at all: admission
        // sheds and requests whose every part was dropped.
        for &id in &shed_ids {
            if !joined.contains_key(&id) {
                shed += 1;
            }
        }
        // Per-shard streams are each nondecreasing in finish but
        // mutually unordered; `(finish, id)` is the canonical total
        // order the merged accumulators are fed in.
        records.sort_by(|a, b| a.finish.cmp(&b.finish).then(a.request.cmp(&b.request)));
    }

    let mut metrics = SchedMetrics::new(system.total_drives() as u32);
    for r in &records {
        metrics.record(r);
        if clock.degraded_at(r.arrival) {
            metrics.record_degraded_sojourn(r);
        }
    }

    let mut registry = MetricsRegistry::new();
    let mut reports = Vec::new();
    let mut per_shard = Vec::new();
    let mut rejected = 0u64;
    let mut end = SimTime::ZERO;
    for (shard, done) in dones.into_iter() {
        metrics.merge_counters(&done.report.outcome.metrics);
        registry.merge(&done.registry);
        rejected += done.report.rejected;
        end = end.max(done.report.end);
        per_shard.push(ShardStats {
            shard,
            submitted: done.report.submitted as u64,
            served: done.report.records.len() as u64,
            lost: done.report.lost.len() as u64,
            rejected: done.report.rejected,
            mounts: done.report.outcome.metrics.mounts(),
            events: done.report.outcome.metrics.events(),
            end: done.report.end,
        });
        reports.extend(done.report.outcome.reports);
    }

    let served = records.len() as u64;
    ServeReport {
        metrics,
        records,
        registry: registry.canonical(),
        snapshots,
        reports,
        per_shard,
        submitted,
        served,
        lost,
        rejected,
        shed,
        restarts: extra.restarts,
        failures: extra.failures,
        health_trace: extra.health_trace,
        shards: nshards,
        end,
    }
    .checked(cfg)
}

impl ServeReport {
    /// Debug-time conservation check: every ingested request is served,
    /// lost, shed or rejected, never silently vanished.
    fn checked(self, cfg: &ServeConfig) -> ServeReport {
        debug_assert_eq!(
            self.submitted,
            self.served + self.lost + self.shed + self.rejected,
            "request conservation violated (samples={})",
            cfg.samples
        );
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report whose only nonzero legs are the ones a test sets: the
    /// conservation identity `submitted = served + lost + shed +
    /// rejected` is exercised one leg at a time.
    fn base(submitted: u64) -> ServeReport {
        ServeReport {
            metrics: SchedMetrics::default(),
            records: Vec::new(),
            registry: MetricsRegistry::new(),
            snapshots: Vec::new(),
            reports: Vec::new(),
            per_shard: Vec::new(),
            submitted,
            served: 0,
            lost: 0,
            rejected: 0,
            shed: 0,
            restarts: 0,
            failures: Vec::new(),
            health_trace: Vec::new(),
            shards: 1,
            end: SimTime::ZERO,
        }
    }

    #[test]
    fn conservation_closes_on_the_served_leg() {
        let mut r = base(7);
        r.served = 7;
        assert!(r.is_clean());
        r.served = 6;
        assert!(!r.is_clean(), "a vanished request must not audit clean");
    }

    #[test]
    fn conservation_closes_on_the_lost_leg() {
        let mut r = base(5);
        r.served = 3;
        r.lost = 2;
        assert!(r.is_clean());
        r.lost = 3;
        assert!(!r.is_clean(), "a double-counted loss must not audit clean");
    }

    #[test]
    fn conservation_closes_on_the_shed_leg() {
        let mut r = base(9);
        r.served = 4;
        r.shed = 5;
        assert!(r.is_clean());
        r.shed = 0;
        assert!(!r.is_clean());
    }

    #[test]
    fn conservation_closes_on_the_rejected_leg() {
        let mut r = base(4);
        r.served = 1;
        r.rejected = 3;
        assert!(
            r.is_clean(),
            "post-close rejections are an accounted leg, not a failure"
        );
        r.rejected = 2;
        assert!(!r.is_clean());
    }

    #[test]
    fn conservation_closes_with_every_leg_nonzero() {
        let mut r = base(10);
        r.served = 4;
        r.lost = 2;
        r.shed = 3;
        r.rejected = 1;
        assert!(r.is_clean());
    }
}
