//! Parallel multi-library execution of the concurrent scheduling engine.
//!
//! A multi-library run of the concurrent gear decomposes cleanly: every
//! event after an arrival (exchanges, job completions, batch ends) is
//! confined to one library — drives, robots and tape queues are
//! per-library, and a policy's dispatch decisions only read that
//! library's state. The only *global* input is the arrival stream. So the
//! run partitions into one [`ShardEngine`] per library, each fed the
//! arrivals that touch its library, executed on its own thread under the
//! conservative time-window protocol of [`tapesim_des::parallel`]:
//!
//! * the **window schedule** comes from the precomputed arrival stream —
//!   [`window_barriers`] chunks it and each barrier is the next
//!   undelivered arrival instant (the arrival-insertion horizon);
//! * within a round every partition submits its arrivals below the
//!   barrier and pumps its event loop to the last *globally* delivered
//!   arrival (strictly below the barrier), so no partition ever executes
//!   an event that a future submission could precede;
//! * after the last window the partitions drain and their
//!   [`ShardReport`]s are **merged back into the monolithic result, bit
//!   for bit** (golden fingerprints, audit verdicts and metric bits are
//!   pinned identical by the equivalence tests).
//!
//! # The determinism argument (lockstep)
//!
//! Let `E` be the monolithic engine's event sequence and `E_p` partition
//! `p`'s. Every non-arrival event belongs to exactly one library;
//! arrivals are duplicated into each library they touch. Claim: `E_p`
//! equals the subsequence of `E` restricted to library `p`, with
//! identical timestamps and state effects. Induction over `E`: the
//! monolithic queue orders events by `(time, class, seq)`; two events of
//! the same library keep their relative `seq` order in the partition
//! (both are scheduled by the same chain of same-library handlers, in the
//! same handler order), and events of *different* libraries never read or
//! write each other's state, so reordering across libraries cannot change
//! what any handler computes. The one cross-library handler is the shared
//! arrival, which visits its libraries in ascending index order in both
//! worlds. Hence every partition computes exactly the monolithic
//! library-restricted run — same floats, same records, same trace.
//!
//! What the decomposition does *not* preserve is the **interleaving** of
//! order-sensitive global folds: the monolithic engine accumulates busy
//! time and picks each request's `first_start` in global event order,
//! and float addition does not commute. The engines therefore log those
//! operations tagged with an [`OpKey`] — `(time, class, library)`, the
//! event's position in the monolithic order (ascending-library tie order
//! per the lockstep argument) — and the merge replays them by sorted key:
//! the exact monolithic fold order, reproduced across partitions.
//!
//! # Eligibility
//!
//! The decomposition is sound only when nothing crosses libraries after
//! arrival. `run_partitioned` declines (returns `None`, the caller
//! falls back to the monolithic gear) when: the system has one library;
//! the policy is sequential (the FCFS gear mutates the simulator); span
//! accounting is on (one global `TimeBudget` cannot be rebuilt from
//! partition budgets); or the run combines a non-zero fault
//! plan with replica alternates — a failover may re-home work to another
//! library, which would pierce partition isolation.

use crate::engine::{
    run_concurrent, run_sequential_faulty, OpKey, SchedConfig, SchedOutcome, ShardEngine,
    ShardReport,
};
use crate::metrics::{RequestRecord, SchedMetrics};
use crate::policy::SchedPolicy;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;
use tapesim_des::audit::AuditReport;
use tapesim_des::parallel::{run_windowed, window_barriers, WindowPartition, WindowTrace};
use tapesim_des::SimTime;
use tapesim_faults::FaultPlan;
use tapesim_model::{ObjectId, SystemConfig};
use tapesim_sim::catalog::{tape_jobs, TapeJob};
use tapesim_sim::Simulator;
use tapesim_workload::{RequestStream, Workload};

/// Arrivals delivered per synchronization round when
/// [`ParallelConfig::window`] is 0. Large enough to amortise the round
/// barrier, small enough that partitions stay time-synchronised.
const DEFAULT_WINDOW: usize = 64;

/// How (and whether) a scheduled run may execute in parallel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Master switch. Off routes every run through the monolithic gears.
    pub enabled: bool,
    /// Worker threads (0 = one per available CPU, clamped to the
    /// partition count either way).
    pub threads: usize,
    /// Arrivals delivered per window round (0 = `DEFAULT_WINDOW`, 64).
    pub window: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig::off()
    }
}

impl ParallelConfig {
    /// Parallel execution disabled.
    pub fn off() -> ParallelConfig {
        ParallelConfig {
            enabled: false,
            threads: 0,
            window: 0,
        }
    }

    /// Parallel execution enabled with automatic thread count and the
    /// default window.
    pub fn on() -> ParallelConfig {
        ParallelConfig {
            enabled: true,
            threads: 0,
            window: 0,
        }
    }

    /// Sets the worker-thread count (0 = auto).
    pub fn with_threads(mut self, threads: usize) -> ParallelConfig {
        self.threads = threads;
        self
    }

    /// Sets the arrivals-per-round window (0 = default).
    pub fn with_window(mut self, window: usize) -> ParallelConfig {
        self.window = window;
        self
    }

    /// The process-wide configuration from the environment, read once:
    /// `TAPESIM_PARALLEL` (`1`/`on`/`true`/`yes`) enables, and
    /// `TAPESIM_THREADS` pins the worker count. This is what the plain
    /// [`crate::run_scheduled`] entry consults, so existing callers and
    /// the whole tier-1 suite can opt in without code changes.
    pub fn from_env() -> ParallelConfig {
        static CACHE: OnceLock<ParallelConfig> = OnceLock::new();
        *CACHE.get_or_init(|| {
            let enabled = std::env::var("TAPESIM_PARALLEL")
                .map(|v| matches!(v.trim(), "1" | "on" | "true" | "yes"))
                .unwrap_or(false);
            let threads = std::env::var("TAPESIM_THREADS")
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0);
            ParallelConfig {
                enabled,
                threads,
                window: 0,
            }
        })
    }
}

/// [`crate::run_scheduled`] with an explicit parallel configuration:
/// eligible runs execute one partition per library under the
/// conservative window protocol; everything else falls back to the
/// monolithic gears. Results are bit-identical either way.
pub fn run_scheduled_parallel(
    sim: &mut Simulator,
    workload: &Workload,
    policy: &dyn SchedPolicy,
    cfg: &SchedConfig,
    par: &ParallelConfig,
) -> SchedOutcome {
    let plan = FaultPlan::zero(sim.placement().config());
    run_scheduled_faulty_parallel(sim, workload, policy, cfg, &plan, &BTreeMap::new(), par)
}

/// [`crate::run_scheduled_faulty`] with an explicit parallel
/// configuration. Routing mirrors the monolithic entry exactly;
/// partitioned execution additionally requires the fault plan and
/// replica map to never re-home work across libraries (see the module
/// docs on eligibility).
pub fn run_scheduled_faulty_parallel(
    sim: &mut Simulator,
    workload: &Workload,
    policy: &dyn SchedPolicy,
    cfg: &SchedConfig,
    plan: &FaultPlan,
    alternates: &BTreeMap<ObjectId, Vec<ObjectId>>,
    par: &ParallelConfig,
) -> SchedOutcome {
    if policy.sequential() {
        return if plan.media_only() {
            run_sequential_faulty(sim, workload, cfg, plan, alternates)
        } else {
            run_concurrent(sim, workload, policy, cfg, plan, alternates)
        };
    }
    match run_partitioned(sim, workload, policy, cfg, plan, alternates, par) {
        Some((outcome, _)) => outcome,
        None => run_concurrent(sim, workload, policy, cfg, plan, alternates),
    }
}

/// One per-library partition driven by the window protocol: its slice of
/// the arrival stream, the engine executing it, and the pre-computed
/// per-round pump watermark (the last globally delivered arrival, always
/// strictly below the round's barrier).
struct Partition<'s, 'e> {
    engine: Option<ShardEngine<'e>>,
    /// This partition's submissions `(arrival, catalog rank)`, a
    /// nondecreasing subsequence of the global stream.
    subs: &'s [(SimTime, usize)],
    cursor: usize,
    /// Per-round pump bound, aligned with the barrier schedule.
    watermarks: &'s [SimTime],
    round: usize,
    report: Option<ShardReport>,
}

impl WindowPartition for Partition<'_, '_> {
    fn advance(&mut self, barrier: SimTime) {
        // Both misses are protocol violations the runner never commits
        // (advance after drain, more rounds than the schedule holds);
        // doing nothing keeps the partition safely *behind* the barrier.
        let Some(engine) = self.engine.as_mut() else {
            return;
        };
        let Some(&watermark) = self.watermarks.get(self.round) else {
            return;
        };
        self.round += 1;
        while let Some(&(at, rank)) = self.subs.get(self.cursor) {
            if at >= barrier {
                break;
            }
            engine.submit(at, rank);
            self.cursor += 1;
        }
        engine.pump(watermark);
    }

    fn drain(&mut self) {
        // A second drain finds the engine gone and keeps the first
        // drain's report.
        let Some(mut engine) = self.engine.take() else {
            return;
        };
        for &(at, rank) in self.subs.get(self.cursor..).unwrap_or_default() {
            engine.submit(at, rank);
        }
        self.cursor = self.subs.len();
        self.report = Some(engine.finish());
    }

    fn clock(&self) -> SimTime {
        self.engine.as_ref().map_or(SimTime::ZERO, ShardEngine::now)
    }
}

/// Runs the partitioned gear if the run is eligible, returning the
/// merged outcome and the window trace (for the barrier-correctness
/// tests); `None` means "use the monolithic gear".
pub(crate) fn run_partitioned(
    sim: &Simulator,
    workload: &Workload,
    policy: &dyn SchedPolicy,
    cfg: &SchedConfig,
    plan: &FaultPlan,
    alternates: &BTreeMap<ObjectId, Vec<ObjectId>>,
    par: &ParallelConfig,
) -> Option<(SchedOutcome, WindowTrace)> {
    let system = sim.placement().config();
    let nparts = system.libraries as usize;
    if !par.enabled || nparts < 2 || policy.sequential() || cfg.obs {
        return None;
    }
    if !plan.is_zero() && !alternates.is_empty() {
        // A failover may re-home a job to a replica in another library,
        // piercing partition isolation.
        return None;
    }

    let placement = sim.placement();
    let catalog: Vec<Vec<TapeJob>> = workload
        .requests()
        .iter()
        .map(|r| tape_jobs(placement, &r.objects))
        .collect();

    // The full demand stream, drawn exactly as the monolithic gear draws
    // it — the window schedule needs it up front anyway.
    let mut stream = RequestStream::new(cfg.arrivals, workload);
    let draws: Vec<(SimTime, usize)> = (0..cfg.samples)
        .map(|_| {
            let (at, ridx) = stream.next_request();
            (SimTime::from_secs(at), ridx)
        })
        .collect();

    // Per-library views: the catalog restricted to each library's tapes,
    // and the fault plan restricted to each library's hardware (their
    // union over the partition is the full plan).
    let catalogs: Vec<Vec<Vec<TapeJob>>> = (0..nparts)
        .map(|p| {
            catalog
                .iter()
                .map(|jobs| {
                    jobs.iter()
                        .filter(|j| j.tape.library.idx() == p)
                        .cloned()
                        .collect()
                })
                .collect()
        })
        .collect();
    let plans: Vec<FaultPlan> = (0..nparts)
        .map(|p| {
            let owned: Vec<bool> = (0..nparts).map(|lib| lib == p).collect();
            plan.restrict_to_libraries(system, &owned)
        })
        .collect();

    // Fan the stream out: every draw goes to each library its jobs
    // touch; an empty request (nothing to stream) is recorded by a
    // deterministic home partition. `globals` joins a partition's local
    // submission indices back to global ones for the merge.
    let mut subs: Vec<Vec<(SimTime, usize)>> = vec![Vec::new(); nparts];
    let mut globals: Vec<Vec<usize>> = vec![Vec::new(); nparts];
    for (g, &(at, rank)) in draws.iter().enumerate() {
        if catalog.get(rank).is_none_or(Vec::is_empty) {
            let p = rank % nparts;
            if let (Some(sub), Some(glob)) = (subs.get_mut(p), globals.get_mut(p)) {
                sub.push((at, rank));
                glob.push(g);
            }
            continue;
        }
        for (cat, (sub, glob)) in catalogs.iter().zip(subs.iter_mut().zip(globals.iter_mut())) {
            if cat.get(rank).is_some_and(|jobs| !jobs.is_empty()) {
                sub.push((at, rank));
                glob.push(g);
            }
        }
    }
    let total_subs: usize = subs.iter().map(Vec::len).sum();

    let window = if par.window == 0 {
        DEFAULT_WINDOW
    } else {
        par.window
    };
    let times: Vec<SimTime> = draws.iter().map(|&(at, _)| at).collect();
    let barriers = window_barriers(&times, window);
    // Each round pumps to the last arrival below its barrier: safe for
    // every partition (all its sub-barrier submissions are in), and
    // strictly below the barrier by `window_barriers`' construction.
    let watermarks: Vec<SimTime> = barriers
        .iter()
        .map(|&b| {
            times
                .get(..times.partition_point(|&t| t < b))
                .and_then(<[SimTime]>::last)
                .copied()
                .unwrap_or(SimTime::ZERO)
        })
        .collect();

    let mut parts: Vec<Partition> = plans
        .iter()
        .zip(catalogs.iter())
        .zip(subs.iter())
        .enumerate()
        .map(|(p, ((lib_plan, lib_catalog), lib_subs))| {
            let mut engine = ShardEngine::new_owned(
                sim,
                policy,
                cfg,
                lib_plan,
                alternates,
                lib_catalog,
                Some(p),
            );
            engine.enable_merge_log();
            Partition {
                engine: Some(engine),
                subs: lib_subs,
                cursor: 0,
                watermarks: &watermarks,
                round: 0,
                report: None,
            }
        })
        .collect();

    let threads = if par.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        par.threads
    };
    let trace = run_windowed(&mut parts, &barriers, threads);

    let reports: Vec<ShardReport> = parts.into_iter().filter_map(|p| p.report).collect();
    if reports.len() != nparts {
        // A partition was never drained — a runner bug; fall back to
        // the monolithic gear rather than merge a partial result.
        return None;
    }
    let outcome = merge(
        system, plan, &draws, &catalog, total_subs, &globals, reports,
    );
    Some((outcome, trace))
}

/// Rebuilds the monolithic [`SchedOutcome`] from the partition reports.
///
/// Order-free quantities (mounts, retries, events, availability inputs)
/// sum or max across partitions; order-sensitive ones replay in
/// monolithic event order via [`OpKey`]s: busy time folds by sorted key,
/// each request's `first_start` comes from its minimum first-plan key,
/// and completion records are re-emitted in the order the monolithic
/// engine would have pushed them (last-completing event's key).
fn merge(
    system: &SystemConfig,
    plan: &FaultPlan,
    draws: &[(SimTime, usize)],
    catalog: &[Vec<TapeJob>],
    total_subs: usize,
    globals: &[Vec<usize>],
    reports: Vec<ShardReport>,
) -> SchedOutcome {
    let clock = plan.clock();
    let n_drives = system.total_drives();

    // A request lost in any partition is lost in the monolithic run: its
    // last job can never complete there either.
    let mut lost: BTreeSet<usize> = BTreeSet::new();
    for (rep, glob) in reports.iter().zip(globals.iter()) {
        for &local in &rep.lost {
            if let Some(&g) = glob.get(local) {
                lost.insert(g);
            }
        }
    }

    // Per-partition first-plan keys, addressable by local submission
    // index (the records' `request` field).
    let first_keys: Vec<Vec<Option<OpKey>>> = reports
        .iter()
        .zip(globals.iter())
        .map(|(rep, glob)| {
            let mut keys = vec![None; glob.len()];
            if let Some(ops) = &rep.merge {
                for &(local, key) in &ops.first_plans {
                    if let Some(slot) = keys.get_mut(local) {
                        *slot = Some(key);
                    }
                }
            }
            keys
        })
        .collect();

    // Fold each global request's partition records: the monolithic
    // finish is the latest partition finish (ties to the higher library
    // — the later event in monolithic order), and the monolithic
    // first_start is the one planned by the smallest OpKey.
    #[derive(Clone, Copy)]
    struct Agg {
        seen: bool,
        arrival: SimTime,
        finish: SimTime,
        lib: u16,
        first_key: Option<OpKey>,
        first_start: SimTime,
    }
    let mut agg = vec![
        Agg {
            seen: false,
            arrival: SimTime::ZERO,
            finish: SimTime::ZERO,
            lib: 0,
            first_key: None,
            first_start: SimTime::ZERO,
        };
        draws.len()
    ];
    for (p, (rep, (glob, keys))) in reports
        .iter()
        .zip(globals.iter().zip(first_keys.iter()))
        .enumerate()
    {
        for rec in &rep.records {
            let Some(&g) = glob.get(rec.request) else {
                continue;
            };
            let key = keys.get(rec.request).copied().flatten();
            let Some(a) = agg.get_mut(g) else {
                continue;
            };
            if !a.seen {
                *a = Agg {
                    seen: true,
                    arrival: rec.arrival,
                    finish: rec.finish,
                    lib: p as u16,
                    first_key: key,
                    first_start: rec.first_start,
                };
                continue;
            }
            if (rec.finish, p as u16) > (a.finish, a.lib) {
                a.finish = rec.finish;
                a.lib = p as u16;
            }
            let earlier = match (key, a.first_key) {
                (Some(k), Some(have)) => k < have,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if earlier {
                a.first_key = key;
                a.first_start = rec.first_start;
            }
        }
    }

    // Re-emit records in monolithic push order. Iterating partitions in
    // index order keeps same-key records (necessarily same-partition, by
    // the lockstep argument) in their local completion order; the stable
    // sort then interleaves across partitions by the completing event's
    // key. Empty requests complete inside their (class −1) arrival event
    // and tie-break by submission order.
    struct Entry {
        at: SimTime,
        class: i8,
        lib: u16,
        global: usize,
        record: RequestRecord,
    }
    let mut entries: Vec<Entry> = Vec::new();
    for (p, (rep, glob)) in reports.iter().zip(globals.iter()).enumerate() {
        for rec in &rep.records {
            let Some(&g) = glob.get(rec.request) else {
                continue;
            };
            let Some(a) = agg.get(g) else {
                continue;
            };
            if lost.contains(&g) || a.lib as usize != p {
                continue;
            }
            let empty = draws
                .get(g)
                .and_then(|&(_, rank)| catalog.get(rank))
                .is_none_or(Vec::is_empty);
            entries.push(Entry {
                at: a.finish,
                class: if empty { -1 } else { 0 },
                lib: if empty { 0 } else { a.lib },
                global: g,
                record: RequestRecord {
                    request: g,
                    arrival: a.arrival,
                    first_start: a.first_start,
                    finish: a.finish,
                },
            });
        }
    }
    entries.sort_by(|x, y| {
        (x.at, x.class, x.lib).cmp(&(y.at, y.class, y.lib)).then(
            if x.class == -1 && y.class == -1 {
                // Same-instant empty arrivals push records in submission
                // order (their Arrive events tie-break by sequence).
                x.global.cmp(&y.global)
            } else {
                std::cmp::Ordering::Equal
            },
        )
    });

    let mut metrics = SchedMetrics::new(n_drives as u32);
    for e in &entries {
        metrics.record(&e.record);
        if clock.degraded_at(e.record.arrival) {
            metrics.record_degraded_sojourn(&e.record);
        }
    }

    // Busy time is a float fold in event order: k-way merge the keyed
    // deltas (stable, so same-key deltas — same-library, already locally
    // ordered — keep their order) and replay the fold.
    let mut busy_ops: Vec<(OpKey, SimTime)> = Vec::new();
    for rep in &reports {
        if let Some(ops) = &rep.merge {
            busy_ops.extend_from_slice(&ops.busy);
        }
    }
    busy_ops.sort_by_key(|&(key, _)| key);
    let mut busy = SimTime::ZERO;
    for &(_, delta) in &busy_ops {
        busy += delta;
    }
    metrics.add_busy_time(busy);

    let mut mounts = 0u64;
    let mut events = 0u64;
    let mut retries = 0u64;
    let mut failovers = 0u64;
    let mut end = SimTime::ZERO;
    let mut audit_reports = Vec::new();
    for rep in reports {
        mounts += rep.outcome.metrics.mounts();
        events += rep.outcome.metrics.events();
        retries += rep.outcome.metrics.retries();
        failovers += rep.outcome.metrics.failovers();
        end = end.max(rep.end);
        audit_reports.extend(rep.outcome.reports);
    }
    metrics.add_mounts(mounts);
    // Arrivals fanned out to several partitions dispatch one Arrive
    // event each; the monolithic engine dispatches exactly one.
    metrics.set_events(events - (total_subs - draws.len()) as u64);
    metrics.add_retries(retries);
    metrics.add_failovers(failovers);
    metrics.add_lost(lost.len() as u64);

    // The monolithic gear audits the whole interleaved trace and emits
    // ONE report; the partitions audit their sub-traces, which partition
    // that trace exactly (lockstep + owned prologue). Every counter is
    // an order-free sum over the entries, so folding the per-library
    // reports reproduces the monolithic report verbatim; violations
    // (never expected) concatenate in library order.
    let audit_reports = if audit_reports.is_empty() {
        audit_reports
    } else {
        let merged = audit_reports
            .into_iter()
            .fold(AuditReport::default(), |mut acc, r| {
                acc.entries += r.entries;
                acc.jobs += r.jobs;
                acc.transfers += r.transfers;
                acc.exchanges += r.exchanges;
                acc.faults += r.faults;
                acc.losses += r.losses;
                acc.failovers += r.failovers;
                acc.violations.extend(r.violations);
                acc
            });
        vec![merged]
    };

    let first = draws.first().map_or(SimTime::ZERO, |&(at, _)| at);
    metrics.set_horizon_time(end.saturating_sub(first));
    if !clock.is_zero() {
        // Availability over the full fleet and the global span — the
        // monolithic formula verbatim.
        let span = end.saturating_sub(first);
        let mut healthy = SimTime::ZERO;
        for drive in 0..n_drives {
            let alive_until = clock.drive_fail_at(drive).min(end).max(first);
            healthy += alive_until.saturating_sub(first);
        }
        metrics.set_availability(healthy, span);
    }

    SchedOutcome {
        metrics,
        reports: audit_reports,
        budget: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BatchByTape, Fcfs, PolicyKind, SltfTape};
    use tapesim_faults::FaultSpec;
    use tapesim_model::specs::{paper_table1, paper_table1_with_libraries};
    use tapesim_model::Bytes;
    use tapesim_placement::{ParallelBatchPlacement, PlacementPolicy};
    use tapesim_workload::{ArrivalSpec, ObjectSizeSpec, RequestSpec, WorkloadSpec};

    /// The engine tests' heavy fixture: the working set overflows the
    /// initially mounted capacity, so runs exchange tapes across all
    /// three of `paper_table1`'s libraries.
    fn heavy_setup() -> (Simulator, Workload) {
        let w = WorkloadSpec {
            objects: 4_000,
            sizes: ObjectSizeSpec::default().calibrated(Bytes::gb(8)),
            requests: RequestSpec {
                count: 60,
                min_objects: 30,
                max_objects: 50,
                count_shape: 1.0,
                alpha: 0.3,
            },
            seed: 17,
        }
        .generate();
        let cfg = paper_table1();
        let p = ParallelBatchPlacement::with_m(4).place(&w, &cfg).unwrap();
        (Simulator::with_natural_policy(p, 4), w)
    }

    fn spec(seed: u64) -> ArrivalSpec {
        ArrivalSpec {
            per_hour: 40.0,
            seed,
        }
    }

    /// Bitwise equality on everything a [`SchedOutcome`] carries. Audit
    /// reports are compared by their *summed* entry counts (the golden
    /// wall's view): the monolithic engine emits one report where the
    /// partitioned run emits one per library, but the concatenation must
    /// cover exactly the same trace.
    fn assert_identical(par: &SchedOutcome, mono: &SchedOutcome) {
        let (p, m) = (&par.metrics, &mono.metrics);
        assert_eq!(p.served(), m.served());
        assert_eq!(p.mounts(), m.mounts());
        assert_eq!(p.events(), m.events());
        assert_eq!(p.lost(), m.lost());
        assert_eq!(p.retries(), m.retries());
        assert_eq!(p.failovers(), m.failovers());
        assert_eq!(p.degraded_served(), m.degraded_served());
        assert_eq!(p.avg_wait().to_bits(), m.avg_wait().to_bits());
        assert_eq!(p.avg_service().to_bits(), m.avg_service().to_bits());
        assert_eq!(p.avg_sojourn().to_bits(), m.avg_sojourn().to_bits());
        assert_eq!(p.utilisation().to_bits(), m.utilisation().to_bits());
        assert_eq!(p.availability().to_bits(), m.availability().to_bits());
        for pct in [0.5, 0.95, 0.99] {
            assert_eq!(
                p.wait_percentile(pct).to_bits(),
                m.wait_percentile(pct).to_bits()
            );
            assert_eq!(
                p.sojourn_percentile(pct).to_bits(),
                m.sojourn_percentile(pct).to_bits()
            );
            assert_eq!(
                p.degraded_sojourn_percentile(pct).to_bits(),
                m.degraded_sojourn_percentile(pct).to_bits()
            );
        }
        // The per-request sojourn vector must match element for element:
        // records were re-emitted in monolithic completion order.
        let pv = p.sojourn_seconds();
        let mv = m.sojourn_seconds();
        assert_eq!(pv.len(), mv.len());
        for (i, (a, b)) in pv.iter().zip(mv.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "sojourn[{i}] differs");
        }
        assert_eq!(par.is_clean(), mono.is_clean());
        // The folded per-library audit must equal the monolithic audit
        // verbatim — same shape (one report), same counts over the
        // whole trace, no violations on either side.
        assert_eq!(par.reports, mono.reports, "audit reports diverge");
    }

    #[test]
    fn parallel_matches_monolithic_bit_for_bit() {
        for policy in [&BatchByTape as &dyn SchedPolicy, &SltfTape] {
            let cfg = SchedConfig::new(spec(11), 40).with_audit(true);
            let (mut mono_sim, w) = heavy_setup();
            let mono =
                run_scheduled_parallel(&mut mono_sim, &w, policy, &cfg, &ParallelConfig::off());
            let (mut par_sim, _) = heavy_setup();
            let par = run_scheduled_parallel(&mut par_sim, &w, policy, &cfg, &ParallelConfig::on());
            assert_identical(&par, &mono);
        }
    }

    #[test]
    fn thread_and_window_counts_never_change_the_bits() {
        let cfg = SchedConfig::new(spec(23), 32).with_audit(true);
        let (mut mono_sim, w) = heavy_setup();
        let mono = run_scheduled_parallel(
            &mut mono_sim,
            &w,
            &BatchByTape,
            &cfg,
            &ParallelConfig::off(),
        );
        for threads in [1, 2, 8] {
            for window in [1, 7, 64] {
                let par_cfg = ParallelConfig::on()
                    .with_threads(threads)
                    .with_window(window);
                let (mut sim, _) = heavy_setup();
                let par = run_scheduled_parallel(&mut sim, &w, &BatchByTape, &cfg, &par_cfg);
                assert_identical(&par, &mono);
            }
        }
    }

    #[test]
    fn faulty_parallel_matches_monolithic_bit_for_bit() {
        let plan = FaultPlan::generate(&FaultSpec::moderate(29), &paper_table1());
        let alternates = BTreeMap::new();
        for policy in [&BatchByTape as &dyn SchedPolicy, &SltfTape] {
            let cfg = SchedConfig::new(spec(7), 40).with_audit(true);
            let (mut mono_sim, w) = heavy_setup();
            let mono = run_scheduled_faulty_parallel(
                &mut mono_sim,
                &w,
                policy,
                &cfg,
                &plan,
                &alternates,
                &ParallelConfig::off(),
            );
            let (mut par_sim, _) = heavy_setup();
            let par = run_scheduled_faulty_parallel(
                &mut par_sim,
                &w,
                policy,
                &cfg,
                &plan,
                &alternates,
                &ParallelConfig::on().with_threads(3),
            );
            assert_identical(&par, &mono);
        }
    }

    /// Satellite 4's invariant, asserted on the engine's own trace: no
    /// partition ever executes an event at or above a window barrier.
    #[test]
    fn no_partition_executes_at_or_above_a_barrier() {
        let cfg = SchedConfig::new(spec(5), 48).with_audit(true);
        let (sim, w) = heavy_setup();
        let plan = FaultPlan::zero(sim.placement().config());
        let alternates = BTreeMap::new();
        let (_, trace) = run_partitioned(
            &sim,
            &w,
            &BatchByTape,
            &cfg,
            &plan,
            &alternates,
            &ParallelConfig::on().with_threads(2).with_window(4),
        )
        .expect("three-library fixture must be eligible");
        assert!(!trace.rounds.is_empty(), "windowed run recorded no rounds");
        assert!(
            trace.is_conservative(),
            "a partition clock reached a window barrier"
        );
    }

    #[test]
    fn ineligible_runs_fall_back_to_the_monolithic_gear() {
        let cfg = SchedConfig::new(spec(3), 16);
        let (sim, w) = heavy_setup();
        let plan = FaultPlan::zero(sim.placement().config());
        let alternates = BTreeMap::new();
        let on = ParallelConfig::on();

        // Disabled switch.
        assert!(run_partitioned(
            &sim,
            &w,
            &BatchByTape,
            &cfg,
            &plan,
            &alternates,
            &ParallelConfig::off()
        )
        .is_none());
        // Sequential (FCFS) policy.
        assert!(run_partitioned(&sim, &w, &Fcfs, &cfg, &plan, &alternates, &on).is_none());
        // Span accounting on: one global budget cannot be partitioned.
        assert!(run_partitioned(
            &sim,
            &w,
            &BatchByTape,
            &cfg.with_obs(true),
            &plan,
            &alternates,
            &on
        )
        .is_none());
        // Faults combined with replica alternates may re-home work.
        let faulty = FaultPlan::generate(&FaultSpec::moderate(1), sim.placement().config());
        let mut alts = BTreeMap::new();
        alts.insert(ObjectId(0), vec![ObjectId(1)]);
        assert!(run_partitioned(&sim, &w, &BatchByTape, &cfg, &faulty, &alts, &on).is_none());

        // Single-library systems have nothing to partition.
        let single = paper_table1_with_libraries(1);
        let w1 = WorkloadSpec {
            objects: 400,
            sizes: ObjectSizeSpec::default().calibrated(Bytes::gb(2)),
            requests: RequestSpec {
                count: 20,
                min_objects: 5,
                max_objects: 12,
                count_shape: 1.0,
                alpha: 0.3,
            },
            seed: 9,
        }
        .generate();
        let p1 = ParallelBatchPlacement::with_m(4)
            .place(&w1, &single)
            .unwrap();
        let sim1 = Simulator::with_natural_policy(p1, 4);
        let plan1 = FaultPlan::zero(sim1.placement().config());
        assert!(
            run_partitioned(&sim1, &w1, &BatchByTape, &cfg, &plan1, &alternates, &on).is_none()
        );
    }

    /// The fallback still *serves* the run: parallel entry + ineligible
    /// shape produces the monolithic answer, not a panic or an empty
    /// outcome — for every policy, including the sequential FCFS gear.
    #[test]
    fn fallback_outcomes_match_the_plain_entry_points() {
        let cfg = SchedConfig::new(spec(13), 12).with_audit(true);
        for kind in PolicyKind::ALL {
            let policy = kind.build();
            let (mut a, w) = heavy_setup();
            let base =
                run_scheduled_parallel(&mut a, &w, policy.as_ref(), &cfg, &ParallelConfig::off());
            let (mut b, _) = heavy_setup();
            let obs_cfg = cfg.with_obs(false);
            let via = run_scheduled_parallel(
                &mut b,
                &w,
                policy.as_ref(),
                &obs_cfg,
                &ParallelConfig::on().with_threads(1),
            );
            assert_identical(&via, &base);
        }
    }
}
