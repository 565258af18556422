//! The scheduled-service engine.
//!
//! [`run_scheduled`] serves a Poisson arrival stream of popularity-drawn
//! requests under a [`SchedPolicy`]. Two gears:
//!
//! * **Sequential** (policies with [`SchedPolicy::sequential`] — FCFS):
//!   the paper's §6 operating model with queueing added — one request in
//!   service at a time on a single conceptual server, each served by the
//!   per-request [`Simulator`], whose mount state persists across
//!   requests. A request that arrives while another is in service waits.
//! * **Concurrent** (everything else): the *whole* arrival stream runs
//!   as one discrete-event simulation. Requests arrive while earlier ones
//!   are still streaming, their per-tape jobs join a shared admission
//!   queue, and every drive serves from that queue concurrently. Jobs
//!   targeting the same tape coalesce into a batch — one mount amortised
//!   over every queued job for that tape, ordered within the tape by the
//!   same `seek_order` planner the per-request engine uses. It runs on a
//!   snapshot of the simulator's mount state (the simulator itself is
//!   left untouched).
//!
//! Physical modelling (rewind, exchange, robot contention, seek plans)
//! reuses the per-request engine's formulas so both worlds agree on the
//! hardware.
//!
//! # Fault injection
//!
//! [`run_scheduled_faulty`] threads a pre-generated
//! [`tapesim_faults::FaultPlan`] through the concurrent gear. All fault
//! handling is *guarded*: under a zero plan every fault query returns its
//! identity value and the run is bit-identical to [`run_scheduled`]
//! (pinned by regression test). Degraded-mode behaviour:
//!
//! * **Drive failures** are noticed lazily at dispatch time (no far-future
//!   DES events that would distort the horizon): batches are truncated so
//!   no window outlives the drive, exchanges are only begun if they finish
//!   before the failure, and a dead drive's mounted tape is recovered via
//!   the robot and remounted on a surviving drive by normal dispatch.
//! * **Robot jams** push exchange windows past the repair interval.
//! * **Media bad-spots** charge retries (capped exponential backoff plus
//!   reposition-and-reread per retry) against a per-job budget; a job
//!   whose demand exceeds the budget is *fatal* and is failed over to a
//!   replica copy (when the placement has one on an untried tape) or
//!   counted as a terminal loss — never a panic.
//! * **Batch shrinking**: when a library drops below `d − m` healthy
//!   drives, its batches are capped at the healthy-drive count.
//! * Jobs stranded when no feasible drive remains are swept into counted
//!   losses after the event queue drains.

use crate::metrics::{RequestRecord, SchedMetrics};
use crate::policy::{SchedPolicy, TapeCandidate};
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use tapesim_des::audit::{AuditReport, AuditStream, TraceAuditor};
use tapesim_des::trace::TraceEntry;
use tapesim_des::{Resource, Scheduler, SimTime, TraceEvent, World};
use tapesim_faults::{FaultClock, FaultPlan};
use tapesim_model::tape::Extent;
use tapesim_model::{Bytes, DriveId, LibraryId, ObjectId, SystemConfig, TapeId};
use tapesim_obs::{TimeAccountant, TimeBudget, Topology};
use tapesim_placement::Placement;
use tapesim_sim::catalog::{tape_jobs, RequestCatalog, TapeJob};
use tapesim_sim::seek_order;
use tapesim_sim::{SeekPolicy, Simulator, SwitchPolicy};
use tapesim_workload::{ArrivalSpec, RequestStream, Workload};

/// Configuration of one scheduled run.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// The Poisson arrival stream.
    pub arrivals: ArrivalSpec,
    /// Number of requests to serve.
    pub samples: usize,
    /// Largest number of jobs one mount may serve (0 = unlimited).
    pub max_batch: usize,
    /// Whether to audit the event trace: each request's trace in the
    /// sequential gear, the whole run online through an [`AuditStream`]
    /// (never buffered) in the concurrent gear.
    pub audit: bool,
    /// Whether to run the span accountant and attach a
    /// [`TimeBudget`] to the outcome. Off by default; when off the
    /// only cost is one `None` check per emitted trace event.
    pub obs: bool,
    /// The in-tape service-order planner. Per-tape-local (mount and
    /// batch decisions are untouched), so parallel partition eligibility
    /// is unchanged. [`SeekPolicy::Greedy`] — the default — is
    /// bit-identical to runs recorded before seek policies existed.
    pub seek: SeekPolicy,
}

impl SchedConfig {
    /// A run of `samples` requests with unlimited batches and no audit.
    pub fn new(arrivals: ArrivalSpec, samples: usize) -> SchedConfig {
        SchedConfig {
            arrivals,
            samples,
            max_batch: 0,
            audit: false,
            obs: false,
            seek: SeekPolicy::Greedy,
        }
    }

    /// Caps batch size (0 = unlimited).
    pub fn with_max_batch(mut self, max_batch: usize) -> SchedConfig {
        self.max_batch = max_batch;
        self
    }

    /// Enables trace recording and auditing.
    pub fn with_audit(mut self, audit: bool) -> SchedConfig {
        self.audit = audit;
        self
    }

    /// Enables span time accounting (a [`TimeBudget`] on the outcome).
    pub fn with_obs(mut self, obs: bool) -> SchedConfig {
        self.obs = obs;
        self
    }

    /// Selects the in-tape service-order planner (default:
    /// [`SeekPolicy::Greedy`]).
    pub fn with_seek(mut self, seek: SeekPolicy) -> SchedConfig {
        self.seek = seek;
        self
    }
}

/// The span accountant's view of the simulated hardware.
fn topology_of(system: &SystemConfig) -> Topology {
    Topology {
        libraries: system.libraries as u32,
        drives_per_library: system.library.drives as u32,
        arms_per_library: system.library.robot.arms.max(1) as u32,
        tapes_per_library: system.library.tapes as u32,
        load_secs: system.library.drive.load_time,
        unload_secs: system.library.drive.unload_time,
    }
}

/// The engine's single trace-event tap: every emitted event goes to the
/// optional span accountant and then to the optional online auditor.
/// Both consumers are streaming; neither buffers the trace. With both
/// off, the cost per event is two `None` checks.
#[derive(Debug)]
struct Tap {
    audit: Option<Box<AuditStream>>,
    spans: Option<Box<TimeAccountant>>,
}

impl Tap {
    fn new(cfg: &SchedConfig, auditor: &TraceAuditor, system: &SystemConfig) -> Tap {
        Tap {
            audit: cfg.audit.then(|| Box::new(auditor.stream())),
            spans: cfg
                .obs
                .then(|| Box::new(TimeAccountant::new(topology_of(system)))),
        }
    }

    #[inline]
    fn emit(&mut self, time: SimTime, event: TraceEvent) {
        if let Some(acc) = self.spans.as_deref_mut() {
            acc.observe(time, &event);
        }
        if let Some(stream) = self.audit.as_deref_mut() {
            stream.push(&TraceEntry { time, event });
        }
    }

    /// Closes both consumers: the audit report (none when auditing is
    /// off) and the time budget, booked against makespan `end`.
    fn finish(self, end: SimTime) -> (Vec<AuditReport>, Option<TimeBudget>) {
        let budget = self.spans.map(|acc| acc.finish(end));
        let reports = self
            .audit
            .map(|stream| stream.finish())
            .into_iter()
            .collect();
        (reports, budget)
    }
}

/// Result of one scheduled run.
#[derive(Debug, Clone, Default)]
pub struct SchedOutcome {
    /// Per-request metrics with percentiles.
    pub metrics: SchedMetrics,
    /// Audit reports (one per request in the sequential gear, one for the
    /// whole run in the concurrent gear; empty when auditing is off).
    pub reports: Vec<AuditReport>,
    /// Per-resource time budget (present iff [`SchedConfig::obs`] was
    /// set): the makespan of every drive and robot arm split into
    /// exclusive span categories, plus job-phase totals.
    pub budget: Option<TimeBudget>,
}

impl SchedOutcome {
    /// Whether every recorded trace passed the auditor.
    pub fn is_clean(&self) -> bool {
        self.reports.iter().all(AuditReport::is_clean)
    }
}

/// Runs `cfg.samples` popularity-drawn requests through the scheduler
/// under `policy`.
///
/// Every policy sees the same demand, drawn from one [`RequestStream`].
/// Sequential policies mutate `sim`'s mount state; concurrent policies
/// run on a snapshot and leave `sim` untouched.
pub fn run_scheduled(
    sim: &mut Simulator,
    workload: &Workload,
    policy: &dyn SchedPolicy,
    cfg: &SchedConfig,
) -> SchedOutcome {
    let plan = FaultPlan::zero(sim.placement().config());
    run_scheduled_faulty(sim, workload, policy, cfg, &plan, &BTreeMap::new())
}

/// [`run_scheduled`] with fault injection: drives fail per `plan`, robot
/// jams delay exchanges, and media bad-spots burn retries. `alternates`
/// maps each object to its replica copies (from
/// `tapesim_workload::ReplicaMap::alternates`); jobs whose retries are
/// exhausted fail over to an untried replica tape or become counted
/// losses.
///
/// With a zero plan the metrics are bit-identical to [`run_scheduled`].
/// Sequential policies route by what the plan injects: a **media-only**
/// plan (bad-spots, no drive failures, no jams) runs the single-server
/// loop with per-request retry accounting; any plan with drive failures
/// or jams routes through the concurrent event gear — the single-server
/// loop has no drive identities for those faults to act on. FCFS order
/// is preserved there by `Fcfs::choose` (oldest arrival first).
pub fn run_scheduled_faulty(
    sim: &mut Simulator,
    workload: &Workload,
    policy: &dyn SchedPolicy,
    cfg: &SchedConfig,
    plan: &FaultPlan,
    alternates: &BTreeMap<ObjectId, Vec<ObjectId>>,
) -> SchedOutcome {
    if policy.sequential() && plan.media_only() {
        run_sequential_faulty(sim, workload, cfg, plan, alternates)
    } else {
        run_concurrent(sim, workload, policy, cfg, plan, alternates)
    }
}

/// The sequential gear: a single-server FCFS loop over the per-request
/// [`Simulator`] under a **media-only** `plan` (a zero plan is the
/// fault-free run). A request starts at `max(arrival, previous
/// completion)`; its response is the simulator's.
///
/// Under a non-zero plan each request's tape jobs are scanned for bad
/// spots before service. Retries cost capped exponential backoff plus one
/// reposition-and-reread each, charged as a surcharge on the response. A
/// job whose demand exceeds the retry budget is redirected to replica
/// copies from `alternates` (one level: replica reads are assumed clean
/// here), or the whole request is lost — skipped, never served. A zero
/// plan skips the scan and serves the drawn objects as they are.
///
/// Each drawn rank is grouped into tape jobs once per run (a
/// [`RequestCatalog`]); only a request that failed over is regrouped.
///
/// Media-retry penalties have no trace events behind them in this gear,
/// so in an observed run they surface as server idle time, not
/// `Transfer` — documented in DESIGN §12.
fn run_sequential_faulty(
    sim: &mut Simulator,
    workload: &Workload,
    cfg: &SchedConfig,
    plan: &FaultPlan,
    alternates: &BTreeMap<ObjectId, Vec<ObjectId>>,
) -> SchedOutcome {
    sim.set_seek(cfg.seek);
    let clock = plan.clock();
    let mut stream = RequestStream::new(cfg.arrivals, workload);

    let mut metrics = SchedMetrics::new(1);
    let mut reports = Vec::new();
    let mut acct = cfg
        .obs
        .then(|| Box::new(TimeAccountant::new(topology_of(sim.placement().config()))));
    let mut retries = 0u64;
    let mut failovers = 0u64;
    let mut lost_requests = 0u64;
    let mut server_free = 0.0;
    let mut first_arrival = None;
    let mut events = 0u64;
    let mut catalog = RequestCatalog::new(workload);
    let mut final_objects = Vec::new();
    for _ in 0..cfg.samples {
        let (clock_t, idx) = stream.next_request();
        first_arrival.get_or_insert(clock_t);
        let mut jobs = catalog.jobs(sim.placement(), idx);
        let regrouped;

        let mut penalty_s = 0.0;
        if !clock.is_zero() {
            let placement = sim.placement();
            let syscfg = placement.config();
            let spec = &syscfg.library.drive;
            let capacity = syscfg.library.tape.capacity;

            final_objects.clear();
            let mut failed_over = false;
            let mut lost = false;
            for job in jobs {
                let tape_idx = syscfg.tape_index(job.tape);
                // Charged in offset order, ahead of the service that plans
                // the read.
                let read = clock.charge(tape_idx, &job.extents, spec, capacity);
                // A clean read adds `+ 0.0`, which keeps the bits.
                penalty_s += read.penalty_secs;
                retries += read.retries as u64;
                if !read.fatal {
                    final_objects.extend(job.extents.iter().map(|e| e.object));
                    continue;
                }
                // Retries exhausted: redirect every extent to a replica on
                // a different tape, or lose the whole request.
                let mut replicas = Vec::with_capacity(job.extents.len());
                let resolvable = job.extents.iter().all(|e| {
                    alternates
                        .get(&e.object)
                        .and_then(|alts| {
                            alts.iter()
                                .copied()
                                .find(|&o| placement.locate(o).tape != job.tape)
                        })
                        .map(|o| replicas.push(o))
                        .is_some()
                });
                if resolvable {
                    failovers += 1;
                    failed_over = true;
                    final_objects.extend(replicas);
                } else {
                    lost = true;
                    break;
                }
            }
            if lost {
                lost_requests += 1;
                continue;
            }
            // Without a failover the surviving objects are the request's
            // own, whose grouping the catalog already holds.
            if failed_over {
                regrouped = tape_jobs(placement, &final_objects);
                jobs = &regrouped;
            }
        }

        let start = clock_t.max(server_free);
        let r = if cfg.audit || acct.is_some() {
            let (r, tracer) = sim.serve_jobs(jobs, true);
            if cfg.audit {
                reports.push(TraceAuditor::new().audit(tracer.entries()));
            }
            // Stitch the request's local-clock trace onto the run axis at
            // its service start; sequential services never overlap, so
            // the shifted windows stay exclusive per resource.
            if let Some(acc) = acct.as_deref_mut() {
                let offset = SimTime::from_secs(start);
                for entry in tracer.entries() {
                    acc.observe_shifted(offset, entry.time, &entry.event);
                }
            }
            r
        } else {
            sim.serve_jobs(jobs, false).0
        };
        // `x + 0.0` preserves the bits of `x`: a zero plan charges nothing.
        let response = r.response + penalty_s;
        server_free = start + response;

        metrics.record_seconds(start - clock_t, response, server_free - clock_t);
        metrics.add_mounts(r.n_switches as u64);
        metrics.add_busy(response);
        events += r.n_events;
    }
    metrics.set_horizon(server_free - first_arrival.unwrap_or(0.0));
    metrics.set_events(events);
    metrics.add_retries(retries);
    metrics.add_failovers(failovers);
    metrics.add_lost(lost_requests);
    let budget = acct.map(|acc| acc.finish(SimTime::from_secs(server_free)));
    SchedOutcome {
        metrics,
        reports,
        budget,
    }
}

/// One job in the shared admission queue.
#[derive(Debug)]
struct JobState<'a> {
    /// Index of the arrival (request instance) this job belongs to.
    request: usize,
    /// The tape job: target tape plus extents in ascending offset order.
    /// Arrival jobs borrow the per-request catalog built once per run;
    /// only failover replacements (rare) own freshly grouped work.
    work: Cow<'a, TapeJob>,
    /// The job's read exhausted its retry budget; on completion it must
    /// fail over or be declared lost instead of counting as served.
    fatal: bool,
}

/// One tape's FIFO of queued job indices with running aggregates, so a
/// dispatch candidate reads two fields instead of walking the queue.
#[derive(Debug, Clone, Default)]
struct TapeQueue {
    jobs: VecDeque<usize>,
    /// Exact (integer) sum of the queued jobs' bytes.
    bytes: Bytes,
    /// Earliest queued arrival, the front-to-back [`SimTime::min`] fold a
    /// queue walk computes; meaningless while the queue is empty.
    oldest: SimTime,
    /// A batch popped jobs off the front, maybe the oldest one (failover
    /// re-queues put older arrivals at the back). The fold is redone on
    /// the next read: at most once per batch, never per pop.
    oldest_stale: bool,
}

impl TapeQueue {
    fn push_back(&mut self, job: usize, bytes: Bytes, arrival: SimTime) {
        self.oldest = if self.jobs.is_empty() {
            arrival
        } else {
            self.oldest.min(arrival)
        };
        self.jobs.push_back(job);
        self.bytes += bytes;
    }

    /// Pops the front job, whose byte count is `bytes`.
    fn pop_front(&mut self, bytes: Bytes) {
        self.jobs.pop_front();
        self.bytes -= bytes;
        self.oldest_stale = !self.jobs.is_empty();
    }
}

/// One outstanding request instance.
#[derive(Debug)]
struct ReqState {
    /// Submission index of the arrival this request answers (the `i` of
    /// [`Ev::Arrive`]); carried into its [`RequestRecord`] so external
    /// collectors can join completions back to submissions.
    index: usize,
    arrival: SimTime,
    /// Jobs not yet completed.
    outstanding: usize,
    /// When its first byte started streaming.
    first_start: Option<SimTime>,
    /// Merge key of the planning event that set `first_start`: the event
    /// instant, its priority class and the library it planned in. The
    /// parallel merge uses it to decide which partition's `first_start`
    /// the monolithic engine would have kept (see `crate::parallel`).
    first_plan: Option<OpKey>,
    /// At least one of its jobs was terminally lost.
    lost: bool,
}

/// Where in the monolithic event order an order-sensitive operation
/// (busy-time delta, first-plan) happened: the event's timestamp, its
/// priority class (`ARRIVAL_PRIORITY` for arrivals, 0 otherwise) and
/// the library whose dispatch performed it. Within one `(time, class)`
/// tie the monolithic engine visits libraries in ascending order, so
/// comparing keys lexicographically reproduces its operation order
/// across per-library partitions (the lockstep argument, DESIGN §16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct OpKey {
    /// Timestamp of the event performing the operation.
    pub at: SimTime,
    /// Priority class of that event (arrivals fire before same-time
    /// service events).
    pub class: i8,
    /// Library whose dispatch performed the operation.
    pub lib: u16,
}

/// An engine event. Indices are `u32` (job ids already are, in the
/// trace) so a queued event with its inline key is 32 bytes: the heap
/// moves one entry per level on every push and pop.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The `i`-th precomputed arrival enters the admission queue.
    Arrive(u32),
    /// A tape exchange completed; the drive now holds `tape`.
    SwitchDone { drive: u32, tape: TapeId },
    /// One job of a batch finished streaming.
    JobDone { drive: u32, job: u32 },
    /// A drive finished its whole batch and is idle again.
    BatchDone { drive: u32 },
}

struct SchedSim<'a> {
    cfg: &'a SystemConfig,
    placement: &'a Placement,
    policy: &'a dyn SchedPolicy,
    switch_policy: SwitchPolicy,
    batch_cap: usize,
    /// The in-tape service-order planner (from [`SchedConfig::seek`]).
    seek: SeekPolicy,
    /// Arrival times and workload-request indices in submission order.
    /// Owned so the incremental [`ShardEngine`] can append while the
    /// event loop runs; the batch gear fills it up front.
    arrivals: Vec<(SimTime, usize)>,
    /// Per-request tape jobs, grouped once per run and indexed by
    /// workload-request rank. Arrivals resample the same few requests, so
    /// borrowing from here replaces a `tape_jobs` regrouping (hash set,
    /// tree map, sorts, fresh vectors) on every arrival.
    job_catalog: &'a [Vec<TapeJob>],
    /// Dense snapshot of the simulator's mount state — the only two
    /// fields dispatch reads or advances. Copied once per run (two small
    /// per-drive vectors); the simulator itself is never cloned or
    /// mutated by the concurrent gear.
    mounted: Vec<Option<TapeId>>,
    /// Per-drive head position, advanced as batches stream.
    head: Vec<Bytes>,
    /// Reverse mount index by [`SystemConfig::tape_index`]: which drive
    /// currently holds each tape. Mirrors `mounted` exactly; replaces
    /// the per-candidate linear `drive_of` scan.
    holder: Vec<Option<u32>>,
    busy: Vec<bool>,
    robots: Vec<Resource>,
    jobs: Vec<JobState<'a>>,
    /// Failover lineage: the tapes already attempted for a replacement
    /// job's data. A replica is only eligible if its tape is not in here.
    /// Arrival jobs have tried nothing and have no entry.
    tried: BTreeMap<usize, Vec<TapeId>>,
    requests: Vec<ReqState>,
    /// Shared admission queue: per-tape FIFO of job indices, dense by
    /// [`SystemConfig::tape_index`]. An empty deque means "no queue".
    pending: Vec<TapeQueue>,
    /// Tapes currently being fetched by an exchange, dense by tape index.
    claimed: Vec<bool>,
    /// The dispatch index, one bit per tape index: set while the tape
    /// has queued jobs and is neither claimed nor held by a drive, i.e.
    /// exactly the candidate tapes. Kept by [`SchedSim::refresh_ready`]
    /// after every change to a tape's queue, claim or holder.
    ready: Vec<u64>,
    outstanding_jobs: usize,
    mounts: u64,
    busy_time: SimTime,
    records: Vec<RequestRecord>,
    /// Audit/observability tap: every emitted event passes the optional
    /// span accountant, then the audit sink.
    audit: Tap,
    /// Fault-plan view; identity answers under a zero plan.
    clock: FaultClock<'a>,
    /// Replica fallbacks per object (empty when replication is off).
    alternates: &'a BTreeMap<ObjectId, Vec<ObjectId>>,
    /// Drives whose permanent failure has been noticed.
    dead: Vec<bool>,
    /// Per library: how many of its drives are `dead`.
    failed: Vec<usize>,
    /// Switch-drive count per library (the `m` of the d−m batch rule).
    switch_m: Vec<usize>,
    retries: u64,
    failovers_n: u64,
    lost_requests: u64,
    /// Submission indices of terminally lost requests, in loss order —
    /// the complement of `records` (together they partition the accepted
    /// submissions), so collectors can account for every request.
    lost_log: Vec<usize>,
    /// Per-drive victim-scan scratch for [`Self::try_dispatch`] (drives
    /// whose exchange cannot finish before their failure instant).
    /// Member so the allocation is reused across dispatches.
    blocked: Vec<bool>,
    /// Per-library scratch marking libraries touched by an arrival or a
    /// failover, drained in ascending order (the old `BTreeSet` order).
    libs_hit: Vec<bool>,
    /// Candidate-list scratch for [`Self::try_dispatch`], reused across
    /// dispatches instead of allocating per victim scan.
    cands: Vec<TapeCandidate>,
    /// Seek-plan scratch for [`Self::start_batch`]: one buffer reused for
    /// every job's service order.
    plan_scratch: Vec<Extent>,
    /// Priority class of the event currently being handled (the
    /// [`ARRIVAL_PRIORITY`] of arrivals, 0 otherwise) — the class half of
    /// the [`OpKey`]s stamped on order-sensitive operations.
    event_class: i8,
    /// Order-sensitive busy-time deltas, keyed for the parallel merge.
    /// `None` outside partitioned runs, so the single-engine paths pay
    /// nothing.
    busy_log: Option<Vec<(OpKey, SimTime)>>,
}

impl SchedSim<'_> {
    /// The merge key of an order-sensitive operation performed at `now`
    /// by `drive`'s library, under the event class currently in flight.
    fn op_key(&self, now: SimTime, drive: usize) -> OpKey {
        OpKey {
            at: now,
            class: self.event_class,
            lib: (drive / self.cfg.library.drives as usize) as u16,
        }
    }

    /// Rewind + exchange seconds to bring a new tape onto `drive`, given
    /// its current occupancy.
    fn switch_cost(&self, drive: usize) -> (f64, f64) {
        let hw = &self.cfg.library;
        let occupied = self.mounted[drive].map(|_| self.head[drive]);
        hw.drive.switch_cost(&hw.robot, occupied, hw.tape.capacity)
    }

    /// The batch cap for `drive`, shrunk when its library is degraded:
    /// once fewer than `d − m` drives survive, batches are capped at the
    /// healthy-drive count so no single mount monopolises what is left.
    fn effective_cap(&self, drive: usize) -> usize {
        let d = self.cfg.library.drives as usize;
        let lib = drive / d;
        let healthy = d - self.failed[lib];
        if healthy + self.switch_m[lib] < d {
            let shrunk = healthy.max(1);
            if self.batch_cap == 0 {
                shrunk
            } else {
                shrunk.min(self.batch_cap)
            }
        } else {
            self.batch_cap
        }
    }

    /// Streams up to [`Self::effective_cap`] queued jobs of `tape` back to
    /// back on `drive` (already holding the tape), scheduling per-job
    /// completions and the batch end. Media bad-spots under the read
    /// extents burn retries — backoff plus one reposition-and-reread per
    /// retry — against the per-job budget; exhausting it marks the job
    /// fatal. The batch is truncated so no window outlives the drive's
    /// failure instant; truncated jobs stay pending.
    fn start_batch(&mut self, drive: usize, tape: TapeId, now: SimTime, sched: &mut Scheduler<Ev>) {
        let spec = &self.cfg.library.drive;
        let capacity = self.cfg.library.tape.capacity;
        let fail_at = self.clock.drive_fail_at(drive);
        let cap = self.effective_cap(drive);
        let tape_idx = self.cfg.tape_index(tape);
        let mut t = now;
        let mut taken = 0usize;
        loop {
            if cap != 0 && taken >= cap {
                break;
            }
            let Some(&job) = self.pending[tape_idx].jobs.front() else {
                break;
            };
            let head = self.head[drive];
            // Reuses the member scratch across jobs.
            let mut plan = std::mem::take(&mut self.plan_scratch);
            seek_order::plan_with(self.seek, head, &self.jobs[job].work.extents, &mut plan);
            // The charge walks the same planned order as the read.
            let (seek_s, xfer_s, pos) = spec.read_walk(head, &plan, capacity);
            let read = self.clock.charge(tape_idx, &plan, spec, capacity);
            let plan_len = plan.len();
            plan.clear();
            self.plan_scratch = plan;
            // `x + 0.0` preserves the bits of `x`, so the zero-fault
            // window is identical to the fault-free formula.
            let finish = t + SimTime::from_secs(seek_s + xfer_s + read.penalty_secs);
            if finish > fail_at {
                // The drive dies mid-window: leave this job (and the rest
                // of the queue) pending for a surviving drive.
                break;
            }
            let bytes = self.jobs[job].work.bytes();
            self.pending[tape_idx].pop_front(bytes);
            taken += 1;
            self.head[drive] = pos;
            // All of the batch's windows are emitted at `now` (when the
            // batch was planned) so entry timestamps stay monotone; the
            // start/finish fields carry the actual windows.
            self.audit.emit(
                now,
                TraceEvent::Transfer {
                    drive: self.cfg.drive_at(drive).into(),
                    tape: tape.into(),
                    job: job as u32,
                    extents: plan_len as u32,
                    seek: SimTime::from_secs(seek_s),
                    transfer: SimTime::from_secs(xfer_s),
                    start: t,
                    finish,
                },
            );
            if read.retries > 0 || read.fatal {
                self.audit.emit(
                    now,
                    TraceEvent::ReadFaulted {
                        job: job as u32,
                        drive: self.cfg.drive_at(drive).into(),
                        retries: read.retries,
                        penalty: SimTime::from_secs(read.penalty_secs),
                        fatal: read.fatal,
                    },
                );
                self.jobs[job].fatal = read.fatal;
                self.retries += read.retries as u64;
            }
            let req = self.jobs[job].request;
            if self.requests[req].first_start.is_none() {
                self.requests[req].first_plan = Some(self.op_key(now, drive));
            }
            self.requests[req].first_start.get_or_insert(t);
            sched.schedule_at(
                finish,
                Ev::JobDone {
                    drive: drive as u32,
                    job: job as u32,
                },
            );
            t = finish;
        }
        self.refresh_ready(tape_idx);
        if taken == 0 {
            return;
        }
        self.busy[drive] = true;
        self.busy_time += t - now;
        let key = self.op_key(now, drive);
        if let Some(log) = self.busy_log.as_mut() {
            log.push((key, t - now));
        }
        // Scheduled after the last JobDone at the same instant, so
        // completions are recorded before the drive re-dispatches.
        sched.schedule_at(
            t,
            Ev::BatchDone {
                drive: drive as u32,
            },
        );
    }

    /// The earliest request time `>= at` at which an exchange of
    /// `duration` neither starts inside nor overlaps a jam window of
    /// `lib`'s robot, accounting for arm availability. Identity when the
    /// plan has no jams.
    fn exchange_start(&self, lib: usize, mut at: SimTime, duration: SimTime) -> SimTime {
        loop {
            let start = self.robots[lib].earliest_start(at);
            let pushed = self.clock.robot_ready(lib, start, duration);
            if pushed == start {
                return at;
            }
            at = pushed;
        }
    }

    /// Notices drive failures up to `now` in `lib`: marks the drive dead,
    /// emits the failure, and recovers its mounted tape (unmount) so a
    /// surviving drive can fetch it.
    fn reap_failures(&mut self, lib: usize, now: SimTime) {
        let d = self.cfg.library.drives as usize;
        for bay in 0..d {
            let idx = lib * d + bay;
            if self.dead[idx] {
                continue;
            }
            let fail_at = self.clock.drive_fail_at(idx);
            if fail_at <= now {
                self.dead[idx] = true;
                self.failed[lib] += 1;
                self.audit.emit(
                    now,
                    TraceEvent::DriveFailed {
                        drive: self.cfg.drive_at(idx).into(),
                        at: fail_at,
                    },
                );
                if let Some(tape) = self.mounted[idx].take() {
                    let tape_idx = self.cfg.tape_index(tape);
                    self.holder[tape_idx] = None;
                    self.refresh_ready(tape_idx);
                    self.audit.emit(
                        now,
                        TraceEvent::Unmounted {
                            drive: self.cfg.drive_at(idx).into(),
                            tape: tape.into(),
                        },
                    );
                }
            }
        }
    }

    /// Begins the exchange bringing `tape` onto `drive`.
    fn begin_switch(
        &mut self,
        drive: usize,
        tape: TapeId,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        let (rewind_s, exchange_s) = self.switch_cost(drive);
        let lib = self.cfg.drive_at(drive).library.idx();
        if let Some(old) = self.mounted[drive].take() {
            let old_idx = self.cfg.tape_index(old);
            self.holder[old_idx] = None;
            self.refresh_ready(old_idx);
            self.audit.emit(
                now,
                TraceEvent::Unmounted {
                    drive: self.cfg.drive_at(drive).into(),
                    tape: old.into(),
                },
            );
        }
        self.head[drive] = Bytes::ZERO;
        self.busy[drive] = true;

        let rewind_done = now + SimTime::from_secs(rewind_s);
        let exchange = SimTime::from_secs(exchange_s);
        let at = self.exchange_start(lib, rewind_done, exchange);
        let grant = self.robots[lib].acquire(at, exchange);
        self.mounts += 1;
        self.audit.emit(
            now,
            TraceEvent::ExchangeBegun {
                drive: self.cfg.drive_at(drive).into(),
                tape: tape.into(),
                arm: grant.server as u32,
                start: grant.start,
                finish: grant.finish,
            },
        );
        sched.schedule_at(
            grant.finish,
            Ev::SwitchDone {
                drive: drive as u32,
                tape,
            },
        );
    }

    /// Re-derives `tape_idx`'s bit in the dispatch index from its queue,
    /// claim and holder state.
    fn refresh_ready(&mut self, tape_idx: usize) {
        let ready = !self.pending[tape_idx].jobs.is_empty()
            && !self.claimed[tape_idx]
            && self.holder[tape_idx].is_none();
        let (word, bit) = (tape_idx / 64, 1u64 << (tape_idx % 64));
        if ready {
            self.ready[word] |= bit;
        } else {
            self.ready[word] &= !bit;
        }
    }

    /// Fills `out` with the policy's candidate list for `lib`, estimating
    /// locate cost against the drive the scheduler would use. Visits only
    /// the library's ready tapes, in ascending index order, and reads
    /// their queue aggregates; only a queue longer than the batch cap is
    /// walked, over the `cap` jobs that would ride the mount.
    fn fill_candidates(&mut self, lib: usize, drive: usize, out: &mut Vec<TapeCandidate>) {
        let spec = &self.cfg.library.drive;
        let (rewind_s, exchange_s) = self.switch_cost(drive);
        let est_locate = SimTime::from_secs(rewind_s + exchange_s);
        let cap = self.effective_cap(drive);
        out.clear();
        let tapes = self.cfg.library.tapes as usize;
        let slots = lib * tapes..(lib + 1) * tapes;
        // Set bits in ascending index order: `tape_index` is library-major
        // ascending, so this is `TapeId` order, the order of a slot walk.
        let ready = (slots.start / 64..slots.end.div_ceil(64)).flat_map(|word| {
            let mut bits = self.ready[word];
            std::iter::from_fn(move || {
                let bit = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
                bits &= bits - 1;
                Some(word * 64 + bit)
            })
        });
        for tape_idx in ready.filter(|i| slots.contains(i)) {
            let queue = &mut self.pending[tape_idx];
            let (take, bytes, oldest) = if cap != 0 && queue.jobs.len() > cap {
                let mut bytes = Bytes::ZERO;
                let mut oldest = SimTime::MAX;
                for &job in queue.jobs.iter().take(cap) {
                    bytes += self.jobs[job].work.bytes();
                    oldest = oldest.min(self.requests[self.jobs[job].request].arrival);
                }
                (cap, bytes, oldest)
            } else {
                if queue.oldest_stale {
                    queue.oldest = queue.jobs.iter().fold(SimTime::MAX, |oldest, &job| {
                        oldest.min(self.requests[self.jobs[job].request].arrival)
                    });
                    queue.oldest_stale = false;
                }
                (queue.jobs.len(), queue.bytes, queue.oldest)
            };
            out.push(TapeCandidate {
                tape: TapeId::new(LibraryId(lib as u16), (tape_idx - lib * tapes) as u16),
                queued_jobs: take,
                queued_bytes: bytes,
                oldest_arrival: oldest,
                est_locate,
                est_service: SimTime::from_secs(spec.transfer_time(bytes)),
            });
        }
    }

    /// The slot-walk candidate list the dispatch index replaced: every
    /// slot of `lib`, every queued job (up to the cap) of every eligible
    /// tape: the oracle [`SchedSim::fill_candidates`] must equal at every
    /// dispatch.
    #[cfg(test)]
    fn fill_candidates_oracle(&self, lib: usize, drive: usize, out: &mut Vec<TapeCandidate>) {
        let spec = &self.cfg.library.drive;
        let (rewind_s, exchange_s) = self.switch_cost(drive);
        let est_locate = SimTime::from_secs(rewind_s + exchange_s);
        let cap = self.effective_cap(drive);
        out.clear();
        let tapes = self.cfg.library.tapes as usize;
        for slot in 0..tapes {
            let tape_idx = lib * tapes + slot;
            let queue = &self.pending[tape_idx].jobs;
            if queue.is_empty() || self.claimed[tape_idx] || self.holder[tape_idx].is_some() {
                continue;
            }
            let take = if cap == 0 {
                queue.len()
            } else {
                queue.len().min(cap)
            };
            let mut bytes = Bytes::ZERO;
            let mut oldest = SimTime::MAX;
            for &job in queue.iter().take(take) {
                bytes += self.jobs[job].work.bytes();
                oldest = oldest.min(self.requests[self.jobs[job].request].arrival);
            }
            out.push(TapeCandidate {
                tape: TapeId::new(LibraryId(lib as u16), slot as u16),
                queued_jobs: take,
                queued_bytes: bytes,
                oldest_arrival: oldest,
                est_locate,
                est_service: SimTime::from_secs(spec.transfer_time(bytes)),
            });
        }
    }

    /// Puts every idle drive of `lib` to work: serve already-mounted
    /// tapes first (free batches), then let the policy pick tapes to
    /// fetch onto idle switch drives.
    fn try_dispatch(&mut self, lib: usize, now: SimTime, sched: &mut Scheduler<Ev>) {
        self.reap_failures(lib, now);
        let d = self.cfg.library.drives as usize;
        // Free batches: an idle drive already holding a tape with queued
        // jobs serves them without any exchange.
        for bay in 0..d {
            let idx = lib * d + bay;
            if self.busy[idx] || self.dead[idx] {
                continue;
            }
            if let Some(tape) = self.mounted[idx] {
                if !self.pending[self.cfg.tape_index(tape)].jobs.is_empty() {
                    self.start_batch(idx, tape, now, sched);
                }
            }
        }
        // Exchanges: repeatedly pick the cheapest idle switch drive (the
        // per-request engine's victim order) and ask the policy which
        // tape to fetch onto it. Drives whose imminent failure would cut
        // an exchange short are blocked for this dispatch round.
        // `try_dispatch` never re-enters itself, so the member scratch is
        // free here; clearing a per-drive bool vector beats rebuilding a
        // `BTreeSet` every round.
        self.blocked.fill(false);
        loop {
            let Some(drive) = self.switch_policy.pick_victim(
                self.cfg,
                self.placement,
                LibraryId(lib as u16),
                &self.mounted,
                |idx| self.busy[idx] || self.dead[idx] || self.blocked[idx],
            ) else {
                return;
            };
            let fail_at = self.clock.drive_fail_at(drive);
            if fail_at < SimTime::MAX {
                // The exchange (and the mount it produces) must complete
                // strictly before the drive dies to be worth starting.
                let (rewind_s, exchange_s) = self.switch_cost(drive);
                let exchange = SimTime::from_secs(exchange_s);
                let rewind_done = now + SimTime::from_secs(rewind_s);
                let at = self.exchange_start(lib, rewind_done, exchange);
                let start = self.robots[lib].earliest_start(at);
                if start + exchange > fail_at {
                    self.blocked[drive] = true;
                    continue;
                }
            }
            let mut cands = std::mem::take(&mut self.cands);
            self.fill_candidates(lib, drive, &mut cands);
            #[cfg(test)]
            oracle::check(self, lib, drive, &cands);
            let choice = if cands.is_empty() {
                None
            } else {
                self.policy.choose(&cands).and_then(|pick| cands.get(pick))
            };
            let tape = choice.map(|cand| cand.tape);
            self.cands = cands;
            let Some(tape) = tape else {
                return;
            };
            let tape_idx = self.cfg.tape_index(tape);
            self.claimed[tape_idx] = true;
            self.refresh_ready(tape_idx);
            self.begin_switch(drive, tape, now, sched);
        }
    }

    /// Terminally resolves a job whose read exhausted its retry budget:
    /// fail over to replica copies on untried tapes when `alternates`
    /// provides one for every extent, otherwise declare the job lost.
    fn resolve_fatal(&mut self, job: usize, now: SimTime, sched: &mut Scheduler<Ev>) {
        let req = self.jobs[job].request;
        let mut tried = self.tried.get(&job).cloned().unwrap_or_default();
        tried.push(self.jobs[job].work.tape);

        let mut alt_objects = Vec::with_capacity(self.jobs[job].work.extents.len());
        let mut resolvable = true;
        for e in &self.jobs[job].work.extents {
            let replica = self.alternates.get(&e.object).and_then(|alts| {
                alts.iter()
                    .copied()
                    .find(|&o| !tried.contains(&self.placement.locate(o).tape))
            });
            match replica {
                Some(o) => alt_objects.push(o),
                None => {
                    resolvable = false;
                    break;
                }
            }
        }

        self.outstanding_jobs -= 1;
        self.requests[req].outstanding -= 1;
        if resolvable {
            let replacement_work = tape_jobs(self.placement, &alt_objects);
            self.libs_hit.fill(false);
            let mut first_replacement = None;
            for tj in replacement_work {
                let new_job = self.jobs.len();
                first_replacement.get_or_insert(new_job);
                let tape = tj.tape;
                self.audit.emit(
                    now,
                    TraceEvent::JobSubmitted {
                        job: new_job as u32,
                        tape: tape.into(),
                    },
                );
                let bytes = tj.bytes();
                self.jobs.push(JobState {
                    request: req,
                    work: Cow::Owned(tj),
                    fatal: false,
                });
                self.tried.insert(new_job, tried.clone());
                let tape_idx = self.cfg.tape_index(tape);
                let arrival = self.requests[req].arrival;
                #[cfg(test)]
                oracle::note_requeue(self, tape_idx, arrival);
                self.pending[tape_idx].push_back(new_job, bytes, arrival);
                self.refresh_ready(tape_idx);
                self.outstanding_jobs += 1;
                self.requests[req].outstanding += 1;
                self.failovers_n += 1;
                self.libs_hit[tape.library.idx()] = true;
            }
            // One FailedOver per fatal job (the auditor counts a second
            // resolution as a double completion); extra replacement jobs
            // are covered by their JobSubmitted events.
            if let Some(replacement) = first_replacement {
                self.audit.emit(
                    now,
                    TraceEvent::FailedOver {
                        job: job as u32,
                        replacement: replacement as u32,
                    },
                );
            }
            for lib in 0..self.libs_hit.len() {
                if self.libs_hit[lib] {
                    self.try_dispatch(lib, now, sched);
                }
            }
        } else {
            self.audit
                .emit(now, TraceEvent::JobLost { job: job as u32 });
            self.requests[req].lost = true;
        }
        if self.requests[req].outstanding == 0 {
            if self.requests[req].lost {
                self.lost_requests += 1;
                self.lost_log.push(self.requests[req].index);
            } else {
                let r = &self.requests[req];
                self.records.push(RequestRecord {
                    request: r.index,
                    arrival: r.arrival,
                    first_start: r.first_start.unwrap_or(r.arrival),
                    finish: now,
                });
            }
        }
    }
}

impl World for SchedSim<'_> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        self.event_class = match ev {
            Ev::Arrive(_) => ARRIVAL_PRIORITY as i8,
            _ => 0,
        };
        match ev {
            Ev::Arrive(i) => {
                let i = i as usize;
                let (arrival, ridx) = self.arrivals[i];
                // Copy the catalog reference out of `self` so borrowing a
                // request's jobs does not pin `self` for the whole arm.
                let catalog = self.job_catalog;
                let work = &catalog[ridx];
                if work.is_empty() {
                    // Nothing to stream: served instantaneously.
                    self.records.push(RequestRecord {
                        request: i,
                        arrival,
                        first_start: arrival,
                        finish: arrival,
                    });
                    return;
                }
                let req = self.requests.len();
                self.requests.push(ReqState {
                    index: i,
                    arrival,
                    outstanding: work.len(),
                    first_start: None,
                    first_plan: None,
                    lost: false,
                });
                self.libs_hit.fill(false);
                for tj in work {
                    let job = self.jobs.len();
                    let tape = tj.tape;
                    self.audit.emit(
                        now,
                        TraceEvent::JobSubmitted {
                            job: job as u32,
                            tape: tape.into(),
                        },
                    );
                    self.jobs.push(JobState {
                        request: req,
                        work: Cow::Borrowed(tj),
                        fatal: false,
                    });
                    let tape_idx = self.cfg.tape_index(tape);
                    self.pending[tape_idx].push_back(job, tj.bytes(), arrival);
                    self.refresh_ready(tape_idx);
                    self.outstanding_jobs += 1;
                    self.libs_hit[tape.library.idx()] = true;
                }
                for lib in 0..self.libs_hit.len() {
                    if self.libs_hit[lib] {
                        self.try_dispatch(lib, now, sched);
                    }
                }
            }
            Ev::SwitchDone { drive, tape } => {
                let drive = drive as usize;
                let tape_idx = self.cfg.tape_index(tape);
                self.mounted[drive] = Some(tape);
                self.holder[tape_idx] = Some(drive as u32);
                self.head[drive] = Bytes::ZERO;
                self.claimed[tape_idx] = false;
                self.refresh_ready(tape_idx);
                self.audit.emit(
                    now,
                    TraceEvent::Mounted {
                        drive: self.cfg.drive_at(drive).into(),
                        tape: tape.into(),
                    },
                );
                self.busy[drive] = false;
                if !self.dead[drive] && self.clock.drive_fail_at(drive) <= now {
                    // The drive died exactly as the exchange completed
                    // (the dispatch pre-check rules out anything later):
                    // recover the tape for a surviving drive.
                    let lib = self.cfg.drive_at(drive).library.idx();
                    self.try_dispatch(lib, now, sched);
                    return;
                }
                if !self.pending[tape_idx].jobs.is_empty() {
                    self.start_batch(drive, tape, now, sched);
                } else {
                    // The queue drained while the exchange ran (possible
                    // only with a batch cap); re-dispatch the drive.
                    let lib = self.cfg.drive_at(drive).library.idx();
                    self.try_dispatch(lib, now, sched);
                }
            }
            Ev::JobDone { drive, job } => {
                let (drive, job) = (drive as usize, job as usize);
                if self.jobs[job].fatal {
                    self.resolve_fatal(job, now, sched);
                    return;
                }
                self.audit.emit(
                    now,
                    TraceEvent::JobCompleted {
                        job: job as u32,
                        drive: self.cfg.drive_at(drive).into(),
                    },
                );
                self.outstanding_jobs -= 1;
                let req = self.jobs[job].request;
                self.requests[req].outstanding -= 1;
                if self.requests[req].outstanding == 0 {
                    if self.requests[req].lost {
                        self.lost_requests += 1;
                        self.lost_log.push(self.requests[req].index);
                    } else {
                        let r = &self.requests[req];
                        self.records.push(RequestRecord {
                            request: r.index,
                            arrival: r.arrival,
                            first_start: r.first_start.unwrap_or(r.arrival),
                            finish: now,
                        });
                    }
                }
            }
            Ev::BatchDone { drive } => {
                let drive = drive as usize;
                self.busy[drive] = false;
                let lib = self.cfg.drive_at(drive).library.idx();
                self.try_dispatch(lib, now, sched);
            }
        }
    }
}

/// Priority class of arrival events. Strictly below the default class
/// (0) every runtime event uses, so an arrival stamped at `t` always
/// fires before same-instant service events regardless of insertion
/// order. The batch gear pre-schedules all arrivals (lowest sequence
/// numbers — they won those ties already); pinning the class instead
/// makes the order insertion-independent, which is what lets the
/// incremental [`ShardEngine`] interleave submissions with event
/// processing and still replay the batch gear bit for bit.
const ARRIVAL_PRIORITY: i32 = -1;

/// Everything one drained [`ShardEngine`] knows at shutdown: the run
/// outcome plus the raw per-request ledger a collector needs to join
/// shard-local completions back to global submissions.
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// Metrics, audit reports and optional time budget — exactly what
    /// the batch [`run_scheduled`] entry returns for the same stream.
    pub outcome: SchedOutcome,
    /// Per-request completion records in engine completion order
    /// (nondecreasing finish time), each tagged with its submission
    /// index ([`RequestRecord::request`]).
    pub records: Vec<RequestRecord>,
    /// Submission indices of terminally lost requests. Together with
    /// `records` this partitions the accepted submissions: every index
    /// in `0..submitted` appears in exactly one of the two.
    pub lost: Vec<usize>,
    /// Submissions accepted before [`ShardEngine::close`].
    pub submitted: usize,
    /// Submissions rejected after [`ShardEngine::close`].
    pub rejected: u64,
    /// The virtual instant the shard's event queue drained.
    pub end: SimTime,
    /// Order-sensitive operation logs for the parallel merge. Present
    /// only when [`ShardEngine::enable_merge_log`] was called; `None`
    /// in every single-engine and serve path.
    pub merge: Option<MergeOps>,
}

/// The order-sensitive operations a partition performed, each tagged
/// with the [`OpKey`] placing it in the monolithic event order. The
/// parallel merge k-way-merges these across partitions to reproduce the
/// single engine's float fold order bit for bit (see `crate::parallel`).
#[derive(Debug, Clone, Default)]
pub struct MergeOps {
    /// Busy-time deltas in partition event order (already sorted by key
    /// within a partition).
    pub busy: Vec<(OpKey, SimTime)>,
    /// Per local submission index: the key of the planning event that
    /// set the request's `first_start`. Requests served without planning
    /// (empty local work) have no entry.
    pub first_plans: Vec<(usize, OpKey)>,
}

/// A consistent cut of a [`ShardEngine`]'s input: everything needed to
/// rebuild the engine's exact state by deterministic replay.
///
/// The engine's whole state is a pure function of its construction
/// inputs plus the submission sequence (see the determinism notes on
/// [`ShardEngine`]), so the checkpoint *is* the submission log — no
/// event queue, no mount state, no accumulators need serialising.
/// [`ShardEngine::restore`] replays it through a fresh engine and lands
/// on bit-identical records, metrics and audit state. This is what lets
/// the serve supervisor restart a crashed shard from `(seed, shards,
/// checkpoint)` and provably converge with an uncrashed run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCheckpoint {
    /// Accepted submissions in order: `(arrival, request rank)`.
    arrivals: Vec<(SimTime, usize)>,
    /// Highest watermark pumped; replay pumps back to it.
    watermark: SimTime,
}

impl EngineCheckpoint {
    /// Builds a checkpoint from an externally kept submission log (the
    /// serve supervisor's per-shard log), pumped through the last
    /// arrival instant — exactly the state of an engine that was fed
    /// `submit(at, rank); pump(at)` per entry.
    pub fn from_arrivals(arrivals: Vec<(SimTime, usize)>) -> EngineCheckpoint {
        let watermark = arrivals.last().map_or(SimTime::ZERO, |&(at, _)| at);
        EngineCheckpoint {
            arrivals,
            watermark,
        }
    }

    /// The logged submissions, in acceptance order.
    pub fn arrivals(&self) -> &[(SimTime, usize)] {
        &self.arrivals
    }

    /// Number of logged submissions.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the checkpoint is empty (a fresh engine).
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }
}

/// The concurrent scheduling engine as a long-lived, incrementally-fed
/// actor: the shard-safe entry point the `tapesim-serve` runtime wraps
/// one-per-library-shard, and the core the batch [`run_scheduled`] gear
/// is expressed on top of (submit everything, then finish).
///
/// Lifecycle: [`ShardEngine::submit`] admissions (strictly increasing
/// arrival times), [`ShardEngine::pump`] the virtual clock forward after
/// each, [`ShardEngine::close`] to stop admissions (late submissions are
/// rejected, in-flight batches still complete), [`ShardEngine::finish`]
/// to drain, sweep stranded jobs and produce the [`ShardReport`].
///
/// # Determinism
///
/// Feeding the same `(arrival, request)` sequence produces bit-identical
/// results no matter how submissions interleave with pumping: arrivals
/// occupy their own event-priority class (see `ARRIVAL_PRIORITY`), and
/// [`ShardEngine::pump`]'s watermark never runs past the last submitted
/// arrival instant, so a later submission can never land behind the
/// clock. `submit → pump(at) → submit → …` therefore replays
/// `submit-all → finish` exactly — pinned by the engine tests and the
/// serve-vs-batch equivalence tests.
pub struct ShardEngine<'a> {
    world: SchedSim<'a>,
    sched: Scheduler<Ev>,
    closed: bool,
    rejected: u64,
    watermark: SimTime,
}

impl<'a> ShardEngine<'a> {
    /// Builds an idle engine over `sim`'s mount state. `job_catalog`
    /// maps workload-request ranks to their per-tape jobs — for a
    /// library shard, pre-filtered to the tapes the shard owns (an empty
    /// entry serves instantaneously). The simulator is never mutated.
    pub fn new(
        sim: &'a Simulator,
        policy: &'a dyn SchedPolicy,
        cfg: &SchedConfig,
        plan: &'a FaultPlan,
        alternates: &'a BTreeMap<ObjectId, Vec<ObjectId>>,
        job_catalog: &'a [Vec<TapeJob>],
    ) -> ShardEngine<'a> {
        ShardEngine::new_owned(sim, policy, cfg, plan, alternates, job_catalog, None)
    }

    /// [`ShardEngine::new`] for a single-library partition: the trace
    /// prologue (carried-over mounts) covers only `owned`'s drives, so
    /// the per-partition traces of a parallel run concatenate to exactly
    /// the monolithic trace — same entry counts, same audit verdicts.
    /// `None` keeps the full-fleet prologue.
    pub(crate) fn new_owned(
        sim: &'a Simulator,
        policy: &'a dyn SchedPolicy,
        cfg: &SchedConfig,
        plan: &'a FaultPlan,
        alternates: &'a BTreeMap<ObjectId, Vec<ObjectId>>,
        job_catalog: &'a [Vec<TapeJob>],
        owned: Option<usize>,
    ) -> ShardEngine<'a> {
        let placement = sim.placement();
        let system = placement.config();
        let n_drives = system.total_drives();
        let n_libs = system.libraries as usize;
        let d = system.library.drives as usize;
        let switch_policy = sim.policy();
        let switch_m: Vec<usize> = (0..n_libs)
            .map(|lib| {
                (0..d)
                    .filter(|&bay| {
                        let id = DriveId::new(LibraryId(lib as u16), bay as u8);
                        switch_policy.is_switch_drive(id, system)
                    })
                    .count()
            })
            .collect();

        // Snapshot only the two mount-state fields dispatch reads (and a
        // reverse index over them) instead of cloning the whole
        // `MountState`.
        let n_tapes = system.total_tapes();
        let mounted: Vec<Option<TapeId>> = sim.state().mounted.clone();
        let head: Vec<Bytes> = sim.state().head.clone();
        let mut holder: Vec<Option<u32>> = vec![None; n_tapes];
        for (drive, slot) in mounted.iter().enumerate() {
            if let Some(tape) = slot {
                holder[system.tape_index(*tape)] = Some(drive as u32);
            }
        }

        let auditor = TraceAuditor::new().with_retry_cap(plan.spec().max_retries);
        let mut world = SchedSim {
            cfg: system,
            placement,
            policy,
            switch_policy,
            batch_cap: cfg.max_batch,
            seek: cfg.seek,
            arrivals: Vec::new(),
            job_catalog,
            mounted,
            head,
            holder,
            busy: vec![false; n_drives],
            robots: vec![Resource::new(system.library.robot.arms.max(1) as usize); n_libs],
            jobs: Vec::new(),
            tried: BTreeMap::new(),
            requests: Vec::new(),
            pending: vec![TapeQueue::default(); n_tapes],
            claimed: vec![false; n_tapes],
            ready: vec![0; n_tapes.div_ceil(64)],
            outstanding_jobs: 0,
            mounts: 0,
            busy_time: SimTime::ZERO,
            records: Vec::new(),
            audit: Tap::new(cfg, &auditor, system),
            clock: plan.clock(),
            alternates,
            dead: vec![false; n_drives],
            failed: vec![0; n_libs],
            switch_m,
            retries: 0,
            failovers_n: 0,
            lost_requests: 0,
            lost_log: Vec::new(),
            blocked: vec![false; n_drives],
            libs_hit: vec![false; n_libs],
            cands: Vec::new(),
            plan_scratch: Vec::new(),
            event_class: 0,
            busy_log: None,
        };

        // Trace prologue: carried-over mounts, so the transcript is
        // self-contained for the auditor.
        for drive in 0..n_drives {
            if owned.is_some_and(|lib| drive / d != lib) {
                continue;
            }
            if let Some(tape) = world.mounted[drive] {
                world.audit.emit(
                    SimTime::ZERO,
                    TraceEvent::AssumeMounted {
                        drive: world.cfg.drive_at(drive).into(),
                        tape: tape.into(),
                    },
                );
            }
        }
        // ... and the plan's jam windows, known up front, so the auditor
        // can check exchanges against them.
        for lib in 0..n_libs {
            for &(start, finish) in world.clock.jams(lib) {
                world.audit.emit(
                    SimTime::ZERO,
                    TraceEvent::RobotJammed {
                        library: lib as u32,
                        start,
                        finish,
                    },
                );
            }
        }

        ShardEngine {
            world,
            sched: Scheduler::new(),
            closed: false,
            rejected: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// Rebuilds an engine from a [`EngineCheckpoint`] by replaying its
    /// submission log through a fresh engine: bit-identical state to
    /// the engine the checkpoint was cut from (same records, metrics,
    /// audit transcript — pinned by tests). Construction arguments must
    /// match the original engine's.
    #[allow(clippy::too_many_arguments)]
    pub fn restore(
        sim: &'a Simulator,
        policy: &'a dyn SchedPolicy,
        cfg: &SchedConfig,
        plan: &'a FaultPlan,
        alternates: &'a BTreeMap<ObjectId, Vec<ObjectId>>,
        job_catalog: &'a [Vec<TapeJob>],
        checkpoint: &EngineCheckpoint,
    ) -> ShardEngine<'a> {
        let mut engine = ShardEngine::new(sim, policy, cfg, plan, alternates, job_catalog);
        for &(at, rank) in &checkpoint.arrivals {
            engine.submit(at, rank);
        }
        engine.pump(checkpoint.watermark);
        engine
    }

    /// Cuts a checkpoint of everything submitted and pumped so far.
    /// Cheap (clones the submission log) and valid at any quiescent
    /// point. The serve supervisor does not call it: it rebuilds each
    /// restart's checkpoint from its own submission log with
    /// [`EngineCheckpoint::from_arrivals`].
    pub fn checkpoint(&self) -> EngineCheckpoint {
        EngineCheckpoint {
            arrivals: self.world.arrivals.clone(),
            watermark: self.watermark,
        }
    }

    /// Admits one request: `at` is its arrival instant (submissions must
    /// come in nondecreasing arrival order, and `at` must not precede a
    /// watermark already pumped past), `request` its rank in the job
    /// catalog. Returns whether the submission was accepted — after
    /// [`ShardEngine::close`] it is rejected and only counted.
    pub fn submit(&mut self, at: SimTime, request: usize) -> bool {
        if self.closed {
            self.rejected += 1;
            return false;
        }
        let i = self.world.arrivals.len();
        self.world.arrivals.push((at, request));
        self.sched
            .schedule_at_with_priority(at, ARRIVAL_PRIORITY, Ev::Arrive(i as u32));
        true
    }

    /// Processes every event stamped `<= watermark`. Safe — i.e. order
    /// preserving — whenever `watermark` does not exceed the last
    /// submitted arrival instant: arrival gaps are strictly positive, so
    /// no future submission can be stamped at or before it.
    pub fn pump(&mut self, watermark: SimTime) {
        self.watermark = self.watermark.max(watermark);
        self.sched.run_bounded(&mut self.world, watermark, u64::MAX);
    }

    /// Stops admissions: subsequent [`ShardEngine::submit`] calls are
    /// rejected (and counted), while everything already admitted — queued
    /// or in flight — still runs to completion in [`ShardEngine::finish`].
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Whether [`ShardEngine::close`] was called.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Turns on the order-sensitive operation log consumed by the
    /// parallel merge; [`ShardEngine::finish`] will then carry
    /// [`MergeOps`] in its report. Call before the first submission —
    /// deltas performed earlier are not recorded.
    pub fn enable_merge_log(&mut self) {
        self.world.busy_log.get_or_insert_with(Vec::new);
    }

    /// Submissions accepted so far.
    pub fn submitted(&self) -> usize {
        self.world.arrivals.len()
    }

    /// Submissions rejected after close.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Requests fully served so far.
    pub fn served_so_far(&self) -> u64 {
        self.world.records.len() as u64
    }

    /// Completion records so far, in completion order (nondecreasing
    /// finish time). Grows monotonically — live observers can consume
    /// the suffix they have not seen yet.
    pub fn records(&self) -> &[RequestRecord] {
        &self.world.records
    }

    /// Requests terminally lost so far.
    pub fn lost_so_far(&self) -> u64 {
        self.world.lost_requests
    }

    /// Jobs admitted but not yet completed.
    pub fn outstanding_jobs(&self) -> usize {
        self.world.outstanding_jobs
    }

    /// Tape exchanges performed so far.
    pub fn mounts_so_far(&self) -> u64 {
        self.world.mounts
    }

    /// DES events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.sched.events_processed()
    }

    /// The engine's virtual clock (time of the last dispatched event).
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Drains the event queue, surfaces unnoticed drive failures, sweeps
    /// stranded jobs into counted losses, and closes the books: metrics,
    /// audit reports, time budget and the submission ledger.
    pub fn finish(self) -> ShardReport {
        let ShardEngine {
            mut world,
            mut sched,
            rejected,
            ..
        } = self;
        let n_drives = world.cfg.total_drives();
        let end = sched.run(&mut world);

        // Failures nobody dispatched past go unnoticed by the event
        // loop; surface them now so the trace blames stranded jobs on
        // something.
        for drive in 0..n_drives {
            let fail_at = world.clock.drive_fail_at(drive);
            if !world.dead[drive] && fail_at < SimTime::MAX {
                world.dead[drive] = true;
                world.audit.emit(
                    end,
                    TraceEvent::DriveFailed {
                        drive: world.cfg.drive_at(drive).into(),
                        at: fail_at,
                    },
                );
            }
        }
        // Jobs still queued when the system ran out of feasible drives
        // are terminal losses, never a hang.
        // Dense queues in ascending tape-index order — the same job
        // order the old `BTreeMap::values()` flatten produced.
        let stranded: Vec<usize> = world
            .pending
            .iter()
            .flat_map(|queue| queue.jobs.iter().copied())
            .collect();
        for job in stranded {
            world
                .audit
                .emit(end, TraceEvent::JobLost { job: job as u32 });
            world.outstanding_jobs -= 1;
            let req = world.jobs[job].request;
            world.requests[req].outstanding -= 1;
            world.requests[req].lost = true;
            if world.requests[req].outstanding == 0 {
                world.lost_requests += 1;
                world.lost_log.push(world.requests[req].index);
            }
        }
        for queue in &mut world.pending {
            *queue = TapeQueue::default();
        }
        assert_eq!(
            world.outstanding_jobs, 0,
            "scheduler drained with unserved jobs — no eligible switch drive \
             exists; check the policy/config (m >= 1 guarantees progress)"
        );
        debug_assert_eq!(
            world.records.len() + world.lost_requests as usize,
            world.arrivals.len()
        );

        let mut metrics = SchedMetrics::new(n_drives as u32);
        for r in &world.records {
            metrics.record(r);
            if world.clock.degraded_at(r.arrival) {
                metrics.record_degraded_sojourn(r);
            }
        }
        metrics.add_mounts(world.mounts);
        metrics.add_busy_time(world.busy_time);
        let first = world.arrivals.first().map_or(SimTime::ZERO, |&(at, _)| at);
        metrics.set_horizon_time(end.saturating_sub(first));
        metrics.set_events(sched.events_processed());
        metrics.add_retries(world.retries);
        metrics.add_failovers(world.failovers_n);
        metrics.add_lost(world.lost_requests);
        if !world.clock.is_zero() {
            let span = end.saturating_sub(first);
            let mut healthy = SimTime::ZERO;
            for drive in 0..n_drives {
                let alive_until = world.clock.drive_fail_at(drive).min(end).max(first);
                healthy += alive_until.saturating_sub(first);
            }
            metrics.set_availability(healthy, span);
        }

        let submitted = world.arrivals.len();
        let merge = world.busy_log.take().map(|busy| MergeOps {
            busy,
            first_plans: world
                .requests
                .iter()
                .filter_map(|r| r.first_plan.map(|k| (r.index, k)))
                .collect(),
        });
        let (reports, budget) = world.audit.finish(end);
        ShardReport {
            outcome: SchedOutcome {
                metrics,
                reports,
                budget,
            },
            records: world.records,
            lost: world.lost_log,
            submitted,
            rejected,
            end,
            merge,
        }
    }
}

/// The concurrent shared-queue gear: the batch entry, re-expressed as
/// "submit the whole demand stream, then finish" on the incremental
/// [`ShardEngine`]. Runs on a snapshot of `sim`'s mount state; the
/// simulator itself is not mutated.
fn run_concurrent(
    sim: &Simulator,
    workload: &Workload,
    policy: &dyn SchedPolicy,
    cfg: &SchedConfig,
    plan: &FaultPlan,
    alternates: &BTreeMap<ObjectId, Vec<ObjectId>>,
) -> SchedOutcome {
    let placement = sim.placement();
    // Group every distinct request's objects into tape jobs once; the
    // arrival stream samples the same request ranks repeatedly, and the
    // grouping is a pure function of (placement, request).
    let job_catalog: Vec<Vec<TapeJob>> = workload
        .requests()
        .iter()
        .map(|r| tape_jobs(placement, &r.objects))
        .collect();

    // The same demand stream the sequential gear draws.
    let mut stream = RequestStream::new(cfg.arrivals, workload);
    let mut engine = ShardEngine::new(sim, policy, cfg, plan, alternates, &job_catalog);
    // Pump behind the submissions, so the heap holds the service events
    // in flight rather than every future arrival: a whole pre-scheduled
    // stream makes each push and pop walk a far deeper heap. Pumping to
    // the previous arrival once a strictly later one is drawn keeps the
    // event order of submitting everything up front.
    let mut last: Option<SimTime> = None;
    for _ in 0..cfg.samples {
        let (at, ridx) = stream.next_request();
        let at = SimTime::from_secs(at);
        if let Some(prev) = last.filter(|&prev| prev < at) {
            engine.pump(prev);
        }
        engine.submit(at, ridx);
        last = Some(at);
    }
    engine.finish().outcome
}

/// The dispatch-index oracle: every test build compares the indexed
/// candidate list against the slot walk at every exchange dispatch.
#[cfg(test)]
mod oracle {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Dispatches checked on this thread, so tests can tell the
        /// comparison actually ran.
        pub(super) static CHECKS: Cell<u64> = const { Cell::new(0) };
        /// Failover jobs queued behind a job of a later request, the case
        /// that makes a queue's front not its oldest arrival.
        pub(super) static REQUEUED_OLDER: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn note_requeue(world: &SchedSim<'_>, tape_idx: usize, arrival: SimTime) {
        let back = world.pending[tape_idx]
            .jobs
            .back()
            .map(|&job| world.requests[world.jobs[job].request].arrival);
        if back.is_some_and(|back| arrival < back) {
            REQUEUED_OLDER.with(|c| c.set(c.get() + 1));
        }
    }

    /// Every candidate field, times as raw bits.
    type CandidateBits = (TapeId, usize, Bytes, u64, u64, u64);

    fn bits(c: &TapeCandidate) -> CandidateBits {
        (
            c.tape,
            c.queued_jobs,
            c.queued_bytes,
            c.oldest_arrival.as_secs().to_bits(),
            c.est_locate.as_secs().to_bits(),
            c.est_service.as_secs().to_bits(),
        )
    }

    pub(super) fn check(world: &SchedSim<'_>, lib: usize, drive: usize, got: &[TapeCandidate]) {
        let mut expected = Vec::new();
        world.fill_candidates_oracle(lib, drive, &mut expected);
        let got: Vec<CandidateBits> = got.iter().map(bits).collect();
        let expected: Vec<CandidateBits> = expected.iter().map(bits).collect();
        assert_eq!(
            got, expected,
            "indexed candidates diverge from the slot walk"
        );
        CHECKS.with(|c| c.set(c.get() + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BatchByTape, Fcfs, SltfTape};
    use tapesim_model::specs::paper_table1;
    use tapesim_model::Bytes;
    use tapesim_placement::{ParallelBatchPlacement, PlacementPolicy};
    use tapesim_workload::{ObjectSizeSpec, RequestSpec, WorkloadSpec};

    fn setup() -> (Simulator, Workload) {
        let w = WorkloadSpec {
            objects: 2_000,
            sizes: ObjectSizeSpec::default().calibrated(Bytes::gb(4)),
            requests: RequestSpec {
                count: 50,
                min_objects: 15,
                max_objects: 25,
                count_shape: 1.0,
                alpha: 0.3,
            },
            seed: 31,
        }
        .generate();
        let cfg = paper_table1();
        let p = ParallelBatchPlacement::with_m(4).place(&w, &cfg).unwrap();
        (Simulator::with_natural_policy(p, 4), w)
    }

    /// A workload whose requested working set overflows the initially
    /// mounted capacity, so runs actually exchange tapes. The light
    /// [`setup`] fixture stays all-mounted (zero switches) by design —
    /// popular objects land on the always-mounted batch — which would
    /// make coalescing and exchange-audit tests vacuous.
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

    #[test]
    fn checkpoint_restore_replays_bit_identically() {
        let spec = ArrivalSpec {
            per_hour: 20.0,
            seed: 11,
        };
        let (sim, w) = heavy_setup();
        let cfg = SchedConfig::new(spec, 40).with_audit(true);
        let plan = FaultPlan::zero(sim.placement().config());
        let alternates = BTreeMap::new();
        let catalog: Vec<Vec<TapeJob>> = w
            .requests()
            .iter()
            .map(|r| tape_jobs(sim.placement(), &r.objects))
            .collect();
        let policy = BatchByTape;
        let mut stream = RequestStream::new(spec, &w);
        let draws: Vec<(SimTime, usize)> = (0..40)
            .map(|_| {
                let (at, r) = stream.next_request();
                (SimTime::from_secs(at), r)
            })
            .collect();

        // The uncrashed reference: submit/pump the whole stream.
        let mut continuous = ShardEngine::new(&sim, &policy, &cfg, &plan, &alternates, &catalog);
        for &(at, r) in &draws {
            continuous.submit(at, r);
            continuous.pump(at);
        }
        let base = continuous.finish();

        // Crash after 17 submissions, restore from the checkpoint, feed
        // the remainder: every book must close on the same bits.
        let mut first = ShardEngine::new(&sim, &policy, &cfg, &plan, &alternates, &catalog);
        for &(at, r) in draws.iter().take(17) {
            first.submit(at, r);
            first.pump(at);
        }
        let ckpt = first.checkpoint();
        assert_eq!(ckpt.len(), 17);
        assert!(!ckpt.is_empty());
        drop(first); // the "crash": engine state is gone, checkpoint survives

        let mut restored =
            ShardEngine::restore(&sim, &policy, &cfg, &plan, &alternates, &catalog, &ckpt);
        assert_eq!(restored.submitted(), 17);
        for &(at, r) in draws.iter().skip(17) {
            restored.submit(at, r);
            restored.pump(at);
        }
        let redo = restored.finish();

        assert_eq!(base.records, redo.records);
        assert_eq!(base.submitted, redo.submitted);
        assert_eq!(base.lost, redo.lost);
        assert_eq!(base.end, redo.end);
        assert_eq!(
            base.outcome.metrics.avg_sojourn().to_bits(),
            redo.outcome.metrics.avg_sojourn().to_bits()
        );
        assert_eq!(
            base.outcome.metrics.avg_wait().to_bits(),
            redo.outcome.metrics.avg_wait().to_bits()
        );
        assert_eq!(base.outcome.metrics.mounts(), redo.outcome.metrics.mounts());
        assert_eq!(base.outcome.metrics.events(), redo.outcome.metrics.events());
        assert_eq!(base.outcome.reports.len(), redo.outcome.reports.len());
        assert!(redo.outcome.is_clean());

        // The supervisor's log-built checkpoint is the engine-cut one.
        let log: Vec<(SimTime, usize)> = draws.iter().take(17).copied().collect();
        assert_eq!(EngineCheckpoint::from_arrivals(log), ckpt);
    }

    /// The sequential gear reproduces the retired single-server queue
    /// loop bit for bit. The constants are that loop's metric bits on
    /// this fixture, recorded before it was folded into this gear.
    #[test]
    fn fcfs_reproduces_legacy_queue_bit_for_bit() {
        let spec = ArrivalSpec {
            per_hour: 6.0,
            seed: 9,
        };
        let (mut sim, w) = setup();
        let out = run_scheduled(&mut sim, &w, &Fcfs, &SchedConfig::new(spec, 25));
        let m = &out.metrics;
        assert_eq!(m.served(), 25);
        assert_eq!(m.avg_wait().to_bits(), 0x4078102b7c54c9d1);
        assert_eq!(m.avg_service().to_bits(), 0x4078b5ca2d0ccbcd);
        assert_eq!(m.avg_sojourn().to_bits(), 0x408862fad4b0cace);
        assert_eq!(m.utilisation().to_bits(), 0x3fe832ee47597f46);
        assert!(
            m.events() > 0,
            "sequential gear must report the per-request engine's summed \
             DES events, not 0"
        );
    }

    /// One request a week — the paper's §6 regime: nobody ever waits.
    #[test]
    fn sparse_arrivals_never_wait() {
        let spec = ArrivalSpec {
            per_hour: 1.0 / 168.0,
            seed: 1,
        };
        let (mut sim, w) = setup();
        let m = run_scheduled(&mut sim, &w, &Fcfs, &SchedConfig::new(spec, 30)).metrics;
        assert_eq!(m.served(), 30);
        assert!(
            m.avg_wait() < 1e-9,
            "wait {} in the sparse regime",
            m.avg_wait()
        );
        assert!((m.avg_sojourn() - m.avg_service()).abs() < 1e-9);
        assert!(m.utilisation() < 0.1);
    }

    /// Services take hundreds of seconds; 30 arrivals an hour is one
    /// every two minutes, so the queue must build.
    #[test]
    fn dense_arrivals_queue_up() {
        let spec = ArrivalSpec {
            per_hour: 30.0,
            seed: 1,
        };
        let (mut sim, w) = setup();
        let m = run_scheduled(&mut sim, &w, &Fcfs, &SchedConfig::new(spec, 30)).metrics;
        assert!(m.avg_wait() > m.avg_service(), "no queueing at high load");
        assert!(m.avg_sojourn() > m.avg_wait());
        assert!(m.utilisation() > 0.8);
    }

    #[test]
    fn wait_grows_with_arrival_rate() {
        let waits: Vec<f64> = [2.0, 6.0, 18.0]
            .iter()
            .map(|&per_hour| {
                let spec = ArrivalSpec { per_hour, seed: 5 };
                let (mut sim, w) = setup();
                run_scheduled(&mut sim, &w, &Fcfs, &SchedConfig::new(spec, 40))
                    .metrics
                    .avg_wait()
            })
            .collect();
        assert!(
            waits[0] <= waits[1] && waits[1] <= waits[2],
            "waits not monotone in load: {waits:?}"
        );
    }

    #[test]
    fn fcfs_audits_clean() {
        let spec = ArrivalSpec {
            per_hour: 6.0,
            seed: 2,
        };
        let (mut sim, w) = setup();
        let out = run_scheduled(
            &mut sim,
            &w,
            &Fcfs,
            &SchedConfig::new(spec, 10).with_audit(true),
        );
        assert_eq!(out.reports.len(), 10, "one audit per request");
        assert!(out.is_clean(), "{:?}", out.reports);
    }

    #[test]
    fn concurrent_serves_everything_and_audits_clean() {
        let spec = ArrivalSpec {
            per_hour: 20.0,
            seed: 7,
        };
        let (mut sim, w) = setup();
        let out = run_scheduled(
            &mut sim,
            &w,
            &BatchByTape,
            &SchedConfig::new(spec, 40).with_audit(true),
        );
        assert_eq!(out.metrics.served(), 40);
        assert_eq!(out.reports.len(), 1, "one audit for the whole run");
        assert!(out.is_clean(), "{}", out.reports[0]);
        assert!(out.metrics.events() > 0);
        assert!(out.metrics.avg_sojourn() >= out.metrics.avg_wait());
    }

    #[test]
    fn batching_cuts_mounts_in_the_switching_regime() {
        let spec = ArrivalSpec {
            per_hour: 30.0,
            seed: 3,
        };
        let (mut fcfs_sim, w) = heavy_setup();
        let fcfs = run_scheduled(&mut fcfs_sim, &w, &Fcfs, &SchedConfig::new(spec, 25));
        let (mut batch_sim, _) = heavy_setup();
        let batch = run_scheduled(
            &mut batch_sim,
            &w,
            &BatchByTape,
            &SchedConfig::new(spec, 25),
        );
        assert!(
            fcfs.metrics.mounts() > 0,
            "fixture must force tape switches"
        );
        assert!(
            batch.metrics.mounts() < fcfs.metrics.mounts(),
            "batching should cut mounts: {} vs {}",
            batch.metrics.mounts(),
            fcfs.metrics.mounts()
        );
    }

    #[test]
    fn switching_regime_audits_clean_for_every_policy() {
        let spec = ArrivalSpec {
            per_hour: 30.0,
            seed: 3,
        };
        for kind in crate::policy::PolicyKind::ALL {
            let (mut sim, w) = heavy_setup();
            let out = run_scheduled(
                &mut sim,
                &w,
                kind.build().as_ref(),
                &SchedConfig::new(spec, 25).with_audit(true),
            );
            assert_eq!(out.metrics.served(), 25, "{}", kind.label());
            assert!(out.metrics.mounts() > 0, "{}", kind.label());
            assert!(
                out.is_clean(),
                "{}: {:?}",
                kind.label(),
                out.reports.iter().find(|r| !r.is_clean())
            );
        }
    }

    #[test]
    fn concurrent_leaves_simulator_untouched() {
        let spec = ArrivalSpec {
            per_hour: 20.0,
            seed: 3,
        };
        let (mut sim, w) = setup();
        let _ = run_scheduled(&mut sim, &w, &SltfTape, &SchedConfig::new(spec, 10));
        // Compare against a freshly built fixture instead of snapshotting
        // `sim` — the engine must not need a state clone even here.
        let (fresh, _) = setup();
        assert_eq!(sim.state(), fresh.state());
    }

    /// ROADMAP flagged that `sltf` ties `batch` bit-for-bit in
    /// BENCH_sched.json — suspicious for a policy sorting on a
    /// different key. The tie is real and benign: the bench fixture's
    /// popular objects all land on the initially-mounted tapes
    /// (`mounts == 0` in the bench output), so a drive never goes idle
    /// with an *unmounted* tape queued, the tape-selection hook is
    /// never consulted, and every `choose` policy coincides trivially.
    /// This test pins both halves of that claim: the all-mounted
    /// regime ties bit-for-bit, and a regime with tape pressure —
    /// where the requested working set overflows the mounted capacity
    /// and several tapes queue at once — provably reorders service
    /// (shortest locate+service first vs. longest-waiting first) and
    /// diverges in every serve-order-sensitive metric.
    #[test]
    fn sltf_ties_batch_all_mounted_and_diverges_under_tape_pressure() {
        // Bench regime: light fixture, zero exchanges, policies tie.
        let spec = ArrivalSpec {
            per_hour: 24.0,
            seed: 11,
        };
        let (mut bsim, w) = setup();
        let batch = run_scheduled(&mut bsim, &w, &BatchByTape, &SchedConfig::new(spec, 40));
        let (mut ssim, _) = setup();
        let sltf = run_scheduled(&mut ssim, &w, &SltfTape, &SchedConfig::new(spec, 40));
        assert_eq!(
            batch.metrics.mounts(),
            0,
            "light fixture must stay all-mounted or the tie explanation is wrong"
        );
        assert_eq!(batch.metrics.served(), sltf.metrics.served());
        assert_eq!(
            batch.metrics.avg_wait().to_bits(),
            sltf.metrics.avg_wait().to_bits(),
            "with no tape choice to make the policies must tie bit-for-bit"
        );
        assert_eq!(
            batch.metrics.avg_sojourn().to_bits(),
            sltf.metrics.avg_sojourn().to_bits()
        );

        // Tape-pressure regime: backlog with several unmounted tapes
        // queued, so `choose` actually picks — and the keys disagree.
        let spec = ArrivalSpec {
            per_hour: 30.0,
            seed: 3,
        };
        let (mut bsim, w) = heavy_setup();
        let batch = run_scheduled(&mut bsim, &w, &BatchByTape, &SchedConfig::new(spec, 25));
        let (mut ssim, _) = heavy_setup();
        let sltf = run_scheduled(&mut ssim, &w, &SltfTape, &SchedConfig::new(spec, 25));
        assert!(
            batch.metrics.mounts() > 0,
            "pressure fixture must exchange tapes"
        );
        assert_eq!(batch.metrics.served(), sltf.metrics.served());
        assert_ne!(
            batch.metrics.mounts(),
            sltf.metrics.mounts(),
            "shortest-first must re-batch differently than oldest-first"
        );
        assert_ne!(
            batch.metrics.avg_wait().to_bits(),
            sltf.metrics.avg_wait().to_bits(),
            "service reordering must show up in waiting time"
        );
        assert_ne!(
            batch.metrics.avg_sojourn().to_bits(),
            sltf.metrics.avg_sojourn().to_bits()
        );
    }

    #[test]
    fn batch_cap_one_still_serves_everything() {
        let spec = ArrivalSpec {
            per_hour: 25.0,
            seed: 13,
        };
        let (mut sim, w) = setup();
        let out = run_scheduled(
            &mut sim,
            &w,
            &BatchByTape,
            &SchedConfig::new(spec, 20)
                .with_max_batch(1)
                .with_audit(true),
        );
        assert_eq!(out.metrics.served(), 20);
        assert!(out.is_clean(), "{}", out.reports[0]);
    }

    /// Exact pre-fault metric bits, captured on the engine before the
    /// fault subsystem existed (same fixture, `cargo run --example` on
    /// the parent commit). The fault-aware engine must reproduce every
    /// one of them — both through the unchanged [`run_scheduled`] entry
    /// and through [`run_scheduled_faulty`] with a zero plan.
    #[test]
    fn zero_fault_metrics_are_bit_identical_to_pre_fault_engine() {
        let spec = ArrivalSpec {
            per_hour: 30.0,
            seed: 3,
        };
        let pinned: [(&str, u64, u64, u64, u64, u64); 3] = [
            (
                "fcfs",
                98,
                0x40c46b755394e20d,
                0x40c65d08bacc077f,
                0x3ff0000000000000,
                0x40d46038dd49a50f,
            ),
            (
                "batch",
                48,
                0x40529d576cca9eda,
                0x40a2447af328a1cc,
                0x3fe5f4e303f928c2,
                0x40a7a7bdf96af35f,
            ),
            (
                "sltf",
                47,
                0x4060241a1ce6234b,
                0x40a35a4a0453991d,
                0x3fe58d3c485b1783,
                0x40ac06b97120ee25,
            ),
        ];
        for (kind, &(label, mounts, wait, sojourn, util, p99)) in
            crate::policy::PolicyKind::ALL.iter().zip(&pinned)
        {
            assert!(kind.label().starts_with(label), "pin order drifted");
            let policy = kind.build();
            let (mut sim, w) = heavy_setup();
            let out = run_scheduled(&mut sim, &w, policy.as_ref(), &SchedConfig::new(spec, 25));

            let (mut fsim, _) = heavy_setup();
            let plan = FaultPlan::zero(fsim.placement().config());
            let fout = run_scheduled_faulty(
                &mut fsim,
                &w,
                policy.as_ref(),
                &SchedConfig::new(spec, 25),
                &plan,
                &BTreeMap::new(),
            );

            for m in [&out.metrics, &fout.metrics] {
                assert_eq!(m.served(), 25, "{label}");
                assert_eq!(m.mounts(), mounts, "{label}");
                assert_eq!(m.avg_wait().to_bits(), wait, "{label} wait");
                assert_eq!(m.avg_sojourn().to_bits(), sojourn, "{label} sojourn");
                assert_eq!(m.utilisation().to_bits(), util, "{label} util");
                assert_eq!(
                    m.sojourn_percentile(99.0).to_bits(),
                    p99,
                    "{label} p99 sojourn"
                );
                assert_eq!((m.retries(), m.failovers(), m.lost()), (0, 0, 0), "{label}");
                assert_eq!(m.availability(), 1.0, "{label}");
            }
        }
    }

    /// Moderate faults on the switching-regime fixture: every request is
    /// served or counted lost, fault work is visible in the metrics, and
    /// the trace still satisfies every auditor invariant (including the
    /// fault ones).
    #[test]
    fn faulty_run_conserves_requests_and_audits_clean() {
        use tapesim_faults::FaultSpec;
        let spec = ArrivalSpec {
            per_hour: 30.0,
            seed: 3,
        };
        for kind in crate::policy::PolicyKind::ALL {
            let (mut sim, w) = heavy_setup();
            let plan = FaultPlan::generate(&FaultSpec::moderate(41), sim.placement().config());
            assert!(!plan.is_zero(), "moderate plan must inject something");
            let out = run_scheduled_faulty(
                &mut sim,
                &w,
                kind.build().as_ref(),
                &SchedConfig::new(spec, 25).with_audit(true),
                &plan,
                &BTreeMap::new(),
            );
            assert_eq!(
                out.metrics.served() + out.metrics.lost(),
                25,
                "{}: conservation",
                kind.label()
            );
            assert!(
                out.is_clean(),
                "{}: {:?}",
                kind.label(),
                out.reports.iter().find(|r| !r.is_clean())
            );
            assert!(
                out.metrics.availability() <= 1.0 && out.metrics.availability() > 0.0,
                "{}",
                kind.label()
            );
        }
    }

    /// The [`heavy_setup`] workload with 4 TB of replicas, placed by PBP,
    /// its replica alternates, and a media-only plan with
    /// `bad_spots_per_tape`.
    fn replicated_setup(
        bad_spots_per_tape: f64,
    ) -> (
        Simulator,
        Workload,
        BTreeMap<ObjectId, Vec<ObjectId>>,
        FaultPlan,
    ) {
        use tapesim_faults::FaultSpec;
        use tapesim_workload::{replicate_workload, ReplicationSpec};
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
        let (replicated, map) = replicate_workload(
            &w,
            ReplicationSpec {
                budget: Bytes::tb(4),
            },
        );
        let alternates = map.alternates();
        assert!(!alternates.is_empty(), "budget must buy copies");
        let cfg = paper_table1();
        let p = ParallelBatchPlacement::with_m(4)
            .place(&replicated, &cfg)
            .unwrap();
        let sim = Simulator::with_natural_policy(p, 4);
        let fspec = FaultSpec {
            bad_spots_per_tape,
            drive_mtbf_hours: 0.0,
            jams_per_hour: 0.0,
            ..FaultSpec::moderate(7)
        };
        let plan = FaultPlan::generate(&fspec, sim.placement().config());
        assert!(plan.n_spots() > 0);
        (sim, replicated, alternates, plan)
    }

    /// With replication-provided alternates, exhausted reads fail over to
    /// the replica instead of becoming losses.
    #[test]
    fn exhausted_reads_fail_over_to_replicas() {
        let spec = ArrivalSpec {
            per_hour: 30.0,
            seed: 3,
        };
        // Heavy media faults so retry budgets actually run dry.
        let (mut sim, replicated, alternates, plan) = replicated_setup(40.0);
        let out = run_scheduled_faulty(
            &mut sim,
            &replicated,
            &BatchByTape,
            &SchedConfig::new(spec, 25).with_audit(true),
            &plan,
            &alternates,
        );
        assert!(out.is_clean(), "{:?}", out.reports.first());
        assert!(out.metrics.retries() > 0, "spots must cost retries");
        assert_eq!(out.metrics.served() + out.metrics.lost(), 25);
        assert!(
            out.metrics.failovers() > 0,
            "dense bad-spots with replicas available must fail over \
             (retries={}, lost={})",
            out.metrics.retries(),
            out.metrics.lost()
        );
    }

    /// The FCFS sequential gear serves each arrival from the run's
    /// request catalog and regroups only a request that failed over.
    /// The constants are the gear's output on this fixture when it
    /// regrouped every arrival.
    #[test]
    fn fcfs_failover_regroups_bit_for_bit() {
        let spec = ArrivalSpec {
            per_hour: 30.0,
            seed: 3,
        };
        let (mut sim, w, alternates, plan) = replicated_setup(6.0);
        assert!(
            plan.media_only(),
            "media-only plans run the sequential gear"
        );
        let out = run_scheduled_faulty(
            &mut sim,
            &w,
            &Fcfs,
            &SchedConfig::new(spec, 40).with_audit(true),
            &plan,
            &alternates,
        );
        assert!(out.is_clean(), "{:?}", out.reports.first());
        let m = &out.metrics;
        let got = [
            m.avg_wait(),
            m.avg_service(),
            m.avg_sojourn(),
            m.utilisation(),
        ]
        .map(f64::to_bits);
        let counters = [m.served(), m.retries(), m.failovers(), m.lost()];
        assert_eq!(
            got,
            [
                0x40bd80f958ed46ab,
                0x40a23ce6ae222df3,
                0x40c34fb657ff2ed2,
                0x3fefc7e150baa1f5
            ]
        );
        assert_eq!(counters, [9, 177, 2, 31]);
        assert_eq!(m.mounts(), 61);
    }

    #[test]
    fn deterministic_across_runs() {
        let spec = ArrivalSpec {
            per_hour: 15.0,
            seed: 21,
        };
        let (mut a, w) = setup();
        let (mut b, _) = setup();
        let ra = run_scheduled(&mut a, &w, &SltfTape, &SchedConfig::new(spec, 30));
        let rb = run_scheduled(&mut b, &w, &SltfTape, &SchedConfig::new(spec, 30));
        assert_eq!(ra.metrics.avg_sojourn(), rb.metrics.avg_sojourn());
        assert_eq!(ra.metrics.mounts(), rb.metrics.mounts());
        assert_eq!(ra.metrics.events(), rb.metrics.events());
    }

    /// A media-only fault spec: bad-spots only, so the sequential gear
    /// can honour the plan without drive/robot identities.
    fn media_only_spec(seed: u64) -> tapesim_faults::FaultSpec {
        tapesim_faults::FaultSpec {
            bad_spots_per_tape: 20.0,
            drive_mtbf_hours: 0.0,
            jams_per_hour: 0.0,
            ..tapesim_faults::FaultSpec::moderate(seed)
        }
    }

    /// The engine-level acceptance invariant: with observability on,
    /// every gear and every policy produces a budget whose per-resource
    /// categories sum to the makespan within 1e-6 s.
    #[test]
    fn obs_budget_closes_for_every_policy() {
        let spec = ArrivalSpec {
            per_hour: 30.0,
            seed: 3,
        };
        for kind in crate::policy::PolicyKind::ALL {
            let (mut sim, w) = heavy_setup();
            let out = run_scheduled(
                &mut sim,
                &w,
                kind.build().as_ref(),
                &SchedConfig::new(spec, 25).with_obs(true),
            );
            let budget = out.budget.expect("obs on must yield a budget");
            assert!(
                budget.sum_error() < 1e-6,
                "{}: closure error {:.3e}",
                kind.label(),
                budget.sum_error()
            );
            assert!(budget.makespan_s > 0.0, "{}", kind.label());
            assert!(
                budget.drive_total(tapesim_obs::SpanKind::Transfer) > 0.0,
                "{}: a served run must transfer",
                kind.label()
            );
        }
    }

    /// Observability must never perturb the simulation: the metric bits
    /// are identical with the accountant on and off, for both gears.
    #[test]
    fn obs_does_not_change_metrics() {
        let spec = ArrivalSpec {
            per_hour: 20.0,
            seed: 7,
        };
        for kind in crate::policy::PolicyKind::ALL {
            let (mut a, w) = heavy_setup();
            let (mut b, _) = heavy_setup();
            let plain = run_scheduled(
                &mut a,
                &w,
                kind.build().as_ref(),
                &SchedConfig::new(spec, 20),
            );
            let observed = run_scheduled(
                &mut b,
                &w,
                kind.build().as_ref(),
                &SchedConfig::new(spec, 20).with_obs(true),
            );
            assert!(plain.budget.is_none(), "{}", kind.label());
            assert!(observed.budget.is_some(), "{}", kind.label());
            assert_eq!(
                plain.metrics.avg_sojourn(),
                observed.metrics.avg_sojourn(),
                "{}",
                kind.label()
            );
            assert_eq!(
                plain.metrics.mounts(),
                observed.metrics.mounts(),
                "{}",
                kind.label()
            );
            assert_eq!(
                plain.metrics.events(),
                observed.metrics.events(),
                "{}",
                kind.label()
            );
        }
    }

    /// Budgets also close on degraded runs, where `Failed` spans eat
    /// into drive and arm idle time.
    #[test]
    fn obs_budget_closes_under_faults() {
        use tapesim_faults::FaultSpec;
        let spec = ArrivalSpec {
            per_hour: 30.0,
            seed: 3,
        };
        let (mut sim, w) = heavy_setup();
        let plan = FaultPlan::generate(&FaultSpec::moderate(41), sim.placement().config());
        let out = run_scheduled_faulty(
            &mut sim,
            &w,
            &BatchByTape,
            &SchedConfig::new(spec, 25).with_obs(true),
            &plan,
            &BTreeMap::new(),
        );
        let budget = out.budget.expect("obs on must yield a budget");
        assert!(
            budget.sum_error() < 1e-6,
            "closure error {:.3e}",
            budget.sum_error()
        );
        assert!(
            budget.drive_total(tapesim_obs::SpanKind::Failed) > 0.0,
            "a moderate plan fails at least one drive in this fixture"
        );
    }

    /// Under media-only fault plans the sequential FCFS gear reproduces
    /// the retired single-server fault loop bit for bit — metrics and
    /// lost/retries/failovers counters — across several fault seeds. The
    /// constants are that loop's output on this fixture, recorded before
    /// it was folded into this gear.
    #[test]
    fn media_only_fcfs_matches_legacy_queue_bit_for_bit() {
        let spec = ArrivalSpec {
            per_hour: 10.0,
            seed: 5,
        };
        // (fault seed, served, [wait, service, sojourn, utilisation] bits,
        //  [retries, failovers, lost])
        type Pin = (u64, u64, [u64; 4], [u64; 3]);
        let pinned: [Pin; 3] = [
            (
                11,
                15,
                [
                    0x40a69e25133a2a38,
                    0x408aebf2b2c11adc,
                    0x40ad5921bfea70ef,
                    0x3ff0000000000000,
                ],
                [102, 0, 15],
            ),
            (
                29,
                4,
                [
                    0x40521b62f3b796d0,
                    0x4086464eea9d9443,
                    0x408889bb4914871e,
                    0x3fdab98d54fb5d26,
                ],
                [107, 0, 26],
            ),
            (
                83,
                5,
                [
                    0x408435c96e4d4a32,
                    0x4090dda596cba4a0,
                    0x409af88a4df249b8,
                    0x3fe33c63069d01ab,
                ],
                [115, 0, 25],
            ),
        ];
        for (fault_seed, served, bits, counters) in pinned {
            let (mut sim, w) = setup();
            let plan = FaultPlan::generate(&media_only_spec(fault_seed), sim.placement().config());
            assert!(plan.media_only() && !plan.is_zero(), "seed {fault_seed}");
            let out = run_scheduled_faulty(
                &mut sim,
                &w,
                &Fcfs,
                &SchedConfig::new(spec, 30),
                &plan,
                &BTreeMap::new(),
            );
            let m = &out.metrics;
            assert_eq!(m.served(), served, "seed {fault_seed}");
            let got = [
                m.avg_wait(),
                m.avg_service(),
                m.avg_sojourn(),
                m.utilisation(),
            ];
            assert_eq!(got.map(f64::to_bits), bits, "seed {fault_seed}");
            assert_eq!(
                [m.retries(), m.failovers(), m.lost()],
                counters,
                "seed {fault_seed}"
            );
        }
    }

    /// The sequential faulty gear supports the observability tap too:
    /// budgets close, and auditing still works alongside.
    #[test]
    fn sequential_faulty_obs_and_audit_coexist() {
        let spec = ArrivalSpec {
            per_hour: 10.0,
            seed: 5,
        };
        let (mut sim, w) = setup();
        let plan = FaultPlan::generate(&media_only_spec(29), sim.placement().config());
        let out = run_scheduled_faulty(
            &mut sim,
            &w,
            &Fcfs,
            &SchedConfig::new(spec, 30).with_obs(true).with_audit(true),
            &plan,
            &BTreeMap::new(),
        );
        assert!(
            out.is_clean(),
            "{:?}",
            out.reports.iter().find(|r| !r.is_clean())
        );
        assert_eq!(
            out.reports.len() as u64,
            out.metrics.served(),
            "one audit per served request"
        );
        let budget = out.budget.expect("obs on must yield a budget");
        assert!(
            budget.sum_error() < 1e-6,
            "closure error {:.3e}",
            budget.sum_error()
        );
    }

    /// The serve runtime's determinism keystone: feeding the engine one
    /// request at a time, pumping the clock after every admission, must
    /// replay the batch gear (submit-all, then drain) bit for bit.
    #[test]
    fn shard_engine_incremental_matches_batch_bit_for_bit() {
        let spec = ArrivalSpec {
            per_hour: 30.0,
            seed: 5,
        };
        for policy in [&BatchByTape as &dyn SchedPolicy, &SltfTape] {
            let cfg = SchedConfig::new(spec, 30).with_audit(true);
            let (mut batch_sim, w) = heavy_setup();
            let batch = run_scheduled(&mut batch_sim, &w, policy, &cfg);

            let (inc_sim, _) = heavy_setup();
            let placement = inc_sim.placement();
            let catalog: Vec<Vec<TapeJob>> = w
                .requests()
                .iter()
                .map(|r| tape_jobs(placement, &r.objects))
                .collect();
            let plan = FaultPlan::zero(placement.config());
            let alternates = BTreeMap::new();
            let mut engine = ShardEngine::new(&inc_sim, policy, &cfg, &plan, &alternates, &catalog);
            let mut stream = RequestStream::new(spec, &w);
            for _ in 0..30 {
                let (at, ridx) = stream.next_request();
                let at = SimTime::from_secs(at);
                assert!(engine.submit(at, ridx));
                engine.pump(at);
            }
            engine.close();
            let report = engine.finish();
            let inc = &report.outcome;

            assert_eq!(inc.metrics.served(), batch.metrics.served());
            assert_eq!(
                inc.metrics.avg_wait().to_bits(),
                batch.metrics.avg_wait().to_bits()
            );
            assert_eq!(
                inc.metrics.avg_service().to_bits(),
                batch.metrics.avg_service().to_bits()
            );
            assert_eq!(
                inc.metrics.avg_sojourn().to_bits(),
                batch.metrics.avg_sojourn().to_bits()
            );
            assert_eq!(
                inc.metrics.sojourn_percentile(99.0).to_bits(),
                batch.metrics.sojourn_percentile(99.0).to_bits()
            );
            assert_eq!(
                inc.metrics.utilisation().to_bits(),
                batch.metrics.utilisation().to_bits()
            );
            assert_eq!(inc.metrics.mounts(), batch.metrics.mounts());
            assert_eq!(inc.metrics.events(), batch.metrics.events());
            assert!(inc.is_clean() && batch.is_clean());
            assert_eq!(report.submitted, 30);
            assert_eq!(report.records.len() + report.lost.len(), 30);
            // Records carry their submission index and arrive in
            // nondecreasing finish order — the collector join contract.
            let mut seen = [false; 30];
            for r in &report.records {
                assert!(!std::mem::replace(&mut seen[r.request], true));
            }
            for pair in report.records.windows(2) {
                assert!(pair[0].finish <= pair[1].finish);
            }
        }
    }

    /// Satellite: `close()` stops admissions (rejected + counted) while
    /// everything already admitted still drains to completion.
    /// The oracle grid's two systems, built once: the heavy fixture,
    /// and the replicated one with its replica map.
    #[allow(clippy::type_complexity)]
    fn oracle_fixtures() -> &'static [(Simulator, Workload, BTreeMap<ObjectId, Vec<ObjectId>>); 2] {
        static FIXTURES: std::sync::OnceLock<
            [(Simulator, Workload, BTreeMap<ObjectId, Vec<ObjectId>>); 2],
        > = std::sync::OnceLock::new();
        FIXTURES.get_or_init(|| {
            let (sim, w) = heavy_setup();
            let (rsim, rw, alternates, _) = replicated_setup(40.0);
            [(sim, w, BTreeMap::new()), (rsim, rw, alternates)]
        })
    }

    /// Drives one [`ShardEngine`] submit/pump run over `samples` draws;
    /// every exchange dispatch in it runs the oracle comparison.
    fn oracle_run(
        fixture: &(Simulator, Workload, BTreeMap<ObjectId, Vec<ObjectId>>),
        kind: crate::policy::PolicyKind,
        max_batch: usize,
        plan: &FaultPlan,
        spec: ArrivalSpec,
        samples: usize,
    ) -> ShardReport {
        let (sim, w, alternates) = fixture;
        let cfg = SchedConfig::new(spec, samples).with_max_batch(max_batch);
        let catalog: Vec<Vec<TapeJob>> = w
            .requests()
            .iter()
            .map(|r| tape_jobs(sim.placement(), &r.objects))
            .collect();
        let policy = kind.build();
        let mut engine = ShardEngine::new(sim, policy.as_ref(), &cfg, plan, alternates, &catalog);
        let mut stream = RequestStream::new(spec, w);
        for _ in 0..samples {
            let (at, r) = stream.next_request();
            let at = SimTime::from_secs(at);
            engine.submit(at, r);
            engine.pump(at);
        }
        engine.finish()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The dispatch index never changes a candidate list: at every
        /// exchange dispatch the indexed list equals the slot walk bit
        /// for bit, for every policy and batch cap, on the heavy fixture
        /// under drive failures, jams and fatal bad spots, with and
        /// without a replica map.
        #[test]
        fn indexed_dispatch_matches_the_slot_walk(
            kind in 0usize..3,
            cap in 0usize..4,
            replicas in proptest::prelude::any::<bool>(),
            intensity in 0u32..4,
            fault_seed in 0u64..1_000,
            arrival_seed in 0u64..1_000,
            per_hour in 10u32..60,
        ) {
            let fixture = &oracle_fixtures()[replicas as usize];
            let spec = tapesim_faults::FaultSpec::moderate(fault_seed).scaled(intensity as f64);
            let plan = FaultPlan::generate(&spec, fixture.0.placement().config());
            let arrivals = ArrivalSpec { per_hour: per_hour as f64, seed: arrival_seed };
            let before = oracle::CHECKS.with(|c| c.get());
            let report = oracle_run(
                fixture,
                crate::policy::PolicyKind::ALL[kind],
                [0, 1, 3, 8][cap],
                &plan,
                arrivals,
                30,
            );
            proptest::prop_assert!(oracle::CHECKS.with(|c| c.get()) > before, "no dispatch was checked");
            proptest::prop_assert_eq!(report.records.len() + report.lost.len(), 30);
        }
    }

    /// The oracle grid reaches the aggregate's hard case: a failover
    /// re-queues a job of an older request behind a newer one, so the
    /// queue's front is not its oldest arrival.
    #[test]
    fn failover_requeues_older_arrivals_behind_newer_ones() {
        let fixture = &oracle_fixtures()[1];
        let spec = tapesim_faults::FaultSpec::moderate(5).scaled(3.0);
        let plan = FaultPlan::generate(&spec, fixture.0.placement().config());
        let arrivals = ArrivalSpec {
            per_hour: 60.0,
            seed: 9,
        };
        let before = oracle::REQUEUED_OLDER.with(|c| c.get());
        let report = oracle_run(
            fixture,
            crate::policy::PolicyKind::ALL[2],
            0,
            &plan,
            arrivals,
            60,
        );
        assert!(report.outcome.metrics.failovers() > 0);
        assert!(oracle::REQUEUED_OLDER.with(|c| c.get()) > before);
    }

    #[test]
    fn close_rejects_new_submissions_and_drains_in_flight() {
        let spec = ArrivalSpec {
            per_hour: 30.0,
            seed: 11,
        };
        let (sim, w) = heavy_setup();
        let placement = sim.placement();
        let catalog: Vec<Vec<TapeJob>> = w
            .requests()
            .iter()
            .map(|r| tape_jobs(placement, &r.objects))
            .collect();
        let plan = FaultPlan::zero(placement.config());
        let alternates = BTreeMap::new();
        let cfg = SchedConfig::new(spec, 20).with_audit(true);
        let mut engine = ShardEngine::new(&sim, &BatchByTape, &cfg, &plan, &alternates, &catalog);
        let mut stream = RequestStream::new(spec, &w);
        let mut last = SimTime::ZERO;
        for _ in 0..20 {
            let (at, ridx) = stream.next_request();
            last = SimTime::from_secs(at);
            assert!(engine.submit(last, ridx));
        }
        engine.pump(last);
        assert!(
            engine.outstanding_jobs() > 0,
            "heavy requests must still be in flight at the last arrival"
        );

        engine.close();
        assert!(engine.is_closed());
        let (at, ridx) = stream.next_request();
        assert!(!engine.submit(SimTime::from_secs(at), ridx));
        assert!(!engine.submit(last + SimTime::from_secs(3600.0), ridx));
        assert_eq!(engine.rejected(), 2);
        assert_eq!(engine.submitted(), 20);

        let report = engine.finish();
        assert_eq!(report.submitted, 20);
        assert_eq!(report.rejected, 2);
        assert_eq!(
            report.records.len() + report.lost.len(),
            20,
            "every accepted submission is served or counted lost"
        );
        assert_eq!(report.outcome.metrics.served(), report.records.len() as u64);
        assert!(report.outcome.is_clean());
    }
}
