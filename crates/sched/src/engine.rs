//! The scheduled-service engine.
//!
//! [`run_scheduled`] serves a Poisson arrival stream of popularity-drawn
//! requests under a [`SchedPolicy`] as one discrete-event simulation.
//! Requests arrive while earlier ones are still streaming, their per-tape
//! jobs join a shared admission queue, and every drive serves from that
//! queue concurrently. Jobs targeting the same tape coalesce into a batch
//! — one mount amortised over every queued job for that tape, ordered
//! within the tape by the same `seek_order` planner the per-request
//! engine uses. The run starts from a snapshot of the simulator's mount
//! state; the simulator itself is never mutated.
//!
//! A [`SchedPolicy::sequential`] policy (FCFS) adds an admission gate:
//! while one request has jobs outstanding, later arrivals wait in a
//! FIFO. The next one is admitted by its own event, ordered after every
//! same-instant service event, so the drives the finished request used
//! are idle again — the paper's §6 single-server model with a queue in
//! front of it, run on the same engine as every other policy.
//!
//! Physical modelling (rewind, exchange, robot contention, seek plans)
//! reuses the per-request engine's formulas so both engines agree on the
//! hardware.
//!
//! # Fault injection
//!
//! [`run_scheduled_faulty`] threads a pre-generated
//! [`tapesim_faults::FaultPlan`] through the engine. All fault
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
//!   losses after the event queue drains, and so are the requests still
//!   waiting behind a gate that can no longer open.

use crate::metrics::{RequestRecord, SchedMetrics};
use crate::policy::{SchedPolicy, TapeCandidate};
use crate::tap::Tap;
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use tapesim_des::audit::{AuditReport, TraceAuditor};
use tapesim_des::{Resource, Scheduler, SimTime, TraceEvent, World};
use tapesim_faults::{FaultClock, FaultPlan};
use tapesim_model::tape::Extent;
use tapesim_model::{Bytes, LibraryId, ObjectId, SystemConfig, TapeId};
use tapesim_obs::{TimeBudget, Topology};
use tapesim_placement::Placement;
use tapesim_sim::catalog::{tape_jobs, TapeJob};
use tapesim_sim::seek_order;
use tapesim_sim::{BaySet, SeekPolicy, Simulator, SwitchPolicy};
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
    /// Whether to audit the event trace: the whole run, online, through
    /// an [`AuditStream`](tapesim_des::audit::AuditStream) on a consumer
    /// thread fed bounded chunks of the trace (never the whole trace).
    pub audit: bool,
    /// Whether to run the span accountant and attach a
    /// [`TimeBudget`] to the outcome. Off by default; when off the
    /// only cost is one `None` check per emitted trace event.
    pub obs: bool,
    /// The in-tape service-order planner. Per-tape-local: mount and
    /// batch decisions are untouched. [`SeekPolicy::Greedy`] — the
    /// default — is bit-identical to runs recorded before seek policies
    /// existed.
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

/// Result of one scheduled run.
#[derive(Debug, Clone, Default)]
pub struct SchedOutcome {
    /// Per-request metrics with percentiles.
    pub metrics: SchedMetrics,
    /// Audit reports: one for the whole run; empty when auditing is off.
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
/// Every policy sees the same demand, drawn from one [`RequestStream`],
/// and starts from `sim`'s mount state, which it leaves untouched.
pub fn run_scheduled(
    sim: &Simulator,
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
/// losses. With a zero plan the metrics are bit-identical to
/// [`run_scheduled`].
///
/// The batch entry is the incremental [`ShardEngine`] fed the whole
/// demand stream, then finished.
pub fn run_scheduled_faulty(
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

/// The settings of the retired partitioned gear, kept only so
/// [`run_scheduled_faulty_parallel`]'s callers still compile. It holds
/// nothing: every run goes through the one [`ShardEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig;

impl ParallelConfig {
    /// The same run as [`ParallelConfig::on`]: there is one engine.
    pub fn off() -> ParallelConfig {
        ParallelConfig
    }

    /// The same run as [`ParallelConfig::off`].
    pub fn on() -> ParallelConfig {
        ParallelConfig
    }

    /// Returns `self`: the engine runs on the calling thread.
    pub fn with_threads(self, _threads: usize) -> ParallelConfig {
        self
    }
}

/// [`run_scheduled_faulty`] under its old partitioned-gear name: the
/// benchmark harness still calls it. It exists only until the next
/// benchmark change drops that call, and then goes too.
pub fn run_scheduled_faulty_parallel(
    sim: &mut Simulator,
    workload: &Workload,
    policy: &dyn SchedPolicy,
    cfg: &SchedConfig,
    plan: &FaultPlan,
    alternates: &BTreeMap<ObjectId, Vec<ObjectId>>,
    _par: &ParallelConfig,
) -> SchedOutcome {
    run_scheduled_faulty(sim, workload, policy, cfg, plan, alternates)
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
    /// `work`'s byte total, summed once at admission.
    bytes: Bytes,
    /// The job's read exhausted its retry budget; on completion it must
    /// fail over or be declared lost instead of counting as served.
    fatal: bool,
    /// The job completed, failed over or was lost: nothing reads it
    /// again, and it leaves the [`JobTable`] once every older job has.
    retired: bool,
}

/// The job table as a window over global job ids: jobs from the oldest
/// unresolved one onwards. Ids stay dense `u32`s from zero in events and
/// the trace; a resolved job at the front is popped, so the table holds
/// the backlog, not the run's history.
#[derive(Debug, Default)]
struct JobTable<'a> {
    live: VecDeque<JobState<'a>>,
    /// Global id of `live`'s front.
    base: usize,
}

impl<'a> JobTable<'a> {
    /// Admits `job` under the next global id, which it returns.
    fn push(&mut self, job: JobState<'a>) -> usize {
        let id = self.base + self.live.len();
        self.live.push_back(job);
        #[cfg(test)]
        oracle::note_window(self.live.len());
        id
    }

    /// The id the next [`JobTable::push`] will return.
    fn next_id(&self) -> usize {
        self.base + self.live.len()
    }

    /// Marks `id` resolved and pops every resolved job off the front.
    fn retire(&mut self, id: usize) {
        self[id].retired = true;
        while self.live.front().is_some_and(|job| job.retired) {
            self.live.pop_front();
            self.base += 1;
        }
    }
}

impl<'a> std::ops::Index<usize> for JobTable<'a> {
    type Output = JobState<'a>;

    fn index(&self, id: usize) -> &JobState<'a> {
        &self.live[id - self.base]
    }
}

impl<'a> std::ops::IndexMut<usize> for JobTable<'a> {
    fn index_mut(&mut self, id: usize) -> &mut JobState<'a> {
        &mut self.live[id - self.base]
    }
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
    /// At least one of its jobs was terminally lost.
    lost: bool,
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
    /// One job of a batch finished streaming; the drive's batch ends
    /// with it if it is the drive's [`SchedSim::batch_last`] job.
    JobDone { drive: u32, job: u32 },
    /// The gated request in service resolved its last job: the next
    /// waiting arrival passes the gate.
    Release,
}

/// The admission gate of a [`SchedPolicy::sequential`] policy: one
/// request in service at a time, later arrivals waiting in FIFO order.
#[derive(Debug, Default)]
struct Gate {
    /// An admitted request still has jobs outstanding, or its release
    /// is pending.
    held: bool,
    /// Arrivals waiting for the gate, by submission index.
    waiting: VecDeque<usize>,
    /// Tape jobs of the waiting arrivals, counted as outstanding.
    waiting_jobs: usize,
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
    /// mutated.
    mounted: Vec<Option<TapeId>>,
    /// Per-drive head position, advanced as batches stream.
    head: Vec<Bytes>,
    /// Reverse mount index by [`SystemConfig::tape_index`]: which drive
    /// currently holds each tape. Mirrors `mounted` exactly; replaces
    /// the per-candidate linear `drive_of` scan.
    holder: Vec<Option<u32>>,
    busy: Vec<bool>,
    /// Per drive: the last job of the batch it is streaming. That job's
    /// `JobDone` also ends the batch (DESIGN §9, "The folded batch end").
    batch_last: Vec<Option<u32>>,
    /// The drive side of the dispatch index: each library's drives as
    /// bay sets, kept beside `busy`, `dead` and `holder`.
    bays: Vec<LibraryBays>,
    robots: Vec<Resource>,
    jobs: JobTable<'a>,
    /// Failover lineage: the tapes already attempted for a replacement
    /// job's data. A replica is only eligible if its tape is not in here.
    /// Arrival jobs have tried nothing and have no entry; an entry goes
    /// when its job retires.
    tried: BTreeMap<usize, Vec<TapeId>>,
    /// Every request admitted so far, by local index. Only a request
    /// with jobs outstanding is read again, so a closed one's entry is
    /// dead weight that could be windowed away like `jobs`'.
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
    /// Audit/observability tap: every emitted event goes to the optional
    /// span accountant and audit sink, which run on their own thread.
    audit: Tap,
    /// Fault-plan view; identity answers under a zero plan.
    clock: FaultClock<'a>,
    /// Replica fallbacks per object (empty when replication is off).
    alternates: &'a BTreeMap<ObjectId, Vec<ObjectId>>,
    /// Drives whose permanent failure has been noticed.
    dead: Vec<bool>,
    /// Per library: how many of its drives are `dead`.
    failed: Vec<usize>,
    /// Switch drives per library (the `m` of the d−m batch rule).
    switch_m: usize,
    retries: u64,
    failovers_n: u64,
    lost_requests: u64,
    /// Submission indices of terminally lost requests, in loss order —
    /// the complement of `records` (together they partition the accepted
    /// submissions), so collectors can account for every request.
    lost_log: Vec<usize>,
    /// Per-library scratch marking libraries touched by an arrival or a
    /// failover, drained in ascending order (the old `BTreeSet` order).
    libs_hit: Vec<bool>,
    /// Candidate-list scratch for [`Self::try_dispatch`], reused across
    /// dispatches instead of allocating per victim scan.
    cands: Vec<TapeCandidate>,
    /// Seek-plan scratch for [`Self::start_batch`]: one buffer reused for
    /// every job whose extents are not already their own service order.
    plan_scratch: Vec<Extent>,
    /// The admission gate, present iff the policy is
    /// [`SchedPolicy::sequential`].
    gate: Option<Gate>,
}

/// The ready tapes of library `lib` (`tapes` per library) in the
/// dispatch index `ready`, ascending. `tape_index` is library-major
/// ascending, so this is `TapeId` order, the order of a slot walk.
fn ready_tapes(ready: &[u64], lib: usize, tapes: usize) -> impl Iterator<Item = usize> + '_ {
    let slots = lib * tapes..(lib + 1) * tapes;
    (slots.start / 64..slots.end.div_ceil(64))
        .flat_map(move |word| {
            let mut bits = ready[word];
            std::iter::from_fn(move || {
                let bit = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
                bits &= bits - 1;
                Some(word * 64 + bit)
            })
        })
        .filter(move |i| slots.contains(i))
}

/// One library's drives as bay sets (DESIGN §9, "The dispatch index").
#[derive(Debug)]
struct LibraryBays {
    /// Bays neither busy nor dead.
    idle: BaySet,
    /// Bays holding a tape with queued jobs; kept by
    /// [`SchedSim::refresh_ready`] through the tape's holder.
    loaded: BaySet,
    /// The earliest failure instant among the library's live drives:
    /// before it, [`SchedSim::reap_failures`] has nothing to notice.
    next_failure: SimTime,
}

impl SchedSim<'_> {
    /// Marks `drive` busy or not, keeping its idle bit.
    fn set_busy(&mut self, drive: usize, busy: bool) {
        self.busy[drive] = busy;
        let id = self.cfg.drive_at(drive);
        self.bays[id.library.idx()]
            .idle
            .set(id.bay, !busy && !self.dead[drive]);
    }

    /// Marks `drive` dead for good, and so never idle again.
    fn mark_dead(&mut self, drive: usize) {
        self.dead[drive] = true;
        let id = self.cfg.drive_at(drive);
        self.bays[id.library.idx()].idle.remove(id.bay);
    }

    /// Takes the tape off `drive`, if it holds one, and clears it from
    /// the reverse index and the dispatch index.
    fn unmount(&mut self, drive: usize) -> Option<TapeId> {
        let tape = self.mounted[drive].take()?;
        let tape_idx = self.cfg.tape_index(tape);
        self.holder[tape_idx] = None;
        let id = self.cfg.drive_at(drive);
        self.bays[id.library.idx()].loaded.remove(id.bay);
        self.refresh_ready(tape_idx);
        Some(tape)
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
        if healthy + self.switch_m < d {
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
    /// completions and recording the last job, whose `JobDone` ends the
    /// batch. Media bad-spots under the read extents burn retries —
    /// backoff plus one reposition-and-reread per retry — against the
    /// per-job budget; exhausting it marks the job fatal. The batch is
    /// truncated so no window outlives the drive's failure instant;
    /// truncated jobs stay pending.
    fn start_batch(&mut self, drive: usize, tape: TapeId, now: SimTime, sched: &mut Scheduler<Ev>) {
        let spec = &self.cfg.library.drive;
        let capacity = self.cfg.library.tape.capacity;
        let fail_at = self.clock.drive_fail_at(drive);
        let cap = self.effective_cap(drive);
        let tape_idx = self.cfg.tape_index(tape);
        let mut t = now;
        let mut taken = 0usize;
        let mut last = None;
        loop {
            if cap != 0 && taken >= cap {
                break;
            }
            let Some(&job) = self.pending[tape_idx].jobs.front() else {
                break;
            };
            let head = self.head[drive];
            let state = &self.jobs[job];
            let plan = seek_order::plan_borrowed(
                self.seek,
                head,
                &state.work.extents,
                &mut self.plan_scratch,
            );
            // The charge walks the same planned order as the read.
            let (seek_s, xfer_s, pos) = spec.read_walk(head, plan, capacity);
            let read = self.clock.charge(tape_idx, plan, spec, capacity);
            let (plan_len, bytes) = (plan.len(), state.bytes);
            // `x + 0.0` preserves the bits of `x`, so the zero-fault
            // window is identical to the fault-free formula.
            let finish = t + SimTime::from_secs(seek_s + xfer_s + read.penalty_secs);
            if finish > fail_at {
                // The drive dies mid-window: leave this job (and the rest
                // of the queue) pending for a surviving drive.
                break;
            }
            self.pending[tape_idx].pop_front(bytes);
            taken += 1;
            last = Some(job as u32);
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
        if last.is_none() {
            return;
        }
        self.batch_last[drive] = last;
        self.set_busy(drive, true);
        self.busy_time += t - now;
    }

    /// Ends `drive`'s batch inside its last job's `JobDone`, after that
    /// job's own step: the drive goes idle and its library re-dispatches.
    /// This is the step a queued batch-end event would have run next
    /// (DESIGN §9, "The folded batch end"), so it counts as one event.
    fn end_batch(&mut self, drive: usize, now: SimTime, sched: &mut Scheduler<Ev>) {
        // A queued batch end at `(now, 0)` fired before anything at `now`
        // only if no arrival (the one class below 0) was queued at `now`.
        #[cfg(test)]
        assert!(
            sched
                .peek_key()
                .is_none_or(|(at, prio)| at > now || prio >= 0),
            "an event at {now} outranks the folded batch end"
        );
        sched.count_inline();
        self.batch_last[drive] = None;
        self.set_busy(drive, false);
        let lib = self.cfg.drive_at(drive).library.idx();
        self.try_dispatch(lib, now, sched);
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
    /// surviving drive can fetch it. Returns at once before the
    /// library's next failure instant.
    fn reap_failures(&mut self, lib: usize, now: SimTime) {
        if now < self.bays[lib].next_failure {
            return;
        }
        let d = self.cfg.library.drives as usize;
        let mut next_failure = SimTime::MAX;
        for bay in 0..d {
            let idx = lib * d + bay;
            if self.dead[idx] {
                continue;
            }
            let fail_at = self.clock.drive_fail_at(idx);
            if fail_at > now {
                next_failure = next_failure.min(fail_at);
                continue;
            }
            self.mark_dead(idx);
            self.failed[lib] += 1;
            self.audit.emit(
                now,
                TraceEvent::DriveFailed {
                    drive: self.cfg.drive_at(idx).into(),
                    at: fail_at,
                },
            );
            if let Some(tape) = self.unmount(idx) {
                self.audit.emit(
                    now,
                    TraceEvent::Unmounted {
                        drive: self.cfg.drive_at(idx).into(),
                        tape: tape.into(),
                    },
                );
            }
        }
        self.bays[lib].next_failure = next_failure;
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
        if let Some(old) = self.unmount(drive) {
            self.audit.emit(
                now,
                TraceEvent::Unmounted {
                    drive: self.cfg.drive_at(drive).into(),
                    tape: old.into(),
                },
            );
        }
        self.head[drive] = Bytes::ZERO;
        self.set_busy(drive, true);

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

    /// Re-derives `tape_idx`'s bits in the dispatch index from its queue,
    /// claim and holder state: its ready bit, and the loaded bit of the
    /// bay holding it.
    fn refresh_ready(&mut self, tape_idx: usize) {
        let queued = !self.pending[tape_idx].jobs.is_empty();
        if let Some(drive) = self.holder[tape_idx] {
            let id = self.cfg.drive_at(drive as usize);
            self.bays[id.library.idx()].loaded.set(id.bay, queued);
        }
        let ready = queued && !self.claimed[tape_idx] && self.holder[tape_idx].is_none();
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
        for tape_idx in ready_tapes(&self.ready, lib, tapes) {
            let queue = &mut self.pending[tape_idx];
            let (take, bytes, oldest) = if cap != 0 && queue.jobs.len() > cap {
                let mut bytes = Bytes::ZERO;
                let mut oldest = SimTime::MAX;
                for &job in queue.jobs.iter().take(cap) {
                    bytes += self.jobs[job].bytes;
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
        #[cfg(test)]
        oracle::check_reaped(self, lib, now);
        let d = self.cfg.library.drives as usize;
        // Free batches: an idle drive already holding a tape with queued
        // jobs serves them without any exchange, in ascending bay order.
        // A batch changes only its own drive's and tape's bits, so the
        // set taken up front is the set a bay-by-bay walk would meet.
        let free = self.bays[lib].idle & self.bays[lib].loaded;
        #[cfg(test)]
        oracle::check_free(self, lib, free);
        for bay in free.iter() {
            let idx = lib * d + bay as usize;
            if let Some(tape) = self.mounted[idx] {
                self.start_batch(idx, tape, now, sched);
            }
        }
        // Exchanges: repeatedly pick the cheapest idle switch drive (the
        // per-request engine's victim order) and ask the policy which
        // tape to fetch onto it. Drives whose imminent failure would cut
        // an exchange short are blocked for this dispatch round.
        // Without a ready tape there is nothing to fetch: every victim
        // would get an empty candidate list.
        let tapes = self.cfg.library.tapes as usize;
        if ready_tapes(&self.ready, lib, tapes).next().is_none() {
            return;
        }
        let mut blocked = BaySet::EMPTY;
        loop {
            let victim = self.switch_policy.pick_victim(
                self.cfg,
                self.placement,
                LibraryId(lib as u16),
                &self.mounted,
                self.bays[lib].idle - blocked,
            );
            #[cfg(test)]
            oracle::check_victim(self, lib, blocked, victim);
            let Some(drive) = victim else {
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
                    blocked.insert(self.cfg.drive_at(drive).bay);
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
        let mut tried = self.tried.remove(&job).unwrap_or_default();
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
        self.jobs.retire(job);

        self.outstanding_jobs -= 1;
        self.requests[req].outstanding -= 1;
        if resolvable {
            let replacement_work = tape_jobs(self.placement, &alt_objects);
            self.libs_hit.fill(false);
            let mut first_replacement = None;
            for tj in replacement_work {
                let new_job = self.jobs.next_id();
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
                    bytes,
                    fatal: false,
                    retired: false,
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
            self.close_request(req, now, sched);
        }
    }

    /// Closes the books on request `req`, whose last job just resolved:
    /// a completion record, or a counted loss if any job was lost. A
    /// gated request then releases the gate.
    fn close_request(&mut self, req: usize, now: SimTime, sched: &mut Scheduler<Ev>) {
        let r = &self.requests[req];
        if r.lost {
            self.lost_requests += 1;
            self.lost_log.push(r.index);
        } else {
            self.records.push(RequestRecord {
                request: r.index,
                arrival: r.arrival,
                first_start: r.first_start.unwrap_or(r.arrival),
                finish: now,
            });
        }
        if self.gate.is_some() {
            sched.schedule_at_with_priority(now, RELEASE_PRIORITY, Ev::Release);
        }
    }

    /// Admits arrival `i` at `now`: its tape jobs join the per-tape
    /// queues and the libraries they touch dispatch. A request with no
    /// work is served on the spot.
    fn admit(&mut self, i: usize, now: SimTime, sched: &mut Scheduler<Ev>) {
        let (arrival, ridx) = self.arrivals[i];
        // Copy the catalog reference out of `self` so borrowing a
        // request's jobs does not pin `self` for the whole function.
        let catalog = self.job_catalog;
        let work = &catalog[ridx];
        if work.is_empty() {
            // Nothing to stream: served instantaneously.
            self.records.push(RequestRecord {
                request: i,
                arrival,
                first_start: now,
                finish: now,
            });
            return;
        }
        let req = self.requests.len();
        self.requests.push(ReqState {
            index: i,
            arrival,
            outstanding: work.len(),
            first_start: None,
            lost: false,
        });
        self.libs_hit.fill(false);
        for tj in work {
            let job = self.jobs.next_id();
            let tape = tj.tape;
            self.audit.emit(
                now,
                TraceEvent::JobSubmitted {
                    job: job as u32,
                    tape: tape.into(),
                },
            );
            let bytes = tj.bytes();
            self.jobs.push(JobState {
                request: req,
                work: Cow::Borrowed(tj),
                bytes,
                fatal: false,
                retired: false,
            });
            let tape_idx = self.cfg.tape_index(tape);
            self.pending[tape_idx].push_back(job, bytes, arrival);
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

    /// Passes the gate to the waiting arrivals in FIFO order: empty ones
    /// are served on the spot, the first with work holds the gate.
    fn release(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        while let Some(gate) = self.gate.as_mut() {
            let Some(i) = gate.waiting.pop_front() else {
                gate.held = false;
                return;
            };
            let jobs = self.job_catalog[self.arrivals[i].1].len();
            gate.waiting_jobs -= jobs;
            self.admit(i, now, sched);
            if jobs > 0 {
                return;
            }
        }
    }
}

impl World for SchedSim<'_> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::Arrive(i) => {
                let i = i as usize;
                if let Some(gate) = self.gate.as_mut() {
                    let jobs = self.job_catalog[self.arrivals[i].1].len();
                    if gate.held {
                        gate.waiting.push_back(i);
                        gate.waiting_jobs += jobs;
                        return;
                    }
                    gate.held = jobs > 0;
                }
                self.admit(i, now, sched);
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
                self.set_busy(drive, false);
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
                let ends_batch = self.batch_last[drive as usize] == Some(job);
                let (drive, job) = (drive as usize, job as usize);
                let fatal = self.jobs[job].fatal;
                if fatal {
                    self.resolve_fatal(job, now, sched);
                } else {
                    self.audit.emit(
                        now,
                        TraceEvent::JobCompleted {
                            job: job as u32,
                            drive: self.cfg.drive_at(drive).into(),
                        },
                    );
                    self.outstanding_jobs -= 1;
                    let req = self.jobs[job].request;
                    self.jobs.retire(job);
                    self.tried.remove(&job);
                    self.requests[req].outstanding -= 1;
                    if self.requests[req].outstanding == 0 {
                        self.close_request(req, now, sched);
                    }
                }
                if ends_batch {
                    #[cfg(test)]
                    oracle::note_batch_end(fatal);
                    self.end_batch(drive, now, sched);
                }
            }
            Ev::Release => self.release(now, sched),
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

/// Priority class of gate releases. Strictly above the default class, so
/// a release stamped at `t` fires after every same-instant service event
/// — the last job's `JobDone`, which also ends its drive's batch,
/// included — and the next request finds the drives idle, as the §6
/// engine's request does at its local t = 0.
const RELEASE_PRIORITY: i32 = 1;

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
        let placement = sim.placement();
        let system = placement.config();
        let n_drives = system.total_drives();
        let n_libs = system.libraries as usize;
        let d = system.library.drives as usize;
        let switch_policy = sim.policy();
        let clock = plan.clock();
        let bays: Vec<LibraryBays> = (0..n_libs)
            .map(|lib| LibraryBays {
                idle: BaySet::range(0, system.library.drives),
                loaded: BaySet::EMPTY,
                next_failure: (lib * d..(lib + 1) * d)
                    .map(|drive| clock.drive_fail_at(drive))
                    .min()
                    .unwrap_or(SimTime::MAX),
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
            batch_last: vec![None; n_drives],
            bays,
            robots: vec![Resource::new(system.library.robot.arms.max(1) as usize); n_libs],
            jobs: JobTable::default(),
            tried: BTreeMap::new(),
            requests: Vec::new(),
            pending: vec![TapeQueue::default(); n_tapes],
            claimed: vec![false; n_tapes],
            ready: vec![0; n_tapes.div_ceil(64)],
            outstanding_jobs: 0,
            mounts: 0,
            busy_time: SimTime::ZERO,
            records: Vec::new(),
            audit: Tap::new(
                cfg.audit.then_some(auditor),
                cfg.obs.then(|| topology_of(system)),
            ),
            clock,
            alternates,
            dead: vec![false; n_drives],
            failed: vec![0; n_libs],
            switch_m: switch_policy.switch_bays(system).len(),
            retries: 0,
            failovers_n: 0,
            lost_requests: 0,
            lost_log: Vec::new(),
            libs_hit: vec![false; n_libs],
            cands: Vec::new(),
            plan_scratch: Vec::new(),
            gate: policy.sequential().then(Gate::default),
        };

        // Trace prologue: carried-over mounts, so the transcript is
        // self-contained for the auditor.
        for drive in 0..n_drives {
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

    /// Jobs accepted but not yet completed, including those of requests
    /// waiting behind an admission gate.
    pub fn outstanding_jobs(&self) -> usize {
        self.world.outstanding_jobs + self.world.gate.as_ref().map_or(0, |g| g.waiting_jobs)
    }

    /// Tape exchanges performed so far.
    pub fn mounts_so_far(&self) -> u64 {
        self.world.mounts
    }

    /// DES events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.sched.events_processed()
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
                world.mark_dead(drive);
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
            world.jobs.retire(job);
            world.tried.remove(&job);
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
        // A gated request that lost its stranded jobs never resolves in
        // service: the gate stays shut, and every request still waiting
        // behind it is a counted loss too.
        if let Some(gate) = world.gate.take() {
            world.lost_requests += gate.waiting.len() as u64;
            world.lost_log.extend(gate.waiting);
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
        metrics.add_busy(world.busy_time);
        let first = world.arrivals.first().map_or(SimTime::ZERO, |&(at, _)| at);
        metrics.set_horizon(end.saturating_sub(first));
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
        }
    }
}

/// The dispatch-index oracle: every test build compares the indexed
/// candidate list against the slot walk at every exchange dispatch, and
/// the bay-set free batches and victims against the bay scans they
/// replaced at every dispatch.
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
        /// The job table's largest window on this thread.
        pub(super) static WINDOW_PEAK: Cell<usize> = const { Cell::new(0) };
        /// Bay-set free passes and victim picks checked on this thread.
        pub(super) static BAY_CHECKS: Cell<u64> = const { Cell::new(0) };
        /// Checked victims past bay 63, the first word of a bay set.
        pub(super) static HIGH_VICTIMS: Cell<u64> = const { Cell::new(0) };
        /// Dispatches checked at exactly a drive's failure instant.
        pub(super) static REAPED_AT_INSTANT: Cell<u64> = const { Cell::new(0) };
        /// Batch ends folded into a `JobDone`.
        pub(super) static BATCH_ENDS: Cell<u64> = const { Cell::new(0) };
        /// Folded batch ends whose last job was fatal: it failed over or
        /// was lost before the batch ended.
        pub(super) static FATAL_BATCH_ENDS: Cell<u64> = const { Cell::new(0) };
    }

    /// Counts a folded batch end whose last job was `fatal` or not.
    pub(super) fn note_batch_end(fatal: bool) {
        BATCH_ENDS.with(|c| c.set(c.get() + 1));
        if fatal {
            FATAL_BATCH_ENDS.with(|c| c.set(c.get() + 1));
        }
    }

    /// The reap's bay walk: after [`SchedSim::reap_failures`] no live
    /// drive of `lib` may have a failure instant at or before `now`.
    pub(super) fn check_reaped(world: &SchedSim<'_>, lib: usize, now: SimTime) {
        let d = world.cfg.library.drives as usize;
        for idx in lib * d..(lib + 1) * d {
            let fail_at = world.clock.drive_fail_at(idx);
            assert!(
                world.dead[idx] || fail_at > now,
                "drive {idx} failed at {fail_at:?} but is live at {now:?}"
            );
            if fail_at == now {
                REAPED_AT_INSTANT.with(|c| c.set(c.get() + 1));
            }
        }
    }

    /// The free-batch bay walk: every idle drive of `lib` holding a tape
    /// with queued jobs, ascending, read off `busy`, `dead`, `mounted`
    /// and the queues.
    pub(super) fn check_free(world: &SchedSim<'_>, lib: usize, got: BaySet) {
        let d = world.cfg.library.drives as usize;
        let expected: Vec<usize> = (lib * d..(lib + 1) * d)
            .filter(|&idx| {
                !world.busy[idx]
                    && !world.dead[idx]
                    && world.mounted[idx]
                        .is_some_and(|t| !world.pending[world.cfg.tape_index(t)].jobs.is_empty())
            })
            .collect();
        let got: Vec<usize> = got.iter().map(|bay| lib * d + bay as usize).collect();
        assert_eq!(
            got, expected,
            "bay-set free batches diverge from the bay walk"
        );
        BAY_CHECKS.with(|c| c.set(c.get() + 1));
    }

    /// The victim scan over every bay of `lib`: idle, not `blocked`, a
    /// switch bay by the §5.2 rule written out; least key
    /// `(kind, probability, index)` wins.
    pub(super) fn check_victim(
        world: &SchedSim<'_>,
        lib: usize,
        blocked: BaySet,
        got: Option<usize>,
    ) {
        let d = world.cfg.library.drives;
        let mut best: Option<(u8, f64, usize)> = None;
        for bay in 0..d {
            let idx = lib * d as usize + bay as usize;
            let switchable = match world.switch_policy {
                SwitchPolicy::Batch { m } => bay >= d - m,
                SwitchPolicy::LeastPopular => true,
            };
            if world.busy[idx] || world.dead[idx] || blocked.contains(bay) || !switchable {
                continue;
            }
            let key = match world.mounted[idx] {
                None => (0, 0.0, idx),
                Some(t) => (1, world.placement.tape_probability(t), idx),
            };
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        assert_eq!(
            got,
            best.map(|(_, _, idx)| idx),
            "bay-set victim diverges from the bay scan"
        );
        BAY_CHECKS.with(|c| c.set(c.get() + 1));
        if got.is_some_and(|idx| idx % d as usize >= 64) {
            HIGH_VICTIMS.with(|c| c.set(c.get() + 1));
        }
    }

    pub(super) fn note_window(len: usize) {
        WINDOW_PEAK.with(|c| c.set(c.get().max(len)));
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
        let mut stream = RequestStream::new(spec, &w);
        let draws: Vec<(SimTime, usize)> = (0..40)
            .map(|_| {
                let (at, r) = stream.next_request();
                (SimTime::from_secs(at), r)
            })
            .collect();

        // `Fcfs` replays its admission gate too: requests still waiting
        // behind it at the cut must pass it in the same order.
        for policy in [&BatchByTape as &dyn SchedPolicy, &Fcfs] {
            // The uncrashed reference: submit/pump the whole stream.
            let mut continuous = ShardEngine::new(&sim, policy, &cfg, &plan, &alternates, &catalog);
            for &(at, r) in &draws {
                continuous.submit(at, r);
                continuous.pump(at);
            }
            let base = continuous.finish();

            // Crash after 17 submissions, restore from the checkpoint,
            // feed the remainder: every book must close on the same bits.
            let mut first = ShardEngine::new(&sim, policy, &cfg, &plan, &alternates, &catalog);
            for &(at, r) in draws.iter().take(17) {
                first.submit(at, r);
                first.pump(at);
            }
            let ckpt = first.checkpoint();
            assert_eq!(ckpt.len(), 17);
            assert!(!ckpt.is_empty());
            if policy.sequential() {
                assert!(
                    first
                        .world
                        .gate
                        .as_ref()
                        .is_some_and(|g| !g.waiting.is_empty()),
                    "the cut must fall while requests wait behind the gate"
                );
            }
            drop(first); // the "crash": engine state is gone, checkpoint survives

            let mut restored =
                ShardEngine::restore(&sim, policy, &cfg, &plan, &alternates, &catalog, &ckpt);
            assert_eq!(restored.submitted(), 17);
            for &(at, r) in draws.iter().skip(17) {
                restored.submit(at, r);
                restored.pump(at);
            }
            let redo = restored.finish();

            let name = policy.name();
            assert_eq!(base.records, redo.records, "{name}");
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
            assert_eq!(base.outcome.reports, redo.outcome.reports, "{name}");
            assert!(redo.outcome.is_clean());

            // The supervisor's log-built checkpoint is the engine-cut one.
            let log: Vec<(SimTime, usize)> = draws.iter().take(17).copied().collect();
            assert_eq!(EngineCheckpoint::from_arrivals(log), ckpt);
        }
    }

    /// One request a week — the paper's §6 regime: nobody ever waits.
    #[test]
    fn sparse_arrivals_never_wait() {
        let spec = ArrivalSpec {
            per_hour: 1.0 / 168.0,
            seed: 1,
        };
        let (sim, w) = setup();
        let m = run_scheduled(&sim, &w, &Fcfs, &SchedConfig::new(spec, 30)).metrics;
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
    /// every two minutes, so the queue must build, and the fleet's drives
    /// are busier than under the sparse stream.
    #[test]
    fn dense_arrivals_queue_up() {
        let run = |per_hour| {
            let spec = ArrivalSpec { per_hour, seed: 1 };
            let (sim, w) = setup();
            run_scheduled(&sim, &w, &Fcfs, &SchedConfig::new(spec, 30)).metrics
        };
        let m = run(30.0);
        assert!(m.avg_wait() > m.avg_service(), "no queueing at high load");
        assert!(m.avg_sojourn() > m.avg_wait());
        let sparse = run(1.0 / 168.0);
        assert!(
            m.utilisation() > 10.0 * sparse.utilisation(),
            "utilisation {} vs sparse {}",
            m.utilisation(),
            sparse.utilisation()
        );
    }

    #[test]
    fn wait_grows_with_arrival_rate() {
        let waits: Vec<f64> = [2.0, 6.0, 18.0]
            .iter()
            .map(|&per_hour| {
                let spec = ArrivalSpec { per_hour, seed: 5 };
                let (sim, w) = setup();
                run_scheduled(&sim, &w, &Fcfs, &SchedConfig::new(spec, 40))
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
        let (sim, w) = setup();
        let out = run_scheduled(
            &sim,
            &w,
            &Fcfs,
            &SchedConfig::new(spec, 10).with_audit(true),
        );
        assert_eq!(out.reports.len(), 1, "one audit for the whole run");
        assert!(out.is_clean(), "{:?}", out.reports);
    }

    #[test]
    fn concurrent_serves_everything_and_audits_clean() {
        let spec = ArrivalSpec {
            per_hour: 20.0,
            seed: 7,
        };
        let (sim, w) = setup();
        let out = run_scheduled(
            &sim,
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
        let (fcfs_sim, w) = heavy_setup();
        let fcfs = run_scheduled(&fcfs_sim, &w, &Fcfs, &SchedConfig::new(spec, 25));
        let (batch_sim, _) = heavy_setup();
        let batch = run_scheduled(&batch_sim, &w, &BatchByTape, &SchedConfig::new(spec, 25));
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
            let (sim, w) = heavy_setup();
            let out = run_scheduled(
                &sim,
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
        let (sim, w) = setup();
        let _ = run_scheduled(&sim, &w, &SltfTape, &SchedConfig::new(spec, 10));
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
        let (bsim, w) = setup();
        let batch = run_scheduled(&bsim, &w, &BatchByTape, &SchedConfig::new(spec, 40));
        let (ssim, _) = setup();
        let sltf = run_scheduled(&ssim, &w, &SltfTape, &SchedConfig::new(spec, 40));
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
        let (bsim, w) = heavy_setup();
        let batch = run_scheduled(&bsim, &w, &BatchByTape, &SchedConfig::new(spec, 25));
        let (ssim, _) = heavy_setup();
        let sltf = run_scheduled(&ssim, &w, &SltfTape, &SchedConfig::new(spec, 25));
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
        let (sim, w) = setup();
        let out = run_scheduled(
            &sim,
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
        let pinned: [(&str, u64, u64, u64, u64, u64); 2] = [
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
            crate::policy::PolicyKind::ALL[1..].iter().zip(&pinned)
        {
            assert!(kind.label().starts_with(label), "pin order drifted");
            let policy = kind.build();
            let (sim, w) = heavy_setup();
            let out = run_scheduled(&sim, &w, policy.as_ref(), &SchedConfig::new(spec, 25));

            let (fsim, _) = heavy_setup();
            let plan = FaultPlan::zero(fsim.placement().config());
            let fout = run_scheduled_faulty(
                &fsim,
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
            let (sim, w) = heavy_setup();
            let plan = FaultPlan::generate(&FaultSpec::moderate(41), sim.placement().config());
            assert!(!plan.is_zero(), "moderate plan must inject something");
            let out = run_scheduled_faulty(
                &sim,
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
        let (sim, replicated, alternates, plan) = replicated_setup(40.0);
        let out = run_scheduled_faulty(
            &sim,
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

    #[test]
    fn deterministic_across_runs() {
        let spec = ArrivalSpec {
            per_hour: 15.0,
            seed: 21,
        };
        let (a, w) = setup();
        let (b, _) = setup();
        let ra = run_scheduled(&a, &w, &SltfTape, &SchedConfig::new(spec, 30));
        let rb = run_scheduled(&b, &w, &SltfTape, &SchedConfig::new(spec, 30));
        assert_eq!(ra.metrics.avg_sojourn(), rb.metrics.avg_sojourn());
        assert_eq!(ra.metrics.mounts(), rb.metrics.mounts());
        assert_eq!(ra.metrics.events(), rb.metrics.events());
    }

    /// A media-only fault spec: bad spots, no drive failures or jams.
    fn media_only_spec(seed: u64) -> tapesim_faults::FaultSpec {
        tapesim_faults::FaultSpec {
            bad_spots_per_tape: 20.0,
            drive_mtbf_hours: 0.0,
            jams_per_hour: 0.0,
            ..tapesim_faults::FaultSpec::moderate(seed)
        }
    }

    /// The engine-level acceptance invariant: with observability on,
    /// every policy produces a budget whose per-resource
    /// categories sum to the makespan within 1e-6 s.
    #[test]
    fn obs_budget_closes_for_every_policy() {
        let spec = ArrivalSpec {
            per_hour: 30.0,
            seed: 3,
        };
        for kind in crate::policy::PolicyKind::ALL {
            let (sim, w) = heavy_setup();
            let out = run_scheduled(
                &sim,
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
    /// are identical with the accountant on and off, for every policy.
    #[test]
    fn obs_does_not_change_metrics() {
        let spec = ArrivalSpec {
            per_hour: 20.0,
            seed: 7,
        };
        for kind in crate::policy::PolicyKind::ALL {
            let (a, w) = heavy_setup();
            let (b, _) = heavy_setup();
            let plain = run_scheduled(&a, &w, kind.build().as_ref(), &SchedConfig::new(spec, 20));
            let observed = run_scheduled(
                &b,
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
        let (sim, w) = heavy_setup();
        let plan = FaultPlan::generate(&FaultSpec::moderate(41), sim.placement().config());
        let out = run_scheduled_faulty(
            &sim,
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

    /// Media faults under the FCFS gate: retries are timed inside the
    /// transfer windows and fatal reads fail over or lose the request,
    /// yet every request is served or counted lost, the one trace audits
    /// clean and the time budget closes — alone and with replicas.
    #[test]
    fn sequential_faulty_obs_and_audit_coexist() {
        let spec = ArrivalSpec {
            per_hour: 10.0,
            seed: 5,
        };
        let (sim, w) = setup();
        let (rsim, rw, alternates, rplan) = replicated_setup(6.0);
        let none = BTreeMap::new();
        let plans: Vec<_> = [11, 29, 83]
            .map(|seed| FaultPlan::generate(&media_only_spec(seed), sim.placement().config()))
            .into_iter()
            .map(|plan| (&sim, &w, &none, plan))
            .chain([(&rsim, &rw, &alternates, rplan)])
            .collect();
        for (sim, w, alternates, plan) in &plans {
            assert_eq!((plan.n_drive_failures(), plan.n_jams()), (0, 0));
            assert!(plan.n_spots() > 0);
            let out = run_scheduled_faulty(
                sim,
                w,
                &Fcfs,
                &SchedConfig::new(spec, 30).with_obs(true).with_audit(true),
                plan,
                alternates,
            );
            let m = &out.metrics;
            assert_eq!(m.served() + m.lost(), 30, "conservation");
            assert!(m.retries() > 0, "bad spots must cost retries");
            assert_eq!(out.reports.len(), 1, "one audit for the whole run");
            assert!(out.is_clean(), "{}", out.reports[0]);
            let budget = out.budget.expect("obs on must yield a budget");
            assert!(
                budget.sum_error() < 1e-6,
                "closure error {:.3e}",
                budget.sum_error()
            );
        }
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
        for policy in [&BatchByTape as &dyn SchedPolicy, &SltfTape, &Fcfs] {
            let cfg = SchedConfig::new(spec, 30).with_audit(true);
            let (batch_sim, w) = heavy_setup();
            let batch = run_scheduled(&batch_sim, &w, policy, &cfg);

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

    /// The §6 single-server loop the admission gate replaced, kept as the
    /// reference: each drawn request is served on the per-request engine
    /// from `max(arrival, previous finish)`, its mount state carried to
    /// the next. Returns the sojourns in service order and the summed
    /// exchanges.
    fn single_server_reference(
        sim: &Simulator,
        w: &Workload,
        spec: ArrivalSpec,
        samples: usize,
    ) -> (Vec<f64>, u64) {
        let mut server = Simulator::new(sim.placement().clone(), sim.policy());
        let mut stream = RequestStream::new(spec, w);
        let (mut free, mut mounts) = (0.0f64, 0u64);
        let mut sojourns = Vec::with_capacity(samples);
        for _ in 0..samples {
            let (arrival, rank) = stream.next_request();
            let objects = w.requests().get(rank).map_or(&[][..], |r| &r.objects);
            let service = server.serve(objects);
            free = arrival.max(free) + service.response;
            sojourns.push(free - arrival);
            mounts += service.n_switches as u64;
        }
        (sojourns, mounts)
    }

    /// The light (all-mounted) and heavy (exchanging) fixtures, built once.
    fn gate_fixtures() -> &'static [(Simulator, Workload); 2] {
        static FIXTURES: std::sync::OnceLock<[(Simulator, Workload); 2]> =
            std::sync::OnceLock::new();
        FIXTURES.get_or_init(|| [setup(), heavy_setup()])
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The FCFS gate is the §6 single-server model. Over the sched
        /// proptest grid (seed, rate, samples) with a zero plan, on both
        /// fixtures, gated `fcfs` serves every request with the reference
        /// loop's exchange count and each sojourn within 1e-9 relative:
        /// the engine folds times on the run's clock, the reference on
        /// each request's local one, so the last bits may differ.
        #[test]
        fn fcfs_gate_matches_the_single_server_reference(
            seed in 0u64..1_000,
            rate_tenths in 5u32..400,
            samples in 5usize..25,
            heavy in proptest::prelude::any::<bool>(),
        ) {
            let (sim, w) = &gate_fixtures()[heavy as usize];
            let spec = ArrivalSpec { per_hour: rate_tenths as f64 / 10.0, seed };
            let cfg = SchedConfig::new(spec, samples).with_audit(true);
            let out = run_scheduled(sim, w, &Fcfs, &cfg);
            let (sojourns, mounts) = single_server_reference(sim, w, spec, samples);
            proptest::prop_assert!(out.is_clean());
            proptest::prop_assert_eq!(out.metrics.served(), samples as u64);
            proptest::prop_assert_eq!(out.metrics.mounts(), mounts);
            let got = out.metrics.sojourn_seconds();
            proptest::prop_assert_eq!(got.len(), sojourns.len());
            for (i, (got, want)) in got.iter().zip(&sojourns).enumerate() {
                proptest::prop_assert!(
                    (got - want).abs() <= 1e-9 * want,
                    "request {}: sojourn {} vs reference {}",
                    i,
                    got,
                    want
                );
            }
        }
    }

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

    /// The dispatch index never changes a candidate list: at every
    /// exchange dispatch the indexed list equals the slot walk bit for
    /// bit, for every policy and batch cap, on the heavy fixture under
    /// drive failures, jams and fatal bad spots, with and without a
    /// replica map. 48 drawn cases, as a proptest grid would draw them.
    ///
    /// Every exchange goes through a checked dispatch: `mounts` counts
    /// only in `begin_switch`, which runs only after `oracle::check`. A
    /// case may check nothing (faults can kill every drive before an
    /// exchange), so non-vacuity is asserted over the grid.
    #[test]
    fn indexed_dispatch_matches_the_slot_walk() {
        use proptest::strategy::Strategy;
        let grid = (
            (0usize..3, 0usize..4, proptest::prelude::any::<bool>()),
            (0u32..4, 0u64..1_000, 0u64..1_000, 10u32..60),
        );
        let mut grid_checks = 0;
        for case in 0..48 {
            let mut rng = proptest::test_runner::TestRng::for_case(file!(), line!(), case);
            let ((kind, cap, replicas), (intensity, fault_seed, arrival_seed, per_hour)) =
                grid.generate(&mut rng);
            let fixture = &oracle_fixtures()[replicas as usize];
            let spec = tapesim_faults::FaultSpec::moderate(fault_seed).scaled(intensity as f64);
            let plan = FaultPlan::generate(&spec, fixture.0.placement().config());
            let arrivals = ArrivalSpec {
                per_hour: per_hour as f64,
                seed: arrival_seed,
            };
            let before = oracle::CHECKS.with(|c| c.get());
            let report = oracle_run(
                fixture,
                crate::policy::PolicyKind::ALL[kind],
                [0, 1, 3, 8][cap],
                &plan,
                arrivals,
                30,
            );
            let checks = oracle::CHECKS.with(|c| c.get()) - before;
            let mounts = report.outcome.metrics.mounts();
            assert!(
                checks >= mounts,
                "case {case}: {checks} checked dispatches for {mounts} exchanges"
            );
            assert_eq!(report.records.len() + report.lost.len(), 30, "case {case}");
            grid_checks += checks;
        }
        assert!(grid_checks > 0, "no dispatch in the grid was checked");
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

    /// A 100-drive library: two bay-set words per library. Audited runs
    /// under both switch policies, fault-free and under faults, pass the
    /// bay oracle at every dispatch and pick victims past bay 63.
    #[test]
    fn wide_libraries_dispatch_exactly_and_audit_clean() {
        use tapesim_model::specs::{lto3_drive, lto3_tape, stk_l80_library};
        use tapesim_model::LibrarySpec;
        use tapesim_placement::{PlacementBuilder, TapeRole};
        use tapesim_workload::{ObjectRecord, Request};

        let cfg = SystemConfig::new(
            2,
            LibrarySpec {
                drives: 100,
                tapes: 200,
                ..stk_l80_library(lto3_drive(), lto3_tape())
            },
        )
        .unwrap();
        // One 2 GB object per tape; 40 templates of 12 scattered objects.
        let objects = (0..400u32)
            .map(|i| ObjectRecord {
                id: ObjectId(i),
                size: Bytes::gb(2),
            })
            .collect();
        let requests = (0..40u32)
            .map(|r| Request {
                rank: r,
                probability: 1.0 / 40.0,
                objects: (0..12u32)
                    .map(|k| ObjectId((r * 97 + k * 131) % 400))
                    .collect(),
            })
            .collect();
        let w = Workload::new(objects, requests);
        let mut b = PlacementBuilder::new(&cfg, &w);
        for i in 0..400u32 {
            let (lib, slot) = ((i / 200) as u16, (i % 200) as u16);
            let tape = TapeId::new(LibraryId(lib), slot);
            b.append(
                tape,
                ObjectId(i),
                Bytes::gb(2),
                ((i * 37) % 11) as f64 / 100.0,
            )
            .unwrap();
            // The §5.2 roles for m = 40: 60 pinned bays, then batches of 40.
            let role = if slot < 60 {
                TapeRole::Pinned
            } else {
                TapeRole::SwitchPool {
                    batch: (slot - 60) / 40 + 1,
                }
            };
            b.set_role(tape, role);
        }
        let placement = b.build().unwrap();
        let no_replicas = BTreeMap::new();
        for switch in [SwitchPolicy::LeastPopular, SwitchPolicy::Batch { m: 40 }] {
            let sim = Simulator::new(placement.clone(), switch);
            for intensity in [0.0, 2.0] {
                let spec = tapesim_faults::FaultSpec::moderate(3).scaled(intensity);
                let plan = FaultPlan::generate(&spec, &cfg);
                let arrivals = ArrivalSpec {
                    per_hour: 300.0,
                    seed: 5,
                };
                let sched_cfg = SchedConfig::new(arrivals, 60).with_audit(true);
                let catalog: Vec<Vec<TapeJob>> = w
                    .requests()
                    .iter()
                    .map(|r| tape_jobs(sim.placement(), &r.objects))
                    .collect();
                let policy = crate::policy::PolicyKind::BatchByTape.build();
                let (checks, high) = (
                    oracle::BAY_CHECKS.with(|c| c.get()),
                    oracle::HIGH_VICTIMS.with(|c| c.get()),
                );
                let mut engine = ShardEngine::new(
                    &sim,
                    policy.as_ref(),
                    &sched_cfg,
                    &plan,
                    &no_replicas,
                    &catalog,
                );
                let mut stream = RequestStream::new(arrivals, &w);
                for _ in 0..60 {
                    let (at, r) = stream.next_request();
                    let at = SimTime::from_secs(at);
                    engine.submit(at, r);
                    engine.pump(at);
                }
                let report = engine.finish();
                let case = format!("{switch:?}, intensity {intensity}");
                assert!(!report.outcome.reports.is_empty(), "{case}: not audited");
                assert!(report.outcome.is_clean(), "{case}: audit failed");
                assert_eq!(report.records.len() + report.lost.len(), 60, "{case}");
                assert!(report.outcome.metrics.mounts() > 0, "{case}: no exchange");
                assert!(oracle::BAY_CHECKS.with(|c| c.get()) > checks, "{case}");
                assert!(
                    oracle::HIGH_VICTIMS.with(|c| c.get()) > high,
                    "{case}: no victim past bay 63"
                );
            }
        }
    }

    /// Requests submitted at exactly each drive's failure instant: the
    /// dispatch they start must reap that drive, although the library's
    /// next failure instant equals the clock.
    #[test]
    fn dispatch_at_a_failure_instant_reaps_the_drive() {
        let (sim, w) = heavy_setup();
        let spec = tapesim_faults::FaultSpec::moderate(11).scaled(3.0);
        let plan = FaultPlan::generate(&spec, sim.placement().config());
        let clock = plan.clock();
        let mut instants: Vec<SimTime> = (0..sim.placement().config().total_drives())
            .map(|drive| clock.drive_fail_at(drive))
            .filter(|&at| at < SimTime::MAX)
            .collect();
        instants.sort();
        instants.dedup();
        assert!(instants.len() >= 2, "the plan fails too few drives");
        let catalog: Vec<Vec<TapeJob>> = w
            .requests()
            .iter()
            .map(|r| tape_jobs(sim.placement(), &r.objects))
            .collect();
        let arrivals = ArrivalSpec {
            per_hour: 1.0,
            seed: 0,
        };
        let cfg = SchedConfig::new(arrivals, instants.len()).with_audit(true);
        let policy = crate::policy::PolicyKind::BatchByTape.build();
        let no_replicas = BTreeMap::new();
        let mut engine =
            ShardEngine::new(&sim, policy.as_ref(), &cfg, &plan, &no_replicas, &catalog);
        let before = oracle::REAPED_AT_INSTANT.with(|c| c.get());
        for &at in &instants {
            // Rank 0 spans every library, so each failing drive's library
            // dispatches at the instant.
            engine.submit(at, 0);
            engine.pump(at);
        }
        let report = engine.finish();
        assert!(oracle::REAPED_AT_INSTANT.with(|c| c.get()) > before);
        assert_eq!(report.records.len() + report.lost.len(), instants.len());
        assert!(report.outcome.is_clean());
    }

    /// On a real faulty run (drive failures, jams, fatal bad spots,
    /// failovers; the inline prefix and several chunks of trace), the
    /// consumer thread gives the audit report and time budget of sinks
    /// run inline, bit for bit.
    #[test]
    fn piped_sinks_match_inline_sinks_on_a_faulty_run() {
        let fixture = &oracle_fixtures()[1];
        let spec = tapesim_faults::FaultSpec::moderate(5).scaled(3.0);
        let plan = FaultPlan::generate(&spec, fixture.0.placement().config());
        let arrivals = ArrivalSpec {
            per_hour: 60.0,
            seed: 9,
        };
        let (sim, w, alternates) = fixture;
        let cfg = SchedConfig::new(arrivals, 2_000)
            .with_audit(true)
            .with_obs(true);
        let catalog: Vec<Vec<TapeJob>> = w
            .requests()
            .iter()
            .map(|r| tape_jobs(sim.placement(), &r.objects))
            .collect();
        let run = |inline: bool| {
            crate::tap::INLINE.with(|c| c.set(inline));
            let mut engine = ShardEngine::new(sim, &SltfTape, &cfg, &plan, alternates, &catalog);
            let mut stream = RequestStream::new(arrivals, w);
            for _ in 0..cfg.samples {
                let (at, r) = stream.next_request();
                let at = SimTime::from_secs(at);
                engine.submit(at, r);
                engine.pump(at);
            }
            let outcome = engine.finish().outcome;
            crate::tap::INLINE.with(|c| c.set(false));
            outcome
        };
        let piped = run(false);
        let inline = run(true);
        assert!(piped.metrics.failovers() > 0 && piped.metrics.lost() > 0);
        assert!(
            piped.reports[0].entries > crate::tap::INLINE_ENTRIES + 3 * 4096,
            "{} entries",
            piped.reports[0].entries
        );
        assert_eq!(piped.reports, inline.reports);
        assert_eq!(piped.budget, inline.budget);
        assert!(piped.budget.is_some());
    }

    /// The job table is a window over the backlog: on a stable stream it
    /// never holds more than a small share of the jobs issued, and a
    /// drained engine holds none (nor any failover lineage).
    #[test]
    fn job_table_holds_the_backlog_not_the_history() {
        const SAMPLES: usize = 5_000;
        let spec = ArrivalSpec {
            per_hour: 12.0,
            seed: 3,
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
        let cfg = SchedConfig::new(spec, SAMPLES).with_audit(true);
        let mut engine = ShardEngine::new(&sim, &BatchByTape, &cfg, &plan, &alternates, &catalog);
        oracle::WINDOW_PEAK.with(|c| c.set(0));
        let mut stream = RequestStream::new(spec, &w);
        for _ in 0..SAMPLES {
            let (at, ridx) = stream.next_request();
            let at = SimTime::from_secs(at);
            engine.submit(at, ridx);
            engine.pump(at);
        }
        engine.close();
        engine.pump(SimTime::MAX);
        let issued = engine.world.jobs.next_id();
        let peak = oracle::WINDOW_PEAK.with(|c| c.get());
        assert!(
            peak * 10 < issued,
            "window peaked at {peak} of {issued} jobs issued"
        );
        assert!(engine.world.jobs.live.is_empty());
        assert!(engine.world.tried.is_empty());
        let report = engine.finish();
        assert_eq!(report.records.len(), SAMPLES);
        assert!(report.outcome.is_clean());
    }

    /// The fields the folded batch end must leave as the queued one
    /// left them, as bits: served, lost, failovers, retries, mounts,
    /// events and the mean sojourn.
    fn fold_fingerprint(out: &SchedOutcome) -> [u64; 7] {
        let m = &out.metrics;
        [
            m.served(),
            m.lost(),
            m.failovers(),
            m.retries(),
            m.mounts(),
            m.events(),
            m.avg_sojourn().to_bits(),
        ]
    }

    /// A batch whose last job is fatal fails that job over (or loses
    /// it) first and then ends, inside the same `JobDone`. These three
    /// fingerprints were taken on the engine that still queued a
    /// separate batch-end event.
    #[test]
    fn a_fatal_last_job_fails_over_then_ends_its_batch() {
        let (sim, replicated, alternates, plan) = replicated_setup(10.0);
        let before = oracle::FATAL_BATCH_ENDS.with(|c| c.get());
        let out = run_scheduled_faulty(
            &sim,
            &replicated,
            &BatchByTape,
            &SchedConfig::new(
                ArrivalSpec {
                    per_hour: 30.0,
                    seed: 3,
                },
                25,
            )
            .with_max_batch(3)
            .with_audit(true),
            &plan,
            &alternates,
        );
        assert!(out.is_clean(), "{:?}", out.reports.first());
        assert!(out.metrics.failovers() > 0);
        assert!(oracle::FATAL_BATCH_ENDS.with(|c| c.get()) > before);
        assert_eq!(fold_fingerprint(&out), [0, 25, 14, 310, 55, 577, 0]);
    }

    /// With an instantaneous drive (no positioning or streaming time)
    /// every job, the last of each batch included, finishes at its
    /// batch's start: the folded end then runs at the instant the batch
    /// was planned, often the instant of the arrival that planned it.
    #[test]
    fn zero_duration_last_jobs_end_their_batches_at_their_start() {
        let (sim, w) = heavy_setup();
        let mut cfg = *sim.placement().config();
        cfg.library.drive.full_pass_time = 0.0;
        cfg.library.drive.native_rate = tapesim_model::BytesPerSec(f64::INFINITY);
        let p = ParallelBatchPlacement::with_m(4).place(&w, &cfg).unwrap();
        let sim = Simulator::with_natural_policy(p, 4);
        let before = oracle::BATCH_ENDS.with(|c| c.get());
        let out = run_scheduled(
            &sim,
            &w,
            &BatchByTape,
            &SchedConfig::new(
                ArrivalSpec {
                    per_hour: 40.0,
                    seed: 5,
                },
                40,
            )
            .with_audit(true),
        );
        assert!(out.is_clean(), "{}", out.reports[0]);
        assert_eq!(
            out.metrics.utilisation(),
            0.0,
            "every batch spans zero time"
        );
        assert!(out.metrics.mounts() > 0);
        assert!(oracle::BATCH_ENDS.with(|c| c.get()) > before);
        assert_eq!(
            fold_fingerprint(&out),
            [40, 0, 0, 0, 172, 1333, 0x4077_137b_34cd_a43c]
        );
    }

    /// Under `max_batch` 1 every job ends its own batch, so each `JobDone`
    /// counts twice: events = arrivals + exchanges + 2 × jobs.
    #[test]
    fn max_batch_one_ends_a_batch_at_every_job() {
        let (sim, w) = heavy_setup();
        let before = oracle::BATCH_ENDS.with(|c| c.get());
        let out = run_scheduled(
            &sim,
            &w,
            &BatchByTape,
            &SchedConfig::new(
                ArrivalSpec {
                    per_hour: 40.0,
                    seed: 5,
                },
                40,
            )
            .with_max_batch(1)
            .with_audit(true),
        );
        assert!(out.is_clean(), "{}", out.reports[0]);
        let jobs = oracle::BATCH_ENDS.with(|c| c.get()) - before;
        assert_eq!(out.metrics.events(), 40 + out.metrics.mounts() + 2 * jobs);
        assert_eq!(
            fold_fingerprint(&out),
            [40, 0, 0, 0, 38, 1408, 0x40ba_1fe6_c546_39c2]
        );
    }

    /// The forwarding entry point is [`run_scheduled_faulty`] under
    /// either setting: every metric bit (per-request sojourns included)
    /// and the audit reports of a faulty, audited two-library run.
    #[test]
    fn forwarded_parallel_entry_matches_the_engine() {
        use tapesim_faults::FaultSpec;
        use tapesim_model::specs::paper_table1_with_libraries;
        let w = heavy_setup().1;
        let p = ParallelBatchPlacement::with_m(4)
            .place(&w, &paper_table1_with_libraries(2))
            .unwrap();
        let mut sim = Simulator::with_natural_policy(p, 4);
        let plan = FaultPlan::generate(&FaultSpec::moderate(29), sim.placement().config());
        let cfg = SchedConfig::new(
            ArrivalSpec {
                per_hour: 40.0,
                seed: 7,
            },
            40,
        )
        .with_audit(true);
        let alternates = BTreeMap::new();
        let base = run_scheduled_faulty(&sim, &w, &SltfTape, &cfg, &plan, &alternates);
        assert!(base.metrics.mounts() > 0 && base.metrics.retries() > 0);
        assert!(base.is_clean() && !base.reports.is_empty());
        for par in [ParallelConfig::off(), ParallelConfig::on().with_threads(2)] {
            let out = run_scheduled_faulty_parallel(
                &mut sim,
                &w,
                &SltfTape,
                &cfg,
                &plan,
                &alternates,
                &par,
            );
            // `{:?}` prints every float field round-trip exact.
            assert_eq!(format!("{:?}", out.metrics), format!("{:?}", base.metrics));
            assert_eq!(out.reports, base.reports);
        }
    }

    /// `close()` stops admissions (rejected + counted) while everything
    /// already admitted still drains to completion.
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
