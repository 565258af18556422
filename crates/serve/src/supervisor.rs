//! The serve runtime: ingestion, shard actors, snapshot barriers and
//! shutdown, supervised — chaos injection, crash detection,
//! checkpoint/replay restart, and health-based admission control.
//! [`crate::runtime::serve_run`] is this runtime with an empty chaos
//! plan and no admission control.
//!
//! # Topology
//!
//! [`supervisor_run`] spawns a *seat* per shard: the supervisor (on the
//! calling thread, which is also the ingestion stage) owns each seat's
//! submission channel, its accepted-submission **log**, and its
//! incarnation counter, and merges the shards' tick acknowledgements at
//! every snapshot barrier itself. A shard death never kills the run —
//! the seat is restarted after a capped-exponential backoff with a
//! [`tapesim_sched::EngineCheckpoint`] rebuilt from the log, and the
//! new incarnation *replays* the logged prefix before taking new work.
//!
//! # Determinism
//!
//! Three facts make a supervised run — even one full of crashes —
//! replayable from `(seed, shards, chaos-seed)`:
//!
//! 1. **Chaos is in-band.** A [`ChaosPlan`] keys every kill/stall on a
//!    shard's cumulative accepted-submission count, and the supervisor
//!    injects the poison message immediately after the chunk that ends
//!    with the triggering submission, on the same FIFO channel — so the
//!    victim dies having processed *exactly* that log prefix, on every
//!    run.
//! 2. **State is the log.** A `ShardEngine` is a pure function of its
//!    construction inputs and its submission sequence, so checkpoint =
//!    log and restore = replay; the restarted engine's books are
//!    bit-identical to an engine that never died.
//! 3. **Health reads virtual time.** The `Healthy → Degraded →
//!    Overloaded` ladder is a function of the merged snapshot registry
//!    (queue depth, p99 sojourn, lost-rate), which is itself a function
//!    of the submission subsequences — never of wall-clock timing.
//!
//! The wall clock appears in exactly one place: the **watchdog** bound
//! on waiting for tick acks and final books. It is a liveness bound,
//! not a behavior input — an injected stall deterministically *never*
//! acknowledges, so it is detected on every run, while a healthy shard
//! always acknowledges eventually (backpressure only delays it). A
//! shard that wedges *outside* the injected model is still surfaced as
//! a counted [`FailureReason::Unresponsive`] failure with its log shed,
//! provided its thread eventually observes channel disconnect.
//!
//! Accepted parts travel in chunks of up to 64, never more than
//! [`ServeConfig::channel_bound`], so a shard wakes the parked
//! ingestion thread once per chunk, not once per part; the channel holds
//! `max(1, bound / chunk)` chunks. A seat's buffer is flushed when full,
//! before a chaos poison, before every tick and before hang-up, so the
//! shard sees parts in the one-part-message order.
//!
//! With an empty `ChaosPlan` and no health policy nothing is injected,
//! shed or restarted, and the run reproduces the pinned registry,
//! snapshot, record and metric bits of the former unsupervised runtime
//! (`serve/tests/supervision.rs`); a single shard reproduces the batch
//! engine bit for bit (`serve/tests/determinism.rs`).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::thread;
use std::time::Duration;

use tapesim_des::SimTime;
use tapesim_faults::{ChaosKind, ChaosPlan, FaultPlan};
use tapesim_model::ObjectId;
use tapesim_obs::MetricsRegistry;
use tapesim_sched::{EngineCheckpoint, PolicyKind, SchedConfig, ShardEngine, TapeJob};
use tapesim_sim::Simulator;
use tapesim_workload::{RequestStream, Workload};

use crate::health::{Health, HealthPolicy};
use crate::runtime::{
    assemble, refresh_registry, topology, FailureReason, Handles, ServeConfig, ServeReport,
    ShardDone, ShardFailure, SupExtra, Tally,
};

/// Most parts one `Submit` message carries (capped by the channel bound).
const CHUNK: usize = 64;

/// One admitted request part: global id, arrival, workload rank.
type Part = (u64, SimTime, usize);

/// Supervisor knobs. [`Default`] is a generous watchdog and no
/// admission control.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuperviseConfig {
    /// Wall-clock bound, in milliseconds, on any single wait for a
    /// shard's tick acknowledgement or final books. Purely a liveness
    /// bound — see the module docs; virtual-time outcomes under
    /// injected chaos never depend on it.
    pub watchdog_ms: u64,
    /// Health-based admission control over the snapshot stream
    /// (`None` = admit everything).
    pub health: Option<HealthPolicy>,
}

impl Default for SuperviseConfig {
    fn default() -> SuperviseConfig {
        SuperviseConfig {
            watchdog_ms: 30_000,
            health: None,
        }
    }
}

impl SuperviseConfig {
    /// The default config.
    pub fn new() -> SuperviseConfig {
        SuperviseConfig::default()
    }

    /// Sets the watchdog bound (clamped to ≥ 1 ms at use).
    pub fn with_watchdog_ms(mut self, ms: u64) -> SuperviseConfig {
        self.watchdog_ms = ms;
        self
    }

    /// Enables health-based admission control.
    pub fn with_health(mut self, policy: HealthPolicy) -> SuperviseConfig {
        self.health = Some(policy);
        self
    }
}

/// What the supervisor sends a supervised shard. `Crash` and `Stall`
/// are the chaos poison messages; FIFO delivery pins the victim's
/// processed prefix.
enum SupMsg {
    /// Admitted request parts, in acceptance order.
    Submit(Vec<Part>),
    /// Snapshot barrier: acknowledge with your registry state.
    Tick { seq: u64 },
    /// Injected kill: return immediately — no drain, no books.
    Crash,
    /// Injected stall: keep consuming (so sends never block) but do no
    /// work and never acknowledge again.
    Stall,
}

/// A shard's tick acknowledgement.
struct SupUpdate {
    shard: usize,
    generation: u64,
    seq: u64,
    registry: MetricsRegistry,
}

/// A shard's final books, tagged with its incarnation so stale
/// generations can never corrupt the join.
struct SupDone {
    shard: usize,
    generation: u64,
    done: ShardDone,
}

/// Supervisor-side state of one shard seat, across incarnations.
#[derive(Default)]
struct Seat {
    /// Every delivered submission, across all generations, in order:
    /// `(global id, arrival, rank)`. This *is* the checkpoint.
    log: Vec<Part>,
    /// Accepted parts not yet sent: the next chunk.
    buffer: Vec<Part>,
    /// Incarnation counter (0 = original spawn).
    generation: u64,
    /// Next unfired chaos event index in this seat's schedule.
    next_event: usize,
    /// Restarts performed so far (drives the backoff exponent).
    restarts: u64,
    /// `Some(draw)` while dead: the global ingestion draw at which the
    /// seat may be restarted.
    resume_at: Option<u64>,
}

impl Seat {
    /// The restart payload: the logged ids plus the checkpoint that
    /// replays them. `None` when nothing was ever accepted.
    fn checkpoint(&self) -> Option<(Vec<u64>, EngineCheckpoint)> {
        if self.log.is_empty() {
            return None;
        }
        let ids = self.log.iter().map(|&(id, _, _)| id).collect();
        let arrivals = self.log.iter().map(|&(_, at, rank)| (at, rank)).collect();
        Some((ids, EngineCheckpoint::from_arrivals(arrivals)))
    }
}

/// Marks seat `s` dead: hangs up its channel, reaps the thread,
/// records the failure (upgraded to `Panicked` if the join says so)
/// and schedules the restart after the chaos plan's backoff.
#[allow(clippy::too_many_arguments)]
fn declare_dead<'scope>(
    txs: &mut BTreeMap<usize, SyncSender<SupMsg>>,
    joins: &mut BTreeMap<usize, thread::ScopedJoinHandle<'scope, ()>>,
    seats: &mut [Seat],
    extra: &mut SupExtra,
    chaos: &ChaosPlan,
    s: usize,
    reason: FailureReason,
    at_draw: u64,
) {
    txs.remove(&s);
    let panicked = joins.remove(&s).is_some_and(|h| h.join().is_err());
    let Some(seat) = seats.get_mut(s) else {
        return;
    };
    let reason = if panicked {
        FailureReason::Panicked
    } else {
        reason
    };
    extra.failures.push(ShardFailure {
        shard: s,
        generation: seat.generation,
        reason,
        at_draw,
    });
    let backoff = chaos.restart_backoff_draws(seat.restarts);
    seat.restarts += 1;
    extra.restarts += 1;
    seat.resume_at = Some(at_draw.saturating_add(1).saturating_add(backoff));
}

/// Sends seat `s`'s buffered parts as one chunk and logs them. A shard
/// that hung up outside the chaos plan sheds the whole chunk, unlogged,
/// and is declared dead. Returns whether the seat is still alive.
#[allow(clippy::too_many_arguments)]
fn flush_seat<'scope>(
    txs: &mut BTreeMap<usize, SyncSender<SupMsg>>,
    joins: &mut BTreeMap<usize, thread::ScopedJoinHandle<'scope, ()>>,
    seats: &mut [Seat],
    extra: &mut SupExtra,
    chaos: &ChaosPlan,
    s: usize,
    at_draw: u64,
) -> bool {
    let (Some(tx), Some(seat)) = (txs.get(&s), seats.get_mut(s)) else {
        return false;
    };
    let n = seat.buffer.len();
    let chunk = std::mem::replace(&mut seat.buffer, Vec::with_capacity(n));
    seat.log.extend_from_slice(&chunk);
    if n == 0 || tx.send(SupMsg::Submit(chunk)).is_ok() {
        return true;
    }
    let delivered = seat.log.len() - n;
    for (id, _, _) in seat.log.drain(delivered..) {
        extra.shed_parts.insert(id);
    }
    declare_dead(
        txs,
        joins,
        seats,
        extra,
        chaos,
        s,
        FailureReason::Panicked,
        at_draw,
    );
    false
}

/// Pulls final books off `rx` until every joined shard has reported or
/// the watchdog expires with no progress possible.
fn collect_books(
    rx: &Receiver<SupDone>,
    seats: &[Seat],
    joins: &BTreeMap<usize, thread::ScopedJoinHandle<'_, ()>>,
    books: &mut BTreeMap<usize, ShardDone>,
    watchdog: Duration,
) {
    while joins.keys().any(|s| !books.contains_key(s)) {
        match rx.recv_timeout(watchdog) {
            Ok(d) => {
                let current = seats
                    .get(d.shard)
                    .is_some_and(|seat| seat.generation == d.generation);
                if current {
                    books.insert(d.shard, d.done);
                }
            }
            Err(_) => break,
        }
    }
}

/// One supervised shard incarnation: optionally replay a checkpoint,
/// then serve until hang-up (clean drain + books) or poison.
#[allow(clippy::too_many_arguments)]
fn supervised_shard(
    shard: usize,
    generation: u64,
    sim: &Simulator,
    kind: PolicyKind,
    cfg: &SchedConfig,
    plan: &FaultPlan,
    alternates: &BTreeMap<ObjectId, Vec<ObjectId>>,
    catalog: &[Vec<TapeJob>],
    restore: Option<(Vec<u64>, EngineCheckpoint)>,
    rx: Receiver<SupMsg>,
    updates: Sender<SupUpdate>,
    books: Sender<SupDone>,
) {
    let policy = kind.build();
    let mut reg = MetricsRegistry::new();
    let handles = Handles::register(&mut reg);
    let mut tally = Tally::default();
    let (mut engine, mut ids) = match restore {
        Some((ids, ckpt)) => {
            let engine =
                ShardEngine::restore(sim, policy.as_ref(), cfg, plan, alternates, catalog, &ckpt);
            // The replayed prefix counts as this incarnation's
            // submissions: the registry must agree with the log.
            reg.add(handles.submitted, ids.len() as u64);
            (engine, ids)
        }
        None => (
            ShardEngine::new(sim, policy.as_ref(), cfg, plan, alternates, catalog),
            Vec::new(),
        ),
    };
    let mut stalled = false;
    for msg in rx.iter() {
        match msg {
            SupMsg::Submit(parts) => {
                if stalled {
                    continue;
                }
                for (id, at, rank) in parts {
                    if engine.submit(at, rank) {
                        ids.push(id);
                        reg.inc(handles.submitted);
                    }
                    // Advance the shard's virtual clock through this
                    // arrival; the next submission is strictly later, so
                    // this never reorders events.
                    engine.pump(at);
                }
            }
            SupMsg::Tick { seq } => {
                if stalled {
                    continue;
                }
                refresh_registry(
                    &mut reg,
                    &handles,
                    &mut tally,
                    engine.served_so_far(),
                    engine.lost_so_far(),
                    engine.mounts_so_far(),
                    engine.events_processed(),
                    engine.outstanding_jobs(),
                    engine.records(),
                );
                if updates
                    .send(SupUpdate {
                        shard,
                        generation,
                        seq,
                        registry: reg.clone(),
                    })
                    .is_err()
                {
                    continue;
                }
            }
            SupMsg::Crash => return,
            SupMsg::Stall => stalled = true,
        }
    }
    if stalled {
        // A stalled incarnation exits silently on disconnect: its books
        // live on in the supervisor's log and come back via replay.
        return;
    }
    engine.close();
    let report = engine.finish();
    refresh_registry(
        &mut reg,
        &handles,
        &mut tally,
        report.records.len() as u64,
        report.lost.len() as u64,
        report.outcome.metrics.mounts(),
        report.outcome.metrics.events(),
        0,
        &report.records,
    );
    let payload = SupDone {
        shard,
        generation,
        done: ShardDone {
            ids,
            report,
            registry: reg,
        },
    };
    // A send failure means the supervisor's drain watchdog already gave
    // up on this seat and shed its log; nobody is listening.
    let _delivered = books.send(payload);
}

/// Runs the service under supervision: ingest `cfg.samples` requests,
/// serve them across per-library shards with `chaos` injected in-band,
/// dead shards restarted from their submission logs, and (optionally)
/// health-laddered admission control. See the module docs for the
/// determinism argument; conservation is
/// `submitted = served + lost + shed + rejected`, every leg explicit.
#[allow(clippy::too_many_arguments)]
pub fn supervisor_run(
    sim: &Simulator,
    workload: &Workload,
    kind: PolicyKind,
    cfg: &ServeConfig,
    plan: &FaultPlan,
    alternates: &BTreeMap<ObjectId, Vec<ObjectId>>,
    chaos: &ChaosPlan,
    sup: &SuperviseConfig,
) -> ServeReport {
    let topo = topology(sim, workload, cfg, plan);
    let nshards = topo.nshards;
    let sched_cfg = &topo.sched_cfg;
    let watchdog = Duration::from_millis(sup.watchdog_ms.max(1));
    let bound = cfg.channel_bound.max(1);
    // Parts per message and messages per channel: at most `bound` parts
    // are ever queued to one shard.
    let chunk = CHUNK.min(bound);
    let capacity = (bound / chunk).max(1);

    let (upd_tx, upd_rx) = channel::<SupUpdate>();
    let (done_tx, done_rx) = channel::<SupDone>();

    let mut submitted = 0u64;
    let (dones, snapshots, extra) = thread::scope(|scope| {
        let mut extra = SupExtra::default();
        let mut seats: Vec<Seat> = (0..nshards).map(|_| Seat::default()).collect();
        let mut txs: BTreeMap<usize, SyncSender<SupMsg>> = BTreeMap::new();
        let mut joins = BTreeMap::new();

        let spawn_seat = |s: usize,
                          generation: u64,
                          restore: Option<(Vec<u64>, EngineCheckpoint)>,
                          rx: Receiver<SupMsg>| {
            let updates = upd_tx.clone();
            let books = done_tx.clone();
            let catalog: &[Vec<TapeJob>] = topo.shard_catalogs.get(s).map_or(&[], Vec::as_slice);
            let shard_plan = match topo.shard_plans.get(s) {
                Some(p) => p,
                None => plan,
            };
            scope.spawn(move || {
                supervised_shard(
                    s, generation, sim, kind, sched_cfg, shard_plan, alternates, catalog, restore,
                    rx, updates, books,
                )
            })
        };

        for s in 0..nshards {
            let (tx, rx) = sync_channel::<SupMsg>(capacity);
            joins.insert(s, spawn_seat(s, 0, None, rx));
            txs.insert(s, tx);
        }

        let mut stream = RequestStream::new(cfg.arrivals, workload);
        let mut seq = 0u64;
        let mut health = Health::Healthy;
        let mut last_regs: BTreeMap<usize, MetricsRegistry> = BTreeMap::new();
        let mut snapshots = Vec::new();

        for id in 0..cfg.samples as u64 {
            // 1. Resurrect seats whose backoff window has closed:
            //    fresh incarnation, engine replayed from the log.
            for s in 0..nshards {
                let due = seats
                    .get(s)
                    .is_some_and(|seat| seat.resume_at.is_some_and(|d| d <= id));
                if !due {
                    continue;
                }
                let Some(seat) = seats.get_mut(s) else {
                    continue;
                };
                seat.resume_at = None;
                seat.generation += 1;
                let restore = seat.checkpoint();
                let generation = seat.generation;
                let (tx, rx) = sync_channel::<SupMsg>(capacity);
                joins.insert(s, spawn_seat(s, generation, restore, rx));
                txs.insert(s, tx);
            }

            // 2. Draw the canonical stream; admit or shed.
            let (at_secs, rank) = stream.next_request();
            let at = SimTime::from_secs(at_secs);
            submitted += 1;
            if health == Health::Overloaded {
                // Admission control: counted, never silently dropped.
                extra.shed_admission.insert(id);
            } else {
                let targets = topo
                    .fanouts
                    .get(rank)
                    .map_or(&[] as &[usize], Vec::as_slice);
                for &s in targets {
                    let Some(seat) = seats.get_mut(s).filter(|_| txs.contains_key(&s)) else {
                        // Dead seat (restart window): shed the part.
                        extra.shed_parts.insert(id);
                        continue;
                    };
                    // 3. Buffer the acceptance, then fire any chaos
                    //    event scheduled at this cumulative count. The
                    //    chunk ending with this part is flushed first, so
                    //    FIFO lands the poison right behind it.
                    seat.buffer.push((id, at, rank));
                    let count = (seat.log.len() + seat.buffer.len()) as u64;
                    let events = chaos.shard_events(s);
                    let due = events
                        .get(seat.next_event)
                        .is_some_and(|event| event.after == count);
                    if (due || seat.buffer.len() >= chunk)
                        && !flush_seat(&mut txs, &mut joins, &mut seats, &mut extra, chaos, s, id)
                    {
                        continue;
                    }
                    if !due {
                        continue;
                    }
                    let mut fired_kill = false;
                    let mut fired_stall = false;
                    if let Some(seat) = seats.get_mut(s) {
                        while let Some(event) = events.get(seat.next_event).copied() {
                            if event.after != count {
                                break;
                            }
                            seat.next_event += 1;
                            match event.kind {
                                ChaosKind::Kill => fired_kill = true,
                                ChaosKind::Stall => fired_stall = true,
                            }
                        }
                    }
                    if fired_stall {
                        if let Some(tx) = txs.get(&s) {
                            let _ignored = tx.send(SupMsg::Stall);
                        }
                        // Detection is deferred: the next barrier (or
                        // the drain watchdog) sees the missing ack.
                    }
                    if fired_kill {
                        if let Some(tx) = txs.get(&s) {
                            let _ignored = tx.send(SupMsg::Crash);
                        }
                        declare_dead(
                            &mut txs,
                            &mut joins,
                            &mut seats,
                            &mut extra,
                            chaos,
                            s,
                            FailureReason::Killed,
                            id,
                        );
                    }
                }
            }

            // 4. Snapshot barrier: tick the live seats, wait for acks
            //    under the watchdog, declare non-ackers stalled, merge,
            //    and step the health ladder.
            if cfg.snapshot_every > 0 && (id + 1) % cfg.snapshot_every as u64 == 0 {
                seq += 1;
                for s in 0..nshards {
                    flush_seat(&mut txs, &mut joins, &mut seats, &mut extra, chaos, s, id);
                }
                let live: Vec<usize> = txs.keys().copied().collect();
                for s in &live {
                    if let Some(tx) = txs.get(s) {
                        let _ignored = tx.send(SupMsg::Tick { seq });
                    }
                }
                let mut acked: BTreeSet<usize> = BTreeSet::new();
                while acked.len() < live.len() {
                    match upd_rx.recv_timeout(watchdog) {
                        Ok(up) => {
                            let current = seats
                                .get(up.shard)
                                .is_some_and(|seat| seat.generation == up.generation);
                            if current && up.seq == seq && live.contains(&up.shard) {
                                last_regs.insert(up.shard, up.registry);
                                acked.insert(up.shard);
                            }
                        }
                        Err(_) => break,
                    }
                }
                for &s in &live {
                    if !acked.contains(&s) {
                        declare_dead(
                            &mut txs,
                            &mut joins,
                            &mut seats,
                            &mut extra,
                            chaos,
                            s,
                            FailureReason::Stalled,
                            id,
                        );
                    }
                }
                // Merge in ascending shard order, so every barrier's
                // snapshot is deterministic. Dead seats contribute
                // their last acknowledged state.
                let mut merged = MetricsRegistry::new();
                for seat_reg in last_regs.values() {
                    merged.merge(seat_reg);
                }
                if let Some(policy) = &sup.health {
                    health = policy.step(health, &merged);
                    let g = merged.gauge("serve.health");
                    merged.set(g, health.gauge_value());
                    let r = merged.gauge("serve.restarts");
                    merged.set(r, extra.restarts as f64);
                    extra.health_trace.push((seq, health));
                }
                snapshots.push(merged.snapshot(seq));
            }
        }

        // 5. Drain. Deliver the last chunks; then dead seats get one
        //    final recovery incarnation so their logged work is replayed
        //    and served, not shed.
        for s in 0..nshards {
            flush_seat(
                &mut txs,
                &mut joins,
                &mut seats,
                &mut extra,
                chaos,
                s,
                cfg.samples as u64,
            );
        }
        for s in 0..nshards {
            let due = seats.get(s).is_some_and(|seat| seat.resume_at.is_some());
            if !due {
                continue;
            }
            let Some(seat) = seats.get_mut(s) else {
                continue;
            };
            seat.resume_at = None;
            seat.generation += 1;
            let restore = seat.checkpoint();
            let generation = seat.generation;
            let (tx, rx) = sync_channel::<SupMsg>(capacity);
            joins.insert(s, spawn_seat(s, generation, restore, rx));
            txs.insert(s, tx);
        }
        // Hang up: every live seat drains, finishes and reports.
        txs.clear();

        let mut books: BTreeMap<usize, ShardDone> = BTreeMap::new();
        collect_books(&done_rx, &seats, &joins, &mut books, watchdog);

        // 6. One recovery round for seats that never reported (injected
        //    stalls the run never barriered over, or a late panic):
        //    count the failure, respawn from the log with the channel
        //    already closed — replay, finish, report.
        let missing: Vec<usize> = joins
            .keys()
            .filter(|s| !books.contains_key(s))
            .copied()
            .collect();
        if !missing.is_empty() {
            for &s in &missing {
                let panicked = joins.remove(&s).is_some_and(|h| h.join().is_err());
                let Some(seat) = seats.get_mut(s) else {
                    continue;
                };
                let reason = if panicked {
                    FailureReason::Panicked
                } else {
                    FailureReason::Unresponsive
                };
                extra.failures.push(ShardFailure {
                    shard: s,
                    generation: seat.generation,
                    reason,
                    at_draw: cfg.samples as u64,
                });
                seat.generation += 1;
                seat.restarts += 1;
                extra.restarts += 1;
                let restore = seat.checkpoint();
                let generation = seat.generation;
                let (tx, rx) = sync_channel::<SupMsg>(capacity);
                joins.insert(s, spawn_seat(s, generation, restore, rx));
                drop(tx);
            }
            collect_books(&done_rx, &seats, &joins, &mut books, watchdog);
        }

        // 7. Whatever still refuses to report: shed its entire log so
        //    conservation holds with every request accounted for.
        for (s, seat) in seats.iter().enumerate() {
            if !books.contains_key(&s) {
                for &(id, _, _) in &seat.log {
                    extra.shed_parts.insert(id);
                }
            }
        }

        // 8. Reap every remaining thread. Book-holders exit promptly;
        //    a panic after the books were collected is already
        //    accounted for, so swallow it rather than poison the scope.
        for (_, handle) in std::mem::take(&mut joins) {
            let _ignored = handle.join();
        }

        let dones: Vec<(usize, ShardDone)> = books.into_iter().collect();
        (dones, snapshots, extra)
    });

    assemble(sim, plan, cfg, nshards, submitted, dones, snapshots, extra)
}
