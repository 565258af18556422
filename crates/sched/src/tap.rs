//! The engine's trace tap: where every emitted [`TraceEntry`] leaves the
//! event loop.
//!
//! Two sinks may consume the trace: the online auditor
//! ([`AuditStream`]) and the span accountant ([`TimeAccountant`]). Both
//! are pure folds over the entry sequence, so they need not run on the
//! engine's thread. The engine folds the first `INLINE_ENTRIES` entries
//! itself, entry by entry: a short trace would pay more to start and
//! feed a thread than the thread saves it. Past that, on a host with a
//! second CPU, the sinks move to one consumer thread, and the engine only
//! appends entries to a fixed-size chunk and hands each full chunk over
//! a bounded channel. Emptied chunks come back on a return channel, so a
//! steady run allocates nothing.
//!
//! One producer and one FIFO channel deliver the entries to the sinks in
//! emission order, so verdicts, violation indices and budgets are those
//! of sinks fed inline (DESIGN §8). The in-flight trace is bounded: at
//! most `BOUND` chunks queued, one being consumed and one being filled,
//! i.e. `(BOUND + 2) × CHUNK` entries.
//!
//! The consumer thread is joined in [`Tap::finish`], which re-raises a
//! consumer panic so a broken sink can never yield a clean report, and
//! in `Drop`, which covers engines abandoned mid-run (a crashed or
//! stalled serve shard). No thread is ever detached.

use std::num::NonZeroUsize;
use std::sync::mpsc::{self, Receiver, SendError, Sender, SyncSender};
use std::thread::{self, JoinHandle};
use tapesim_des::audit::{AuditReport, AuditStream, TraceAuditor};
use tapesim_des::trace::TraceEntry;
use tapesim_des::{SimTime, TraceEvent};
use tapesim_obs::{TimeAccountant, TimeBudget, Topology};

/// Entries per hand-off chunk.
const CHUNK: usize = 4096;
/// Full chunks the channel holds before the engine waits for the
/// consumer.
const BOUND: usize = 4;
/// Entries the engine folds itself before the sinks move to a thread.
pub(crate) const INLINE_ENTRIES: usize = 2 * CHUNK;

#[cfg(test)]
thread_local! {
    /// While set, taps on this thread keep their sinks here for the whole
    /// run: the engine tests' reference runs.
    pub(crate) static INLINE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The engine's single trace-event tap. With both sinks off it holds
/// nothing and [`Tap::emit`] is one `None` check.
#[derive(Debug)]
pub(crate) struct Tap {
    pipe: Option<Box<Pipe>>,
}

impl Tap {
    /// A tap feeding an [`AuditStream`] of `audit` and a
    /// [`TimeAccountant`] over `spans`, each when given.
    pub(crate) fn new(audit: Option<TraceAuditor>, spans: Option<Topology>) -> Tap {
        let on = audit.is_some() || spans.is_some();
        let sinks = Sinks {
            audit: audit.as_ref().map(TraceAuditor::stream),
            spans: spans.map(TimeAccountant::new),
        };
        Tap {
            pipe: on.then(|| {
                Box::new(Pipe {
                    chunk: Vec::new(),
                    folded: 0,
                    consumer: Consumer::Here(Box::new(sinks)),
                })
            }),
        }
    }

    #[inline]
    pub(crate) fn emit(&mut self, time: SimTime, event: TraceEvent) {
        if let Some(pipe) = self.pipe.as_deref_mut() {
            pipe.push(TraceEntry { time, event });
        }
    }

    /// Closes both sinks: the audit report (none when auditing is off)
    /// and the time budget, booked against makespan `end`. Re-raises a
    /// panic of the consumer thread.
    pub(crate) fn finish(mut self, end: SimTime) -> (Vec<AuditReport>, Option<TimeBudget>) {
        match self.pipe.take() {
            Some(pipe) => (*pipe).close().finish(end),
            None => (Vec::new(), None),
        }
    }
}

impl Drop for Tap {
    /// An engine dropped without [`Tap::finish`]: disconnect and join
    /// the consumer, discarding its sinks (and any panic it raised,
    /// since a drop must not panic).
    fn drop(&mut self) {
        if let Some(pipe) = self.pipe.take() {
            if let Consumer::Thread { full, worker, .. } = pipe.consumer {
                drop(full);
                worker.join().ok();
            }
        }
    }
}

/// The two trace consumers.
#[derive(Debug, Default)]
struct Sinks {
    audit: Option<AuditStream>,
    spans: Option<TimeAccountant>,
}

impl Sinks {
    #[inline]
    fn push(&mut self, entry: &TraceEntry) {
        #[cfg(test)]
        tests::panic_on_poison(entry);
        if let Some(acc) = self.spans.as_mut() {
            acc.observe(entry.time, &entry.event);
        }
        if let Some(stream) = self.audit.as_mut() {
            stream.push(entry);
        }
    }

    /// Feeds `entries`, in order, to each sink. The sinks are
    /// independent, so one pass per sink gives the results of
    /// interleaving them entry by entry.
    fn push_all(&mut self, entries: &[TraceEntry]) {
        #[cfg(test)]
        entries.iter().for_each(tests::panic_on_poison);
        if let Some(acc) = self.spans.as_mut() {
            for entry in entries {
                acc.observe(entry.time, &entry.event);
            }
        }
        if let Some(stream) = self.audit.as_mut() {
            stream.push_all(entries);
        }
    }

    fn finish(self, end: SimTime) -> (Vec<AuditReport>, Option<TimeBudget>) {
        let budget = self.spans.map(|acc| acc.finish(end));
        let reports = self.audit.map(AuditStream::finish).into_iter().collect();
        (reports, budget)
    }
}

/// The engine's side of the tap.
#[derive(Debug)]
struct Pipe {
    /// The chunk being filled; used only once the sinks run on a thread.
    chunk: Vec<TraceEntry>,
    /// Entries folded on the engine's thread.
    folded: usize,
    consumer: Consumer,
}

#[derive(Debug)]
enum Consumer {
    /// The sinks run on the engine's thread, fed entry by entry.
    Here(Box<Sinks>),
    /// The sinks run on `worker`, fed full chunks through `full` (`None`
    /// once the worker hung up, which only a panic makes it do) and
    /// handing emptied ones back through `empty`.
    Thread {
        full: Option<SyncSender<Vec<TraceEntry>>>,
        empty: Receiver<Vec<TraceEntry>>,
        worker: JoinHandle<Sinks>,
    },
}

impl Pipe {
    #[inline]
    fn push(&mut self, entry: TraceEntry) {
        match &mut self.consumer {
            Consumer::Here(sinks) => {
                sinks.push(&entry);
                self.folded += 1;
                if self.folded == INLINE_ENTRIES {
                    self.offload();
                }
            }
            Consumer::Thread { .. } => {
                self.chunk.push(entry);
                if self.chunk.len() == CHUNK {
                    self.flush();
                }
            }
        }
    }

    /// Moves the sinks to a consumer thread when the host has a second
    /// CPU for it. Like the serve runtime's own spawns, a host that cannot
    /// start a thread panics here.
    #[cold]
    fn offload(&mut self) {
        #[cfg(test)]
        if INLINE.with(std::cell::Cell::get) {
            return;
        }
        if thread::available_parallelism().map_or(1, NonZeroUsize::get) < 2 {
            return;
        }
        if let Consumer::Here(sinks) = &mut self.consumer {
            let sinks = std::mem::take(sinks);
            let (full_tx, full_rx) = mpsc::sync_channel(BOUND);
            let (empty_tx, empty_rx) = mpsc::channel();
            let worker = thread::spawn(move || consume(*sinks, full_rx, empty_tx));
            self.chunk = Vec::with_capacity(CHUNK);
            self.consumer = Consumer::Thread {
                full: Some(full_tx),
                empty: empty_rx,
                worker,
            };
        }
    }

    /// Hands the current chunk to the consumer thread and begins an empty
    /// one.
    #[inline(never)]
    fn flush(&mut self) {
        let Consumer::Thread { full, empty, .. } = &mut self.consumer else {
            return;
        };
        let Some(tx) = full.as_ref() else {
            // The worker died; `close` re-raises its panic.
            self.chunk.clear();
            return;
        };
        // Send first, then take a spare: a fresh chunk is only allocated
        // while fewer than `BOUND + 2` exist.
        match tx.send(std::mem::take(&mut self.chunk)) {
            Ok(()) => {
                self.chunk = empty
                    .try_recv()
                    .unwrap_or_else(|_| Vec::with_capacity(CHUNK));
            }
            Err(SendError(mut chunk)) => {
                *full = None;
                chunk.clear();
                self.chunk = chunk;
            }
        }
    }

    /// Hands over the partial chunk, disconnects and joins the consumer,
    /// and returns its sinks with every entry folded in.
    fn close(mut self) -> Sinks {
        if !self.chunk.is_empty() {
            self.flush();
        }
        match self.consumer {
            Consumer::Here(sinks) => *sinks,
            Consumer::Thread { full, worker, .. } => {
                // Hanging up ends the worker's loop once it has drained
                // every queued chunk.
                drop(full);
                match worker.join() {
                    Ok(sinks) => sinks,
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
        }
    }
}

/// The consumer thread: folds each chunk into the sinks in arrival
/// order until the engine hangs up, then returns the sinks.
fn consume(
    mut sinks: Sinks,
    full: Receiver<Vec<TraceEntry>>,
    empty: Sender<Vec<TraceEntry>>,
) -> Sinks {
    for mut chunk in full {
        sinks.push_all(&chunk);
        chunk.clear();
        // A closing engine no longer takes spares; the chunk is freed.
        empty.send(chunk).ok();
    }
    sinks
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_des::trace::{DriveKey, TapeKey};

    /// Lengths around every boundary: the inline prefix, the first chunk
    /// handed to the thread, and a partial chunk after several.
    const LENGTHS: [usize; 9] = [
        0,
        1,
        INLINE_ENTRIES - 1,
        INLINE_ENTRIES,
        INLINE_ENTRIES + 1,
        INLINE_ENTRIES + CHUNK - 1,
        INLINE_ENTRIES + CHUNK,
        INLINE_ENTRIES + CHUNK + 1,
        INLINE_ENTRIES + 3 * CHUNK + 7,
    ];

    fn topology() -> Topology {
        Topology {
            libraries: 2,
            drives_per_library: 2,
            arms_per_library: 1,
            tapes_per_library: 4,
            load_secs: 19.0,
            unload_secs: 19.0,
        }
    }

    fn at(secs: f64, event: TraceEvent) -> TraceEntry {
        TraceEntry {
            time: SimTime::from_secs(secs),
            event,
        }
    }

    /// A clean engine-shaped trace of exactly `n` entries: one drive
    /// streams job after job from its mounted tape while a second drive
    /// exchanges tapes, with jam windows that no exchange meets padding
    /// the prologue to the requested length.
    fn clean_trace(n: usize) -> Vec<TraceEntry> {
        let d0 = DriveKey::pack(0, 0);
        let d1 = DriveKey::pack(0, 1);
        let tape = |slot| TapeKey::pack(0, slot);
        let mut body = vec![at(
            0.0,
            TraceEvent::AssumeMounted {
                drive: d0,
                tape: tape(0),
            },
        )];
        let mut t = 0.0;
        let mut job = 0u32;
        let mut swap = 1u32;
        while body.len() < n {
            let s = SimTime::from_secs(t);
            let f = SimTime::from_secs(t + 10.0);
            body.push(at(t, TraceEvent::JobSubmitted { job, tape: tape(0) }));
            body.push(at(
                t,
                TraceEvent::Transfer {
                    drive: d0,
                    tape: tape(0),
                    job,
                    extents: 1,
                    seek: SimTime::from_secs(2.0),
                    transfer: SimTime::from_secs(8.0),
                    start: s,
                    finish: f,
                },
            ));
            body.push(at(t + 10.0, TraceEvent::JobCompleted { job, drive: d0 }));
            if job % 4 == 0 {
                // Exchange a fresh tape onto drive 1, then give it up.
                let next = tape(1 + swap % 3);
                body.push(at(
                    t,
                    TraceEvent::ExchangeBegun {
                        drive: d1,
                        tape: next,
                        arm: 0,
                        start: s,
                        finish: f,
                    },
                ));
                body.push(at(
                    t + 10.0,
                    TraceEvent::Mounted {
                        drive: d1,
                        tape: next,
                    },
                ));
                body.push(at(
                    t + 10.0,
                    TraceEvent::Unmounted {
                        drive: d1,
                        tape: next,
                    },
                ));
                swap += 1;
            }
            // Order by emission time within this job's entries.
            let tail = body.len() - if job % 4 == 0 { 6 } else { 3 };
            body[tail..].sort_by_key(|e| e.time);
            job += 1;
            t += 20.0;
        }
        // Whole jobs overshoot `n`: drop them, then pad the prologue.
        while body.len() > n {
            let keep = body
                .iter()
                .rposition(|e| matches!(e.event, TraceEvent::JobSubmitted { .. }))
                .unwrap_or(0);
            body.truncate(keep);
        }
        let pad = n - body.len();
        let jams = (0..pad).map(|k| {
            let start = 1e9 + 10.0 * k as f64;
            at(
                0.0,
                TraceEvent::RobotJammed {
                    library: 1,
                    start: SimTime::from_secs(start),
                    finish: SimTime::from_secs(start + 5.0),
                },
            )
        });
        let mut trace: Vec<TraceEntry> = jams.collect();
        trace.extend(body);
        trace
    }

    /// `clean_trace(n)` whose final entry completes a job nobody
    /// submitted: a violation in the last, partial chunk.
    fn dirty_trace(n: usize) -> Vec<TraceEntry> {
        let mut trace = clean_trace(n);
        if let Some(last) = trace.last_mut() {
            *last = at(
                last.time.as_secs(),
                TraceEvent::JobCompleted {
                    job: 1_000_000,
                    drive: DriveKey::pack(0, 0),
                },
            );
        }
        trace
    }

    fn feed(mut tap: Tap, trace: &[TraceEntry]) -> (Vec<AuditReport>, Option<TimeBudget>) {
        for e in trace {
            tap.emit(e.time, e.event);
        }
        let end = trace.last().map_or(SimTime::ZERO, |e| e.time);
        tap.finish(end)
    }

    /// [`feed`] with the sinks kept on this thread for the whole run.
    fn feed_inline(tap: Tap, trace: &[TraceEntry]) -> (Vec<AuditReport>, Option<TimeBudget>) {
        INLINE.with(|c| c.set(true));
        let out = feed(tap, trace);
        INLINE.with(|c| c.set(false));
        out
    }

    /// Sinks fed directly, entry by entry: the results the pipe must
    /// reproduce.
    fn direct(trace: &[TraceEntry], auditor: &TraceAuditor) -> (AuditReport, TimeBudget) {
        let mut stream = auditor.stream();
        let mut acc = TimeAccountant::new(topology());
        for e in trace {
            acc.observe(e.time, &e.event);
            stream.push(e);
        }
        let end = trace.last().map_or(SimTime::ZERO, |e| e.time);
        (stream.finish(), acc.finish(end))
    }

    /// Across every boundary, on clean traces and on traces with a
    /// violation in the last, partial chunk, the tap gives the report and
    /// the budget of sinks fed directly, bit for bit and violation index
    /// for violation index, with the sinks moving to a thread and kept
    /// on this one alike.
    #[test]
    fn the_pipe_matches_direct_sinks_at_every_chunk_boundary() {
        let auditor = TraceAuditor::new().with_retry_cap(3);
        for n in LENGTHS {
            for (dirty, trace) in [(false, clean_trace(n)), (true, dirty_trace(n))] {
                assert_eq!(trace.len(), n);
                let (report, budget) = direct(&trace, &auditor);
                // The fixtures are what they claim: clean, or flagged at
                // their last entry.
                let flagged_last = report.violations.iter().any(|v| v.index + 1 == n);
                assert_eq!(report.is_clean(), !dirty || n == 0, "n = {n}: {report}");
                assert_eq!(flagged_last, dirty && n > 0, "n = {n}: {report}");
                let both = || Tap::new(Some(auditor.clone()), Some(topology()));
                for (reports, got) in [feed(both(), &trace), feed_inline(both(), &trace)] {
                    assert_eq!(reports, vec![report.clone()], "n = {n}");
                    assert_eq!(got.as_ref(), Some(&budget), "n = {n}");
                }
                let (reports, none) = feed(Tap::new(Some(auditor.clone()), None), &trace);
                assert_eq!(reports, vec![report.clone()], "n = {n}");
                assert!(none.is_none());
                let (empty, got) = feed(Tap::new(None, Some(topology())), &trace);
                assert!(empty.is_empty());
                assert_eq!(got, Some(budget), "n = {n}");
            }
        }
    }

    #[test]
    fn both_sinks_off_spawn_nothing_and_report_nothing() {
        let tap = Tap::new(None, None);
        assert!(tap.pipe.is_none());
        let (reports, budget) = feed(tap, &clean_trace(10));
        assert!(reports.is_empty() && budget.is_none());
    }

    /// The sinks stay on the engine's thread for the inline prefix and
    /// then move to a consumer thread, when the host has a second CPU.
    #[test]
    fn the_sinks_move_to_a_thread_after_the_inline_prefix() {
        let trace = clean_trace(INLINE_ENTRIES);
        let mut tap = Tap::new(Some(TraceAuditor::new()), None);
        let threaded = |tap: &Tap| {
            tap.pipe
                .as_ref()
                .map(|p| matches!(p.consumer, Consumer::Thread { .. }))
        };
        for e in &trace[..INLINE_ENTRIES - 1] {
            tap.emit(e.time, e.event);
        }
        assert_eq!(threaded(&tap), Some(false));
        let last = trace[INLINE_ENTRIES - 1];
        tap.emit(last.time, last.event);
        let cpus = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(threaded(&tap), Some(cpus > 1));
    }

    /// A tap dropped mid-run (a crashed shard) joins its consumer
    /// without waiting for `finish`.
    #[test]
    fn a_dropped_tap_joins_its_consumer() {
        let mut tap = Tap::new(Some(TraceAuditor::new()), Some(topology()));
        for e in clean_trace(INLINE_ENTRIES + 2 * CHUNK + 3) {
            tap.emit(e.time, e.event);
        }
        drop(tap);
    }

    /// The loss of this job id makes the sinks panic, standing in for a
    /// broken sink.
    const POISON: u32 = u32::MAX;

    pub(super) fn panic_on_poison(entry: &TraceEntry) {
        let poisoned = matches!(entry.event, TraceEvent::JobLost { job: POISON });
        assert!(!poisoned, "poisoned trace entry");
    }

    /// A sink that panics, in the inline prefix, in the first chunk on
    /// the thread or in the last, surfaces from `finish`: it never turns
    /// into a clean (or empty) report.
    #[test]
    fn a_consumer_panic_resurfaces_from_finish() {
        let n = INLINE_ENTRIES + 3 * CHUNK + 7;
        for poison_at in [10, INLINE_ENTRIES + 10, n - 3] {
            let mut trace = clean_trace(n);
            trace[poison_at].event = TraceEvent::JobLost { job: POISON };
            let outcome = std::panic::catch_unwind(|| {
                feed(
                    Tap::new(Some(TraceAuditor::new()), Some(topology())),
                    &trace,
                )
            });
            let payload = outcome.expect_err("a broken sink must not yield a report");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"poisoned trace entry"),
                "poison at {poison_at}"
            );
        }
    }
}
