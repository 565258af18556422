//! Invariant auditing over recorded traces.
//!
//! [`TraceAuditor`] replays a [`crate::trace::Tracer`] transcript through a
//! small state machine and checks the physical invariants every legal tape
//! schedule must satisfy:
//!
//! 1. **Monotone time** — events are emitted at non-decreasing timestamps.
//! 2. **Drive exclusivity** — no two transfer windows overlap on one drive.
//! 3. **Robot exclusivity** — no two exchanges overlap on one robot arm of
//!    one library.
//! 4. **Load/unload pairing** — a drive unloads only what it holds, starts
//!    an exchange only while empty, and a mount completes only the
//!    exchange that was begun for it.
//! 5. **Mount-before-read** — a transfer streams only from the tape the
//!    drive currently holds.
//! 6. **Exactly-once service** — every submitted job completes exactly
//!    once, from the tape it was submitted for, and never streams again
//!    after completing.
//! 7. **Causality** — no job's transfer window starts, and no completion
//!    fires, before the job was submitted.
//! 8. **No service on a failed drive** — once a `DriveFailed` records a
//!    failure instant, no transfer or exchange window on that drive may
//!    extend past it (the failure is *noticed* later, so the check runs
//!    over all windows at the end).
//! 9. **No exchange during a jam** — exchange windows avoid every
//!    `RobotJammed` window of their library.
//! 10. **Fault resolution** — every fatal `ReadFaulted` ends in exactly
//!     one `JobLost` or `FailedOver` (whose replacement job is really
//!     submitted); losses and failovers happen only with a fault to blame;
//!     retries stay within the configured cap
//!     ([`TraceAuditor::with_retry_cap`]). Lost or failed-over jobs count
//!     as terminally dispatched, not as never-completed.
//!
//! Batched service is legal: one `Mounted` may be followed by many
//! `Transfer` windows for *different* jobs on the same tape (a single
//! mount amortised over a batch), as long as the windows are disjoint per
//! drive and each job still completes exactly once.
//!
//! The auditor is deliberately independent of the scheduling logic: it
//! never consults the simulator's data structures, only the trace. A bug
//! that corrupts both the schedule and the metrics in a consistent way
//! still trips here as long as the emitted intervals disagree with
//! physical reality.

use crate::time::SimTime;
use crate::trace::{DriveKey, TapeKey, TraceEntry, TraceEvent};
use std::collections::BTreeMap;
use std::fmt;

/// Slack for comparing interval endpoints, absorbing floating-point
/// rounding in back-to-back schedules (seconds).
const EPSILON: f64 = 1e-9;

/// One invariant breach, anchored to the trace entry that revealed it.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Index into the audited entry slice.
    pub index: usize,
    /// Timestamp of the offending entry.
    pub time: SimTime,
    /// What went wrong.
    pub kind: ViolationKind,
}

/// The invariant families a trace can breach.
#[derive(Debug, Clone, PartialEq)]
pub enum ViolationKind {
    /// Entry timestamp went backwards relative to its predecessor.
    TimeWentBackwards { previous: SimTime },
    /// Two transfer windows overlap on one drive.
    DriveOverlap {
        drive: DriveKey,
        first_finish: SimTime,
        second_start: SimTime,
    },
    /// Two exchanges overlap on one robot arm.
    RobotOverlap {
        library: u16,
        arm: u32,
        first_finish: SimTime,
        second_start: SimTime,
    },
    /// A drive unloaded a tape it did not hold.
    UnmountMismatch {
        drive: DriveKey,
        claimed: TapeKey,
        actual: Option<TapeKey>,
    },
    /// An exchange began while the drive still held a tape.
    ExchangeWhileMounted { drive: DriveKey, held: TapeKey },
    /// A mount completed with no matching exchange begun.
    MountWithoutExchange {
        drive: DriveKey,
        tape: TapeKey,
        expected: Option<TapeKey>,
    },
    /// A drive was declared pre-mounted while already holding a tape.
    DuplicateAssume { drive: DriveKey },
    /// A transfer streamed from a tape the drive did not hold.
    ReadWithoutMount {
        drive: DriveKey,
        tape: TapeKey,
        held: Option<TapeKey>,
    },
    /// An interval event finished before it started.
    NegativeInterval { start: SimTime, finish: SimTime },
    /// The same job index was submitted twice.
    DuplicateSubmit { job: u32 },
    /// A transfer or completion referenced a job never submitted.
    UnknownJob { job: u32 },
    /// A transfer streamed a job from a different tape than submitted.
    WrongTapeForJob {
        job: u32,
        submitted: TapeKey,
        streamed: TapeKey,
    },
    /// A job completed more than once.
    CompletedTwice { job: u32 },
    /// A job's service (transfer start or completion) preceded its
    /// submission.
    ServedBeforeSubmit {
        job: u32,
        submitted: SimTime,
        start: SimTime,
    },
    /// A job streamed again after already completing.
    TransferAfterCompletion { job: u32 },
    /// Submitted jobs never completed by the end of the trace.
    NeverCompleted { jobs: Vec<u32> },
    /// A transfer or exchange window on a drive extends past the drive's
    /// recorded failure instant.
    ServiceOnFailedDrive {
        drive: DriveKey,
        failed_at: SimTime,
        finish: SimTime,
    },
    /// An exchange window overlaps a robot jam window of its library.
    ExchangeDuringJam {
        library: u16,
        arm: u32,
        start: SimTime,
    },
    /// A read burned more retries than the configured budget allows.
    RetriesExceeded { job: u32, retries: u32, cap: u32 },
    /// A job was declared lost or failed over without any fault (a fatal
    /// read on that job, or a drive failure) to justify it.
    ResolvedWithoutFault { job: u32 },
    /// A fatal read fault was never resolved by a loss or a failover.
    UnresolvedFault { job: u32 },
    /// A failover named a replacement job that was never submitted.
    FailoverWithoutSubmit { job: u32, replacement: u32 },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "entry {} at {}: ", self.index, self.time)?;
        match &self.kind {
            ViolationKind::TimeWentBackwards { previous } => {
                write!(f, "time went backwards (previous entry at {previous})")
            }
            ViolationKind::DriveOverlap {
                drive,
                first_finish,
                second_start,
            } => write!(
                f,
                "overlapping transfers on {drive}: one runs until {first_finish}, \
                 the next starts at {second_start}"
            ),
            ViolationKind::RobotOverlap {
                library,
                arm,
                first_finish,
                second_start,
            } => write!(
                f,
                "overlapping exchanges on L{library} arm {arm}: one runs until \
                 {first_finish}, the next starts at {second_start}"
            ),
            ViolationKind::UnmountMismatch {
                drive,
                claimed,
                actual,
            } => match actual {
                Some(held) => write!(f, "{drive} unloads {claimed} but holds {held}"),
                None => write!(f, "{drive} unloads {claimed} but holds nothing"),
            },
            ViolationKind::ExchangeWhileMounted { drive, held } => {
                write!(f, "{drive} begins an exchange while still holding {held}")
            }
            ViolationKind::MountWithoutExchange {
                drive,
                tape,
                expected,
            } => match expected {
                Some(e) => write!(
                    f,
                    "{drive} mounted {tape} but the pending exchange was for {e}"
                ),
                None => write!(f, "{drive} mounted {tape} with no exchange begun"),
            },
            ViolationKind::DuplicateAssume { drive } => {
                write!(f, "{drive} declared pre-mounted twice")
            }
            ViolationKind::ReadWithoutMount { drive, tape, held } => match held {
                Some(h) => write!(f, "{drive} streams from {tape} but holds {h}"),
                None => write!(f, "{drive} streams from {tape} but holds nothing"),
            },
            ViolationKind::NegativeInterval { start, finish } => {
                write!(f, "interval finishes at {finish}, before its start {start}")
            }
            ViolationKind::DuplicateSubmit { job } => {
                write!(f, "job {job} submitted twice")
            }
            ViolationKind::UnknownJob { job } => {
                write!(f, "job {job} referenced but never submitted")
            }
            ViolationKind::WrongTapeForJob {
                job,
                submitted,
                streamed,
            } => write!(
                f,
                "job {job} was submitted for {submitted} but streamed from {streamed}"
            ),
            ViolationKind::CompletedTwice { job } => {
                write!(f, "job {job} completed twice")
            }
            ViolationKind::ServedBeforeSubmit {
                job,
                submitted,
                start,
            } => write!(
                f,
                "job {job} served from {start}, before its submission at {submitted}"
            ),
            ViolationKind::TransferAfterCompletion { job } => {
                write!(f, "job {job} streamed again after completing")
            }
            ViolationKind::NeverCompleted { jobs } => {
                write!(f, "submitted jobs never completed: {jobs:?}")
            }
            ViolationKind::ServiceOnFailedDrive {
                drive,
                failed_at,
                finish,
            } => write!(
                f,
                "{drive} failed at {failed_at} but a window on it runs until {finish}"
            ),
            ViolationKind::ExchangeDuringJam {
                library,
                arm,
                start,
            } => write!(
                f,
                "exchange on L{library} arm {arm} starting {start} overlaps a robot jam"
            ),
            ViolationKind::RetriesExceeded { job, retries, cap } => {
                write!(f, "job {job} burned {retries} retries (budget {cap})")
            }
            ViolationKind::ResolvedWithoutFault { job } => {
                write!(f, "job {job} lost or failed over with no fault to blame")
            }
            ViolationKind::UnresolvedFault { job } => {
                write!(f, "job {job} hit a fatal read fault but was never resolved")
            }
            ViolationKind::FailoverWithoutSubmit { job, replacement } => write!(
                f,
                "job {job} failed over to job {replacement}, which was never submitted"
            ),
        }
    }
}

/// Summary of one audit pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Number of entries examined.
    pub entries: usize,
    /// Number of distinct jobs submitted in the trace.
    pub jobs: usize,
    /// Number of transfer windows checked for drive exclusivity.
    pub transfers: usize,
    /// Number of exchanges checked for robot exclusivity.
    pub exchanges: usize,
    /// Number of read-fault events seen.
    pub faults: usize,
    /// Number of jobs declared terminally lost.
    pub losses: usize,
    /// Number of failovers to replica jobs.
    pub failovers: usize,
    /// Every breach found, in trace order.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// Whether the trace satisfied every invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "audited {} entries ({} jobs, {} transfers, {} exchanges): {}",
            self.entries,
            self.jobs,
            self.transfers,
            self.exchanges,
            if self.is_clean() {
                "clean".to_string()
            } else {
                format!("{} violation(s)", self.violations.len())
            }
        )?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// Replays traces and reports invariant breaches.
///
/// Stateless between calls; construct once and [`audit`](Self::audit) any
/// number of traces. A trace must cover one contiguous stretch of one
/// clock: either a single per-request service (the per-request clock
/// restarts at zero, so entries from different requests must not be
/// concatenated into one audit) or one whole scheduled run in which jobs
/// are submitted on arrival and served in batches.
#[derive(Debug, Default, Clone)]
pub struct TraceAuditor {
    /// When set, `ReadFaulted` events burning more retries than this are
    /// flagged ([`ViolationKind::RetriesExceeded`]). The auditor cannot
    /// know the fault model's budget from the trace alone, so the runner
    /// passes it in.
    retry_cap: Option<u32>,
}

impl TraceAuditor {
    /// A fresh auditor.
    pub fn new() -> Self {
        TraceAuditor::default()
    }

    /// Enforces the per-job retry budget on `ReadFaulted` events.
    pub fn with_retry_cap(mut self, cap: u32) -> Self {
        self.retry_cap = Some(cap);
        self
    }

    /// Checks `entries` against every invariant and reports all breaches:
    /// a [`stream`](Self::stream) fed the whole slice.
    pub fn audit(&self, entries: &[TraceEntry]) -> AuditReport {
        let mut s = self.stream();
        s.push_all(entries);
        s.finish()
    }

    /// Begins a streaming audit: feed entries one at a time with
    /// [`AuditStream::push`] as the simulation emits them, then collect
    /// the verdict with [`AuditStream::finish`], without the caller ever
    /// materialising a trace `Vec`. [`audit`](Self::audit) is this
    /// stream over a slice, so both give the same report.
    pub fn stream(&self) -> AuditStream {
        AuditStream {
            retry_cap: self.retry_cap,
            ..AuditStream::default()
        }
    }
}

/// An in-flight streaming audit (see [`TraceAuditor::stream`]): the one
/// auditor body.
///
/// It consumes entries online and never keeps an entry or its event
/// payload. Per-job facts live in a packed table indexed by job id
/// (engines number jobs densely from zero): one `(tape, submitted_at)`
/// slot and one state byte per id. Ids far past the entries seen so far
/// go to a sparse map instead, so a malformed trace naming `u32::MAX`
/// costs one map entry, not gigabytes. Each drive's state (mount,
/// pending exchange, failure instant, busy windows) and each robot arm's
/// windows sit in tables indexed by library and bay or arm, with the
/// same sparse fallback past 256 libraries, bays or arms.
///
/// Drive and robot exclusivity are defined on *start-sorted adjacent
/// pairs* over the whole run, ties kept in arrival order, and
/// `DriveFailed` may name an instant in the past and so indict windows
/// streamed long before. The `(index, start, finish)` window triples are
/// therefore retained per drive and per arm, never the entries that
/// produced them, and [`finish`](Self::finish) sorts and sweeps them.
/// Engines emit each resource's windows in start order, and the stable
/// sort is linear on sorted input.
#[derive(Debug, Default)]
pub struct AuditStream {
    retry_cap: Option<u32>,
    /// Index the next pushed entry will get (= entries seen so far).
    index: usize,
    prev_time: SimTime,
    /// Counters and inline violations accumulate here as entries arrive;
    /// [`AuditStream::finish`] appends the end-of-trace passes.
    report: AuditReport,
    jobs: Jobs,
    drives: Dense<Drive>,
    /// Exchange windows per `(library, arm)`, in arrival order.
    arms: Dense<Vec<Window>>,
    any_drive_failed: bool,
    jam_windows: BTreeMap<u16, Vec<(SimTime, SimTime)>>,
    fatal_faults: BTreeMap<u32, SimTime>,
    failover_edges: Vec<(usize, SimTime, u32, u32)>,
}

impl AuditStream {
    /// Consumes one trace entry, checking every inline invariant.
    pub fn push(&mut self, entry: &TraceEntry) {
        let index = self.index;
        self.index += 1;
        let flag = |sink: &mut Vec<Violation>, kind: ViolationKind| {
            sink.push(Violation {
                index,
                time: entry.time,
                kind,
            });
        };
        // Job ids below this bound may grow the dense table.
        let dense_limit = self.index.saturating_mul(2).saturating_add(DENSE_SLACK);
        let eps = SimTime::from_secs(EPSILON);

        if entry.time < self.prev_time {
            flag(
                &mut self.report.violations,
                ViolationKind::TimeWentBackwards {
                    previous: self.prev_time,
                },
            );
        }
        self.prev_time = self.prev_time.max(entry.time);

        match entry.event {
            TraceEvent::AssumeMounted { drive, tape } => {
                let d = self.drives.get_mut(drive.library(), drive.bay().into());
                if d.mounted.is_some() {
                    flag(
                        &mut self.report.violations,
                        ViolationKind::DuplicateAssume { drive },
                    );
                }
                d.mounted = Some(tape);
            }
            TraceEvent::JobSubmitted { job, tape } => {
                if self.jobs.submit(job, tape, entry.time, dense_limit) {
                    flag(
                        &mut self.report.violations,
                        ViolationKind::DuplicateSubmit { job },
                    );
                }
            }
            TraceEvent::Unmounted { drive, tape } => {
                let actual = self
                    .drives
                    .get_mut(drive.library(), drive.bay().into())
                    .mounted
                    .take();
                if actual != Some(tape) {
                    flag(
                        &mut self.report.violations,
                        ViolationKind::UnmountMismatch {
                            drive,
                            claimed: tape,
                            actual,
                        },
                    );
                }
            }
            TraceEvent::ExchangeBegun {
                drive,
                tape,
                arm,
                start,
                finish,
            } => {
                self.report.exchanges += 1;
                let d = self.drives.get_mut(drive.library(), drive.bay().into());
                if let Some(held) = d.mounted {
                    flag(
                        &mut self.report.violations,
                        ViolationKind::ExchangeWhileMounted { drive, held },
                    );
                }
                if finish < start {
                    flag(
                        &mut self.report.violations,
                        ViolationKind::NegativeInterval { start, finish },
                    );
                }
                d.pending_exchange = Some(tape);
                d.exchanges.push((index, start, finish));
                self.arms
                    .get_mut(drive.library(), arm)
                    .push((index, start, finish));
            }
            TraceEvent::Mounted { drive, tape } => {
                let d = self.drives.get_mut(drive.library(), drive.bay().into());
                let expected = d.pending_exchange.take();
                if expected != Some(tape) {
                    flag(
                        &mut self.report.violations,
                        ViolationKind::MountWithoutExchange {
                            drive,
                            tape,
                            expected,
                        },
                    );
                }
                d.mounted = Some(tape);
            }
            TraceEvent::Transfer {
                drive,
                tape,
                job,
                start,
                finish,
                ..
            } => {
                self.report.transfers += 1;
                let d = self.drives.get_mut(drive.library(), drive.bay().into());
                let held = d.mounted;
                if held != Some(tape) {
                    flag(
                        &mut self.report.violations,
                        ViolationKind::ReadWithoutMount { drive, tape, held },
                    );
                }
                if finish < start {
                    flag(
                        &mut self.report.violations,
                        ViolationKind::NegativeInterval { start, finish },
                    );
                }
                let (state, sub, at) = self.jobs.get(job);
                if state & SUBMITTED == 0 {
                    flag(
                        &mut self.report.violations,
                        ViolationKind::UnknownJob { job },
                    );
                } else if sub != tape {
                    flag(
                        &mut self.report.violations,
                        ViolationKind::WrongTapeForJob {
                            job,
                            submitted: sub,
                            streamed: tape,
                        },
                    );
                } else if start + eps < at {
                    flag(
                        &mut self.report.violations,
                        ViolationKind::ServedBeforeSubmit {
                            job,
                            submitted: at,
                            start,
                        },
                    );
                }
                if state & DONE != 0 {
                    flag(
                        &mut self.report.violations,
                        ViolationKind::TransferAfterCompletion { job },
                    );
                }
                d.transfers.push((index, start, finish));
            }
            TraceEvent::JobCompleted { job, .. } => {
                let (state, _, at) = self.jobs.close(job, dense_limit);
                if state & SUBMITTED == 0 {
                    flag(
                        &mut self.report.violations,
                        ViolationKind::UnknownJob { job },
                    );
                } else if entry.time + eps < at {
                    flag(
                        &mut self.report.violations,
                        ViolationKind::ServedBeforeSubmit {
                            job,
                            submitted: at,
                            start: entry.time,
                        },
                    );
                }
                if state & DONE != 0 {
                    flag(
                        &mut self.report.violations,
                        ViolationKind::CompletedTwice { job },
                    );
                }
            }
            TraceEvent::DriveFailed { drive, at } => {
                self.drives
                    .get_mut(drive.library(), drive.bay().into())
                    .failed_at
                    .get_or_insert(at);
                self.any_drive_failed = true;
            }
            TraceEvent::RobotJammed {
                library,
                start,
                finish,
            } => {
                if finish < start {
                    flag(
                        &mut self.report.violations,
                        ViolationKind::NegativeInterval { start, finish },
                    );
                }
                self.jam_windows
                    .entry(library as u16)
                    .or_default()
                    .push((start, finish));
            }
            TraceEvent::ReadFaulted {
                job,
                retries,
                fatal,
                ..
            } => {
                self.report.faults += 1;
                if self.jobs.get(job).0 & SUBMITTED == 0 {
                    flag(
                        &mut self.report.violations,
                        ViolationKind::UnknownJob { job },
                    );
                }
                if let Some(cap) = self.retry_cap {
                    if retries > cap {
                        flag(
                            &mut self.report.violations,
                            ViolationKind::RetriesExceeded { job, retries, cap },
                        );
                    }
                }
                if fatal {
                    self.fatal_faults.entry(job).or_insert(entry.time);
                }
            }
            TraceEvent::JobLost { job } | TraceEvent::FailedOver { job, .. } => {
                if let TraceEvent::JobLost { .. } = entry.event {
                    self.report.losses += 1;
                } else {
                    self.report.failovers += 1;
                }
                let (state, ..) = self.jobs.close(job, dense_limit);
                if state & SUBMITTED == 0 {
                    flag(
                        &mut self.report.violations,
                        ViolationKind::UnknownJob { job },
                    );
                }
                if !self.any_drive_failed && !self.fatal_faults.contains_key(&job) {
                    flag(
                        &mut self.report.violations,
                        ViolationKind::ResolvedWithoutFault { job },
                    );
                }
                if state & DONE != 0 {
                    flag(
                        &mut self.report.violations,
                        ViolationKind::CompletedTwice { job },
                    );
                }
                if let TraceEvent::FailedOver { job, replacement } = entry.event {
                    self.failover_edges
                        .push((index, entry.time, job, replacement));
                }
            }
        }
    }

    /// Consumes every entry of `entries` in order.
    pub fn push_all(&mut self, entries: &[TraceEntry]) {
        for entry in entries {
            self.push(entry);
        }
    }

    /// Runs the end-of-trace passes (exclusivity, failed-drive forensics,
    /// jam overlap, fault-resolution accounting, exactly-once service)
    /// and returns the complete report, violations sorted by entry index.
    pub fn finish(self) -> AuditReport {
        let AuditStream {
            index: entries,
            prev_time,
            mut report,
            jobs,
            drives,
            arms,
            jam_windows,
            fatal_faults,
            failover_edges,
            ..
        } = self;
        report.entries = entries;
        report.jobs = jobs.submitted;
        let last = entries.saturating_sub(1);
        let eps = SimTime::from_secs(EPSILON);

        // Each pass below yields at most one violation per entry index,
        // so after the final stable sort by index the order of the passes
        // decides ties: overlaps, failed drives, jams, faults, failovers,
        // never-completed.
        let mut drives: Vec<(DriveKey, Drive)> = drives
            .into_sorted()
            .into_iter()
            .map(|((library, bay), d)| (DriveKey::pack(library, bay as u16), d))
            .collect();
        let mut arms = arms.into_sorted();
        for (drive, d) in &mut drives {
            let drive = *drive;
            for (index, first_finish, second_start) in sweep(&mut d.transfers) {
                report.violations.push(Violation {
                    index,
                    time: second_start,
                    kind: ViolationKind::DriveOverlap {
                        drive,
                        first_finish,
                        second_start,
                    },
                });
            }
        }
        for ((library, arm), windows) in &mut arms {
            let (library, arm) = (*library, *arm);
            for (index, first_finish, second_start) in sweep(windows) {
                report.violations.push(Violation {
                    index,
                    time: second_start,
                    kind: ViolationKind::RobotOverlap {
                        library,
                        arm,
                        first_finish,
                        second_start,
                    },
                });
            }
        }

        for &(drive, ref d) in &drives {
            let Some(failed_at) = d.failed_at else {
                continue;
            };
            for &(index, _, finish) in d.transfers.iter().chain(&d.exchanges) {
                if finish > failed_at + eps {
                    report.violations.push(Violation {
                        index,
                        time: finish,
                        kind: ViolationKind::ServiceOnFailedDrive {
                            drive,
                            failed_at,
                            finish,
                        },
                    });
                }
            }
        }

        for &((library, arm), ref windows) in &arms {
            let Some(jams) = jam_windows.get(&library) else {
                continue;
            };
            for &(index, start, finish) in windows {
                let overlaps_jam = jams
                    .iter()
                    .any(|&(js, jf)| start + eps < jf && js + eps < finish);
                if overlaps_jam {
                    report.violations.push(Violation {
                        index,
                        time: start,
                        kind: ViolationKind::ExchangeDuringJam {
                            library,
                            arm,
                            start,
                        },
                    });
                }
            }
        }

        for (&job, &at) in &fatal_faults {
            if jobs.get(job).0 & DONE == 0 {
                report.violations.push(Violation {
                    index: last,
                    time: at,
                    kind: ViolationKind::UnresolvedFault { job },
                });
            }
        }

        for &(index, time, job, replacement) in &failover_edges {
            if jobs.get(replacement).0 & SUBMITTED == 0 {
                report.violations.push(Violation {
                    index,
                    time,
                    kind: ViolationKind::FailoverWithoutSubmit { job, replacement },
                });
            }
        }

        let unserved = jobs.unserved();
        if !unserved.is_empty() {
            report.violations.push(Violation {
                index: last,
                time: prev_time,
                kind: ViolationKind::NeverCompleted { jobs: unserved },
            });
        }

        report.violations.sort_by_key(|v| v.index);
        report
    }
}

/// A busy window: the emitting entry's index plus `[start, finish]`.
type Window = (usize, SimTime, SimTime);

/// Sorts `windows` by start time and yields `(entry index, previous
/// finish, this start)` for every pair of consecutive windows that
/// overlap by more than [`EPSILON`].
fn sweep(windows: &mut [Window]) -> Vec<Window> {
    windows.sort_by_key(|w| w.1);
    let eps = SimTime::from_secs(EPSILON);
    let mut found = Vec::new();
    for (&(_, _, prev_finish), &(index, start, _)) in windows.iter().zip(windows.iter().skip(1)) {
        if start + eps < prev_finish {
            found.push((index, prev_finish, start));
        }
    }
    found
}

/// Job ids below twice the entries seen so far plus this slack grow the
/// dense job table; ids beyond it go to the sparse map.
const DENSE_SLACK: usize = 1 << 12;

/// The dense job table grows by at least this many ids at a time. A
/// fixed step rather than doubling: the table is filled as it grows, so
/// every slot past the last id is resident memory, and doubling added
/// ~2 MB to the peak of a 10,000-request `serve_run`.
const JOB_TABLE_STEP: usize = 1 << 12;

/// Job state bits.
const SUBMITTED: u8 = 1;
/// Completed, lost or failed over: every later completion, resolution
/// or transfer of the job is a violation.
const DONE: u8 = 1 << 1;

/// `(tape, submitted_at)` of a job, meaningful only once `SUBMITTED`.
type JobSlot = (TapeKey, SimTime);

const NO_SLOT: JobSlot = (TapeKey(0), SimTime::ZERO);

/// Per-job lifecycle facts: a dense table indexed by job id, 17 bytes
/// per id, plus a sparse map for ids too far past the table to grow it.
/// Every sparse id is at least `state.len()`, so ascending dense ids
/// followed by the sparse map's keys is ascending id order.
#[derive(Debug, Default)]
struct Jobs {
    slots: Vec<JobSlot>,
    state: Vec<u8>,
    sparse: BTreeMap<u32, (u8, JobSlot)>,
    /// Distinct submitted ids.
    submitted: usize,
}

impl Jobs {
    /// The job's state bits and slot (zeroes for an id never seen).
    fn get(&self, id: u32) -> (u8, TapeKey, SimTime) {
        let i = id as usize;
        let (state, (tape, at)) = match (self.state.get(i), self.slots.get(i)) {
            (Some(&state), Some(&slot)) => (state, slot),
            _ => self.sparse.get(&id).copied().unwrap_or((0, NO_SLOT)),
        };
        (state, tape, at)
    }

    /// Applies `f` to the job's state bits and slot, first growing the
    /// dense table to cover `id` when `id < dense_limit`.
    fn update<R>(
        &mut self,
        id: u32,
        dense_limit: usize,
        f: impl FnOnce(&mut u8, &mut JobSlot) -> R,
    ) -> R {
        let i = id as usize;
        if i >= self.state.len() && i < dense_limit {
            self.grow_to(id, dense_limit);
        }
        match (self.state.get_mut(i), self.slots.get_mut(i)) {
            (Some(state), Some(slot)) => f(state, slot),
            _ => {
                let (state, slot) = self.sparse.entry(id).or_insert((0, NO_SLOT));
                f(state, slot)
            }
        }
    }

    /// Records a submission; returns whether `id` was already submitted
    /// (the new tape and instant replace the old ones either way).
    fn submit(&mut self, id: u32, tape: TapeKey, at: SimTime, dense_limit: usize) -> bool {
        let again = self.update(id, dense_limit, |state, slot| {
            let was = *state;
            *state |= SUBMITTED;
            *slot = (tape, at);
            was & SUBMITTED != 0
        });
        if !again {
            self.submitted += 1;
        }
        again
    }

    /// Marks the job done and returns its state bits and slot from
    /// before.
    fn close(&mut self, id: u32, dense_limit: usize) -> (u8, TapeKey, SimTime) {
        self.update(id, dense_limit, |state, &mut (tape, at)| {
            let was = *state;
            *state |= DONE;
            (was, tape, at)
        })
    }

    /// Extends the dense table through `id` (`id < dense_limit`) by at
    /// least [`JOB_TABLE_STEP`] ids but never past `dense_limit`, so a run
    /// of fresh ids resizes it once per step, not once per id. Every
    /// sparse id it now covers moves in, so sparse ids stay above every
    /// dense one.
    fn grow_to(&mut self, id: u32, dense_limit: usize) {
        let len = (id as usize + 1)
            .max(self.state.len() + JOB_TABLE_STEP)
            .min(dense_limit);
        self.state.resize(len, 0);
        self.slots.resize(len, NO_SLOT);
        if self.sparse.is_empty() {
            return;
        }
        let beyond = match u32::try_from(len) {
            Ok(next) => self.sparse.split_off(&next),
            Err(_) => BTreeMap::new(),
        };
        for (k, (state, slot)) in std::mem::replace(&mut self.sparse, beyond) {
            let i = k as usize;
            if let (Some(s), Some(j)) = (self.state.get_mut(i), self.slots.get_mut(i)) {
                *s = state;
                *j = slot;
            }
        }
    }

    /// Submitted ids neither completed nor resolved, ascending.
    fn unserved(&self) -> Vec<u32> {
        let open = |state: u8| state & (SUBMITTED | DONE) == SUBMITTED;
        let dense = (0u32..)
            .zip(&self.state)
            .filter(|&(_, &state)| open(state))
            .map(|(id, _)| id);
        let sparse = self
            .sparse
            .iter()
            .filter(|&(_, &(state, _))| open(state))
            .map(|(&id, _)| id);
        dense.chain(sparse).collect()
    }
}

/// Per-resource audit state keyed by `(library, unit)`, a unit being a
/// drive bay or a robot arm: a table per library indexed by unit, plus a
/// sparse map for keys past [`DENSE_UNITS`] in either part, so a wild key
/// costs one map entry. Whether a key is dense never changes, so every
/// key has exactly one home.
#[derive(Debug)]
struct Dense<T> {
    libraries: Vec<Vec<T>>,
    sparse: BTreeMap<(u16, u32), T>,
}

impl<T> Default for Dense<T> {
    fn default() -> Self {
        Dense {
            libraries: Vec::new(),
            sparse: BTreeMap::new(),
        }
    }
}

/// Libraries, bays and arms below this many are kept dense: every bay a
/// model drive id can name (`u8`), and far more libraries and arms than
/// any configuration has.
const DENSE_UNITS: usize = 256;

impl<T: Default> Dense<T> {
    /// The state of `(library, unit)`, a default one if never seen.
    fn get_mut(&mut self, library: u16, unit: u32) -> &mut T {
        let (l, u) = (library as usize, unit as usize);
        if l < DENSE_UNITS && u < DENSE_UNITS {
            if self.libraries.len() <= l {
                self.libraries.resize_with(l + 1, Vec::new);
            }
            if let Some(units) = self.libraries.get_mut(l) {
                if units.len() <= u {
                    units.resize_with(u + 1, T::default);
                }
                if let Some(state) = units.get_mut(u) {
                    return state;
                }
            }
        }
        self.sparse.entry((library, unit)).or_default()
    }

    /// Every key's state in ascending `(library, unit)` order, keys never
    /// seen included (their state is the default).
    fn into_sorted(self) -> Vec<((u16, u32), T)> {
        let mut all: Vec<((u16, u32), T)> = (0u16..)
            .zip(self.libraries)
            .flat_map(|(library, units)| {
                (0u32..)
                    .zip(units)
                    .map(move |(unit, state)| ((library, unit), state))
            })
            .chain(self.sparse)
            .collect();
        all.sort_by_key(|&(key, _)| key);
        all
    }
}

/// One drive's audit state.
#[derive(Debug, Default)]
struct Drive {
    mounted: Option<TapeKey>,
    pending_exchange: Option<TapeKey>,
    /// First failure instant on record.
    failed_at: Option<SimTime>,
    /// Transfer windows, in arrival order.
    transfers: Vec<Window>,
    /// Exchange windows, in arrival order.
    exchanges: Vec<Window>,
}

/// The per-entity `BTreeMap` body the dense kernel replaced, kept as the
/// differential oracle for [`AuditStream`].
#[cfg(test)]
mod reference {
    use super::{sweep, AuditReport, Violation, ViolationKind, Window, EPSILON};
    use crate::time::SimTime;
    use crate::trace::{DriveKey, TapeKey, TraceEntry, TraceEvent};
    use std::collections::BTreeMap;

    /// Audits `entries` with the reference body.
    pub(super) fn audit(entries: &[TraceEntry], retry_cap: Option<u32>) -> AuditReport {
        let mut s = AuditStream {
            retry_cap,
            ..AuditStream::default()
        };
        s.push_all(entries);
        s.finish()
    }

    #[derive(Debug, Default)]
    struct AuditStream {
        retry_cap: Option<u32>,
        /// Index the next pushed entry will get (= entries seen so far).
        index: usize,
        prev_time: SimTime,
        /// Counters and inline violations accumulate here as entries arrive;
        /// [`AuditStream::finish`] appends the end-of-trace passes.
        report: AuditReport,
        mounted: BTreeMap<DriveKey, TapeKey>,
        pending_exchange: BTreeMap<DriveKey, TapeKey>,
        submitted: BTreeMap<u32, (TapeKey, SimTime)>,
        completed: BTreeMap<u32, SimTime>,
        resolved: BTreeMap<u32, SimTime>,
        drive_windows: BTreeMap<DriveKey, Vec<Window>>,
        arm_windows: BTreeMap<(u16, u32), Vec<Window>>,
        drive_exchanges: BTreeMap<DriveKey, Vec<Window>>,
        failed_drives: BTreeMap<DriveKey, SimTime>,
        jam_windows: BTreeMap<u16, Vec<(SimTime, SimTime)>>,
        fatal_faults: BTreeMap<u32, SimTime>,
        failover_edges: Vec<(usize, SimTime, u32, u32)>,
    }

    impl AuditStream {
        /// Consumes one trace entry, checking every inline invariant.
        fn push(&mut self, entry: &TraceEntry) {
            let index = self.index;
            self.index += 1;
            let flag = |sink: &mut Vec<Violation>, kind: ViolationKind| {
                sink.push(Violation {
                    index,
                    time: entry.time,
                    kind,
                });
            };

            if entry.time < self.prev_time {
                flag(
                    &mut self.report.violations,
                    ViolationKind::TimeWentBackwards {
                        previous: self.prev_time,
                    },
                );
            }
            self.prev_time = self.prev_time.max(entry.time);

            match entry.event {
                TraceEvent::AssumeMounted { drive, tape } => {
                    if self.mounted.contains_key(&drive) {
                        flag(
                            &mut self.report.violations,
                            ViolationKind::DuplicateAssume { drive },
                        );
                    }
                    self.mounted.insert(drive, tape);
                }
                TraceEvent::JobSubmitted { job, tape } => {
                    if self.submitted.insert(job, (tape, entry.time)).is_some() {
                        flag(
                            &mut self.report.violations,
                            ViolationKind::DuplicateSubmit { job },
                        );
                    }
                }
                TraceEvent::Unmounted { drive, tape } => {
                    let actual = self.mounted.remove(&drive);
                    if actual != Some(tape) {
                        flag(
                            &mut self.report.violations,
                            ViolationKind::UnmountMismatch {
                                drive,
                                claimed: tape,
                                actual,
                            },
                        );
                    }
                }
                TraceEvent::ExchangeBegun {
                    drive,
                    tape,
                    arm,
                    start,
                    finish,
                } => {
                    self.report.exchanges += 1;
                    if let Some(&held) = self.mounted.get(&drive) {
                        flag(
                            &mut self.report.violations,
                            ViolationKind::ExchangeWhileMounted { drive, held },
                        );
                    }
                    if finish < start {
                        flag(
                            &mut self.report.violations,
                            ViolationKind::NegativeInterval { start, finish },
                        );
                    }
                    self.pending_exchange.insert(drive, tape);
                    self.arm_windows
                        .entry((drive.library(), arm))
                        .or_default()
                        .push((index, start, finish));
                    self.drive_exchanges
                        .entry(drive)
                        .or_default()
                        .push((index, start, finish));
                }
                TraceEvent::Mounted { drive, tape } => {
                    let expected = self.pending_exchange.remove(&drive);
                    if expected != Some(tape) {
                        flag(
                            &mut self.report.violations,
                            ViolationKind::MountWithoutExchange {
                                drive,
                                tape,
                                expected,
                            },
                        );
                    }
                    self.mounted.insert(drive, tape);
                }
                TraceEvent::Transfer {
                    drive,
                    tape,
                    job,
                    start,
                    finish,
                    ..
                } => {
                    self.report.transfers += 1;
                    let held = self.mounted.get(&drive).copied();
                    if held != Some(tape) {
                        flag(
                            &mut self.report.violations,
                            ViolationKind::ReadWithoutMount { drive, tape, held },
                        );
                    }
                    if finish < start {
                        flag(
                            &mut self.report.violations,
                            ViolationKind::NegativeInterval { start, finish },
                        );
                    }
                    let eps = SimTime::from_secs(EPSILON);
                    match self.submitted.get(&job) {
                        None => flag(
                            &mut self.report.violations,
                            ViolationKind::UnknownJob { job },
                        ),
                        Some(&(sub, _)) if sub != tape => flag(
                            &mut self.report.violations,
                            ViolationKind::WrongTapeForJob {
                                job,
                                submitted: sub,
                                streamed: tape,
                            },
                        ),
                        Some(&(_, at)) if start + eps < at => flag(
                            &mut self.report.violations,
                            ViolationKind::ServedBeforeSubmit {
                                job,
                                submitted: at,
                                start,
                            },
                        ),
                        Some(_) => {}
                    }
                    if self.completed.contains_key(&job) || self.resolved.contains_key(&job) {
                        flag(
                            &mut self.report.violations,
                            ViolationKind::TransferAfterCompletion { job },
                        );
                    }
                    self.drive_windows
                        .entry(drive)
                        .or_default()
                        .push((index, start, finish));
                }
                TraceEvent::JobCompleted { job, .. } => {
                    let eps = SimTime::from_secs(EPSILON);
                    match self.submitted.get(&job) {
                        None => flag(
                            &mut self.report.violations,
                            ViolationKind::UnknownJob { job },
                        ),
                        Some(&(_, at)) if entry.time + eps < at => flag(
                            &mut self.report.violations,
                            ViolationKind::ServedBeforeSubmit {
                                job,
                                submitted: at,
                                start: entry.time,
                            },
                        ),
                        Some(_) => {}
                    }
                    if self.completed.insert(job, entry.time).is_some()
                        || self.resolved.contains_key(&job)
                    {
                        flag(
                            &mut self.report.violations,
                            ViolationKind::CompletedTwice { job },
                        );
                    }
                }
                TraceEvent::DriveFailed { drive, at } => {
                    self.failed_drives.entry(drive).or_insert(at);
                }
                TraceEvent::RobotJammed {
                    library,
                    start,
                    finish,
                } => {
                    if finish < start {
                        flag(
                            &mut self.report.violations,
                            ViolationKind::NegativeInterval { start, finish },
                        );
                    }
                    self.jam_windows
                        .entry(library as u16)
                        .or_default()
                        .push((start, finish));
                }
                TraceEvent::ReadFaulted {
                    job,
                    retries,
                    fatal,
                    ..
                } => {
                    self.report.faults += 1;
                    if !self.submitted.contains_key(&job) {
                        flag(
                            &mut self.report.violations,
                            ViolationKind::UnknownJob { job },
                        );
                    }
                    if let Some(cap) = self.retry_cap {
                        if retries > cap {
                            flag(
                                &mut self.report.violations,
                                ViolationKind::RetriesExceeded { job, retries, cap },
                            );
                        }
                    }
                    if fatal {
                        self.fatal_faults.entry(job).or_insert(entry.time);
                    }
                }
                TraceEvent::JobLost { job } | TraceEvent::FailedOver { job, .. } => {
                    if let TraceEvent::JobLost { .. } = entry.event {
                        self.report.losses += 1;
                    } else {
                        self.report.failovers += 1;
                    }
                    if !self.submitted.contains_key(&job) {
                        flag(
                            &mut self.report.violations,
                            ViolationKind::UnknownJob { job },
                        );
                    }
                    if !self.fatal_faults.contains_key(&job) && self.failed_drives.is_empty() {
                        flag(
                            &mut self.report.violations,
                            ViolationKind::ResolvedWithoutFault { job },
                        );
                    }
                    if self.completed.contains_key(&job)
                        || self.resolved.insert(job, entry.time).is_some()
                    {
                        flag(
                            &mut self.report.violations,
                            ViolationKind::CompletedTwice { job },
                        );
                    }
                    if let TraceEvent::FailedOver { job, replacement } = entry.event {
                        self.failover_edges
                            .push((index, entry.time, job, replacement));
                    }
                }
            }
        }

        /// Consumes every entry of `entries` in order.
        fn push_all(&mut self, entries: &[TraceEntry]) {
            for entry in entries {
                self.push(entry);
            }
        }

        /// Runs the end-of-trace passes (exclusivity, failed-drive forensics,
        /// jam overlap, fault-resolution accounting, exactly-once service)
        /// and returns the complete report, violations sorted by entry
        /// index.
        fn finish(mut self) -> AuditReport {
            let mut report = self.report;
            report.entries = self.index;
            report.jobs = self.submitted.len();

            for (drive, windows) in &mut self.drive_windows {
                for (index, finish, start) in sweep(windows) {
                    report.violations.push(Violation {
                        index,
                        time: start,
                        kind: ViolationKind::DriveOverlap {
                            drive: *drive,
                            first_finish: finish,
                            second_start: start,
                        },
                    });
                }
            }
            for ((library, arm), windows) in &mut self.arm_windows {
                for (index, finish, start) in sweep(windows) {
                    report.violations.push(Violation {
                        index,
                        time: start,
                        kind: ViolationKind::RobotOverlap {
                            library: *library,
                            arm: *arm,
                            first_finish: finish,
                            second_start: start,
                        },
                    });
                }
            }

            let eps = SimTime::from_secs(EPSILON);
            for (&drive, &failed_at) in &self.failed_drives {
                let windows = [
                    self.drive_windows.get(&drive),
                    self.drive_exchanges.get(&drive),
                ];
                for &(index, _, finish) in windows.into_iter().flatten().flatten() {
                    if finish > failed_at + eps {
                        report.violations.push(Violation {
                            index,
                            time: finish,
                            kind: ViolationKind::ServiceOnFailedDrive {
                                drive,
                                failed_at,
                                finish,
                            },
                        });
                    }
                }
            }

            for (&(library, arm), windows) in &self.arm_windows {
                let Some(jams) = self.jam_windows.get(&library) else {
                    continue;
                };
                for &(index, start, finish) in windows.iter() {
                    let overlaps_jam = jams
                        .iter()
                        .any(|&(js, jf)| start + eps < jf && js + eps < finish);
                    if overlaps_jam {
                        report.violations.push(Violation {
                            index,
                            time: start,
                            kind: ViolationKind::ExchangeDuringJam {
                                library,
                                arm,
                                start,
                            },
                        });
                    }
                }
            }

            for (&job, &at) in &self.fatal_faults {
                if !self.resolved.contains_key(&job) && !self.completed.contains_key(&job) {
                    report.violations.push(Violation {
                        index: self.index.saturating_sub(1),
                        time: at,
                        kind: ViolationKind::UnresolvedFault { job },
                    });
                }
            }

            for &(index, time, job, replacement) in &self.failover_edges {
                if !self.submitted.contains_key(&replacement) {
                    report.violations.push(Violation {
                        index,
                        time,
                        kind: ViolationKind::FailoverWithoutSubmit { job, replacement },
                    });
                }
            }

            let unserved: Vec<u32> = self
                .submitted
                .keys()
                .filter(|j| !self.completed.contains_key(j) && !self.resolved.contains_key(j))
                .copied()
                .collect();
            if !unserved.is_empty() {
                report.violations.push(Violation {
                    index: self.index.saturating_sub(1),
                    time: self.prev_time,
                    kind: ViolationKind::NeverCompleted { jobs: unserved },
                });
            }

            report.violations.sort_by_key(|v| v.index);
            report
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn entry(secs: f64, event: TraceEvent) -> TraceEntry {
        TraceEntry {
            time: t(secs),
            event,
        }
    }

    const D0: DriveKey = DriveKey(0);
    const D1: DriveKey = DriveKey(1);
    const TAPE_A: TapeKey = TapeKey(5);
    const TAPE_B: TapeKey = TapeKey(6);

    fn transfer(secs: f64, drive: DriveKey, tape: TapeKey, job: u32, dur: f64) -> TraceEntry {
        entry(
            secs,
            TraceEvent::Transfer {
                drive,
                tape,
                job,
                extents: 1,
                seek: SimTime::ZERO,
                transfer: t(dur),
                start: t(secs),
                finish: t(secs + dur),
            },
        )
    }

    /// Mount A on D0, stream job 0, switch to B, stream job 1.
    fn valid_trace() -> Vec<TraceEntry> {
        vec![
            entry(
                0.0,
                TraceEvent::AssumeMounted {
                    drive: D0,
                    tape: TAPE_A,
                },
            ),
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 0,
                    tape: TAPE_A,
                },
            ),
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 1,
                    tape: TAPE_B,
                },
            ),
            transfer(0.0, D0, TAPE_A, 0, 10.0),
            entry(10.0, TraceEvent::JobCompleted { job: 0, drive: D0 }),
            entry(
                10.0,
                TraceEvent::Unmounted {
                    drive: D0,
                    tape: TAPE_A,
                },
            ),
            entry(
                10.0,
                TraceEvent::ExchangeBegun {
                    drive: D0,
                    tape: TAPE_B,
                    arm: 0,
                    start: t(12.0),
                    finish: t(40.0),
                },
            ),
            entry(
                40.0,
                TraceEvent::Mounted {
                    drive: D0,
                    tape: TAPE_B,
                },
            ),
            transfer(40.0, D0, TAPE_B, 1, 5.0),
            entry(45.0, TraceEvent::JobCompleted { job: 1, drive: D0 }),
        ]
    }

    #[test]
    fn valid_trace_is_clean() {
        let report = TraceAuditor::new().audit(&valid_trace());
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.jobs, 2);
        assert_eq!(report.transfers, 2);
        assert_eq!(report.exchanges, 1);
    }

    #[test]
    fn empty_trace_is_clean() {
        assert!(TraceAuditor::new().audit(&[]).is_clean());
    }

    #[test]
    fn flags_time_going_backwards() {
        let mut trace = valid_trace();
        // Entry 4 (the completion) is emitted at 10.0; pulling entry 5
        // back to 3.0 makes time run backwards.
        trace[5].time = t(3.0);
        let report = TraceAuditor::new().audit(&trace);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::TimeWentBackwards { .. })));
    }

    #[test]
    fn flags_overlapping_transfers_on_one_drive() {
        let trace = vec![
            entry(
                0.0,
                TraceEvent::AssumeMounted {
                    drive: D0,
                    tape: TAPE_A,
                },
            ),
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 0,
                    tape: TAPE_A,
                },
            ),
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 1,
                    tape: TAPE_A,
                },
            ),
            transfer(0.0, D0, TAPE_A, 0, 10.0),
            transfer(4.0, D0, TAPE_A, 1, 10.0), // starts inside job 0's window
            entry(10.0, TraceEvent::JobCompleted { job: 0, drive: D0 }),
            entry(14.0, TraceEvent::JobCompleted { job: 1, drive: D0 }),
        ];
        let report = TraceAuditor::new().audit(&trace);
        assert!(
            report.violations.iter().any(
                |v| matches!(v.kind, ViolationKind::DriveOverlap { drive, .. } if drive == D0)
            ),
            "{report}"
        );
    }

    #[test]
    fn back_to_back_transfers_are_not_an_overlap() {
        let trace = vec![
            entry(
                0.0,
                TraceEvent::AssumeMounted {
                    drive: D0,
                    tape: TAPE_A,
                },
            ),
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 0,
                    tape: TAPE_A,
                },
            ),
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 1,
                    tape: TAPE_A,
                },
            ),
            transfer(0.0, D0, TAPE_A, 0, 10.0),
            entry(10.0, TraceEvent::JobCompleted { job: 0, drive: D0 }),
            transfer(10.0, D0, TAPE_A, 1, 5.0),
            entry(15.0, TraceEvent::JobCompleted { job: 1, drive: D0 }),
        ];
        assert!(TraceAuditor::new().audit(&trace).is_clean());
    }

    #[test]
    fn flags_overlapping_exchanges_on_one_arm() {
        let trace = vec![
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 0,
                    tape: TAPE_A,
                },
            ),
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 1,
                    tape: TAPE_B,
                },
            ),
            entry(
                0.0,
                TraceEvent::ExchangeBegun {
                    drive: D0,
                    tape: TAPE_A,
                    arm: 0,
                    start: t(0.0),
                    finish: t(30.0),
                },
            ),
            entry(
                5.0,
                TraceEvent::ExchangeBegun {
                    drive: D1,
                    tape: TAPE_B,
                    arm: 0, // same arm, overlapping window
                    start: t(5.0),
                    finish: t(35.0),
                },
            ),
            entry(
                30.0,
                TraceEvent::Mounted {
                    drive: D0,
                    tape: TAPE_A,
                },
            ),
            entry(
                35.0,
                TraceEvent::Mounted {
                    drive: D1,
                    tape: TAPE_B,
                },
            ),
            transfer(35.0, D0, TAPE_A, 0, 1.0),
            transfer(35.0, D1, TAPE_B, 1, 1.0),
            entry(36.0, TraceEvent::JobCompleted { job: 0, drive: D0 }),
            entry(36.0, TraceEvent::JobCompleted { job: 1, drive: D1 }),
        ];
        let report = TraceAuditor::new().audit(&trace);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v.kind, ViolationKind::RobotOverlap { arm: 0, .. })),
            "{report}"
        );
    }

    #[test]
    fn distinct_arms_may_overlap() {
        let trace = vec![
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 0,
                    tape: TAPE_A,
                },
            ),
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 1,
                    tape: TAPE_B,
                },
            ),
            entry(
                0.0,
                TraceEvent::ExchangeBegun {
                    drive: D0,
                    tape: TAPE_A,
                    arm: 0,
                    start: t(0.0),
                    finish: t(30.0),
                },
            ),
            entry(
                0.0,
                TraceEvent::ExchangeBegun {
                    drive: D1,
                    tape: TAPE_B,
                    arm: 1,
                    start: t(0.0),
                    finish: t(30.0),
                },
            ),
            entry(
                30.0,
                TraceEvent::Mounted {
                    drive: D0,
                    tape: TAPE_A,
                },
            ),
            entry(
                30.0,
                TraceEvent::Mounted {
                    drive: D1,
                    tape: TAPE_B,
                },
            ),
            transfer(30.0, D0, TAPE_A, 0, 1.0),
            transfer(30.0, D1, TAPE_B, 1, 1.0),
            entry(31.0, TraceEvent::JobCompleted { job: 0, drive: D0 }),
            entry(31.0, TraceEvent::JobCompleted { job: 1, drive: D1 }),
        ];
        assert!(TraceAuditor::new().audit(&trace).is_clean());
    }

    #[test]
    fn flags_broken_load_unload_pairing() {
        // Unload of a tape the drive does not hold.
        let trace = vec![entry(
            0.0,
            TraceEvent::Unmounted {
                drive: D0,
                tape: TAPE_A,
            },
        )];
        let report = TraceAuditor::new().audit(&trace);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::UnmountMismatch { .. })));

        // Exchange begun while the drive still holds a tape.
        let trace = vec![
            entry(
                0.0,
                TraceEvent::AssumeMounted {
                    drive: D0,
                    tape: TAPE_A,
                },
            ),
            entry(
                0.0,
                TraceEvent::ExchangeBegun {
                    drive: D0,
                    tape: TAPE_B,
                    arm: 0,
                    start: t(0.0),
                    finish: t(30.0),
                },
            ),
        ];
        let report = TraceAuditor::new().audit(&trace);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::ExchangeWhileMounted { .. })));

        // Mount with no exchange begun.
        let trace = vec![entry(
            0.0,
            TraceEvent::Mounted {
                drive: D0,
                tape: TAPE_A,
            },
        )];
        let report = TraceAuditor::new().audit(&trace);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::MountWithoutExchange { .. })));
    }

    #[test]
    fn flags_read_without_mount() {
        let trace = vec![
            entry(
                0.0,
                TraceEvent::AssumeMounted {
                    drive: D0,
                    tape: TAPE_B,
                },
            ),
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 0,
                    tape: TAPE_A,
                },
            ),
            transfer(0.0, D0, TAPE_A, 0, 1.0), // streams A while holding B
            entry(1.0, TraceEvent::JobCompleted { job: 0, drive: D0 }),
        ];
        let report = TraceAuditor::new().audit(&trace);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::ReadWithoutMount { .. })));
    }

    #[test]
    fn flags_double_and_missing_completions() {
        let trace = vec![
            entry(
                0.0,
                TraceEvent::AssumeMounted {
                    drive: D0,
                    tape: TAPE_A,
                },
            ),
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 0,
                    tape: TAPE_A,
                },
            ),
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 1,
                    tape: TAPE_A,
                },
            ),
            transfer(0.0, D0, TAPE_A, 0, 1.0),
            entry(1.0, TraceEvent::JobCompleted { job: 0, drive: D0 }),
            entry(1.0, TraceEvent::JobCompleted { job: 0, drive: D0 }), // again
        ];
        let report = TraceAuditor::new().audit(&trace);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::CompletedTwice { job: 0 })));
        assert!(report.violations.iter().any(
            |v| matches!(&v.kind, ViolationKind::NeverCompleted { jobs } if jobs == &vec![1])
        ));
    }

    #[test]
    fn batched_service_is_clean() {
        // One exchange + mount amortised over three jobs submitted at
        // different arrival times: the scheduler's coalescing shape.
        let trace = vec![
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 0,
                    tape: TAPE_A,
                },
            ),
            entry(
                1.0,
                TraceEvent::JobSubmitted {
                    job: 1,
                    tape: TAPE_A,
                },
            ),
            entry(
                2.0,
                TraceEvent::JobSubmitted {
                    job: 2,
                    tape: TAPE_A,
                },
            ),
            entry(
                2.0,
                TraceEvent::ExchangeBegun {
                    drive: D0,
                    tape: TAPE_A,
                    arm: 0,
                    start: t(2.0),
                    finish: t(30.0),
                },
            ),
            entry(
                30.0,
                TraceEvent::Mounted {
                    drive: D0,
                    tape: TAPE_A,
                },
            ),
            transfer(30.0, D0, TAPE_A, 0, 10.0),
            // Emitted when the batch was planned (30.0) but occupying
            // later windows: legal, the entry clock stays monotone.
            entry(
                30.0,
                TraceEvent::Transfer {
                    drive: D0,
                    tape: TAPE_A,
                    job: 1,
                    extents: 1,
                    seek: SimTime::ZERO,
                    transfer: t(5.0),
                    start: t(40.0),
                    finish: t(45.0),
                },
            ),
            entry(
                30.0,
                TraceEvent::Transfer {
                    drive: D0,
                    tape: TAPE_A,
                    job: 2,
                    extents: 1,
                    seek: SimTime::ZERO,
                    transfer: t(5.0),
                    start: t(45.0),
                    finish: t(50.0),
                },
            ),
            entry(40.0, TraceEvent::JobCompleted { job: 0, drive: D0 }),
            entry(45.0, TraceEvent::JobCompleted { job: 1, drive: D0 }),
            entry(50.0, TraceEvent::JobCompleted { job: 2, drive: D0 }),
        ];
        let report = TraceAuditor::new().audit(&trace);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.jobs, 3);
        assert_eq!(report.transfers, 3);
        assert_eq!(report.exchanges, 1);
    }

    #[test]
    fn flags_service_before_submission() {
        let trace = vec![
            entry(
                0.0,
                TraceEvent::AssumeMounted {
                    drive: D0,
                    tape: TAPE_A,
                },
            ),
            entry(
                20.0,
                TraceEvent::JobSubmitted {
                    job: 0,
                    tape: TAPE_A,
                },
            ),
            // Transfer window starts at 20 (legal emission time) but the
            // window itself begins at 5, before the job existed.
            entry(
                20.0,
                TraceEvent::Transfer {
                    drive: D0,
                    tape: TAPE_A,
                    job: 0,
                    extents: 1,
                    seek: SimTime::ZERO,
                    transfer: t(1.0),
                    start: t(5.0),
                    finish: t(6.0),
                },
            ),
            entry(21.0, TraceEvent::JobCompleted { job: 0, drive: D0 }),
        ];
        let report = TraceAuditor::new().audit(&trace);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v.kind, ViolationKind::ServedBeforeSubmit { job: 0, .. })),
            "{report}"
        );
    }

    #[test]
    fn flags_transfer_after_completion() {
        let trace = vec![
            entry(
                0.0,
                TraceEvent::AssumeMounted {
                    drive: D0,
                    tape: TAPE_A,
                },
            ),
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 0,
                    tape: TAPE_A,
                },
            ),
            transfer(0.0, D0, TAPE_A, 0, 1.0),
            entry(1.0, TraceEvent::JobCompleted { job: 0, drive: D0 }),
            transfer(1.0, D0, TAPE_A, 0, 1.0), // streams again after done
        ];
        let report = TraceAuditor::new().audit(&trace);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v.kind, ViolationKind::TransferAfterCompletion { job: 0 })),
            "{report}"
        );
    }

    #[test]
    fn flags_unknown_job_and_wrong_tape() {
        let trace = vec![
            entry(
                0.0,
                TraceEvent::AssumeMounted {
                    drive: D0,
                    tape: TAPE_A,
                },
            ),
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 7,
                    tape: TAPE_B,
                },
            ),
            transfer(0.0, D0, TAPE_A, 3, 1.0), // job 3 never submitted
            entry(1.0, TraceEvent::JobCompleted { job: 3, drive: D0 }),
        ];
        let report = TraceAuditor::new().audit(&trace);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::UnknownJob { job: 3 })));

        let trace = vec![
            entry(
                0.0,
                TraceEvent::AssumeMounted {
                    drive: D0,
                    tape: TAPE_A,
                },
            ),
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 0,
                    tape: TAPE_B,
                },
            ),
            transfer(0.0, D0, TAPE_A, 0, 1.0), // submitted for B, streamed A
            entry(1.0, TraceEvent::JobCompleted { job: 0, drive: D0 }),
        ];
        let report = TraceAuditor::new().audit(&trace);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::WrongTapeForJob { .. })));
    }

    #[test]
    fn flags_service_past_drive_failure() {
        // The transfer window runs until 10.0 but the drive failed at 4.0
        // (the failure is noticed — emitted — later, which is legal; the
        // window overrunning it is not).
        let trace = vec![
            entry(
                0.0,
                TraceEvent::AssumeMounted {
                    drive: D0,
                    tape: TAPE_A,
                },
            ),
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 0,
                    tape: TAPE_A,
                },
            ),
            transfer(0.0, D0, TAPE_A, 0, 10.0),
            entry(10.0, TraceEvent::JobCompleted { job: 0, drive: D0 }),
            entry(
                12.0,
                TraceEvent::DriveFailed {
                    drive: D0,
                    at: t(4.0),
                },
            ),
        ];
        let report = TraceAuditor::new().audit(&trace);
        assert!(
            report.violations.iter().any(|v| matches!(
                v.kind,
                ViolationKind::ServiceOnFailedDrive { drive, .. } if drive == D0
            )),
            "{report}"
        );

        // Same trace with the failure after the window: clean.
        let mut ok = trace.clone();
        ok[4] = entry(
            12.0,
            TraceEvent::DriveFailed {
                drive: D0,
                at: t(10.0),
            },
        );
        assert!(TraceAuditor::new().audit(&ok).is_clean());
    }

    #[test]
    fn flags_exchange_during_jam() {
        let jammed = |s: f64, f: f64| {
            entry(
                0.0,
                TraceEvent::RobotJammed {
                    library: 0,
                    start: t(s),
                    finish: t(f),
                },
            )
        };
        let mut trace = vec![jammed(5.0, 20.0)];
        trace.extend(valid_trace()); // its exchange runs 12.0 .. 40.0
        let report = TraceAuditor::new().audit(&trace);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v.kind, ViolationKind::ExchangeDuringJam { library: 0, .. })),
            "{report}"
        );

        // A jam that ends before the exchange starts is fine, as is a jam
        // in another library.
        let mut ok = vec![jammed(5.0, 12.0)];
        ok.extend(valid_trace());
        assert!(TraceAuditor::new().audit(&ok).is_clean());
        let mut other = vec![entry(
            0.0,
            TraceEvent::RobotJammed {
                library: 3,
                start: t(5.0),
                finish: t(200.0),
            },
        )];
        other.extend(valid_trace());
        assert!(TraceAuditor::new().audit(&other).is_clean());
    }

    #[test]
    fn retry_cap_is_enforced_when_configured() {
        let mut trace = valid_trace();
        trace.push(entry(
            45.0,
            TraceEvent::ReadFaulted {
                job: 1,
                drive: D0,
                retries: 5,
                penalty: t(9.0),
                fatal: false,
            },
        ));
        // Without a cap: no retry violation (the fault is informational).
        let report = TraceAuditor::new().audit(&trace);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.faults, 1);
        // With a cap of 3: flagged.
        let report = TraceAuditor::new().with_retry_cap(3).audit(&trace);
        assert!(
            report.violations.iter().any(|v| matches!(
                v.kind,
                ViolationKind::RetriesExceeded {
                    job: 1,
                    retries: 5,
                    cap: 3
                }
            )),
            "{report}"
        );
        // A within-budget fault passes the cap.
        let report = TraceAuditor::new().with_retry_cap(5).audit(&trace);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn fatal_fault_must_be_resolved() {
        // Job 0 fatally faults mid-stream and is never lost or failed
        // over: UnresolvedFault (its JobCompleted is absent too, but the
        // resolution rule is the specific signal).
        let trace = vec![
            entry(
                0.0,
                TraceEvent::AssumeMounted {
                    drive: D0,
                    tape: TAPE_A,
                },
            ),
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 0,
                    tape: TAPE_A,
                },
            ),
            transfer(0.0, D0, TAPE_A, 0, 10.0),
            entry(
                0.0,
                TraceEvent::ReadFaulted {
                    job: 0,
                    drive: D0,
                    retries: 3,
                    penalty: t(30.0),
                    fatal: true,
                },
            ),
        ];
        let report = TraceAuditor::new().audit(&trace);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v.kind, ViolationKind::UnresolvedFault { job: 0 })),
            "{report}"
        );

        // Resolving it with a loss makes the trace clean (and the job no
        // longer counts as never-completed).
        let mut resolved_trace = trace.clone();
        resolved_trace.push(entry(10.0, TraceEvent::JobLost { job: 0 }));
        let report = TraceAuditor::new().audit(&resolved_trace);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.losses, 1);
    }

    #[test]
    fn failover_needs_a_submitted_replacement() {
        let base = |tail: Vec<TraceEntry>| {
            let mut trace = vec![
                entry(
                    0.0,
                    TraceEvent::AssumeMounted {
                        drive: D0,
                        tape: TAPE_A,
                    },
                ),
                entry(
                    0.0,
                    TraceEvent::JobSubmitted {
                        job: 0,
                        tape: TAPE_A,
                    },
                ),
                transfer(0.0, D0, TAPE_A, 0, 10.0),
                entry(
                    0.0,
                    TraceEvent::ReadFaulted {
                        job: 0,
                        drive: D0,
                        retries: 3,
                        penalty: t(30.0),
                        fatal: true,
                    },
                ),
            ];
            trace.extend(tail);
            trace
        };

        // Failover to a phantom job: flagged.
        let report = TraceAuditor::new().audit(&base(vec![entry(
            10.0,
            TraceEvent::FailedOver {
                job: 0,
                replacement: 1,
            },
        )]));
        assert!(
            report.violations.iter().any(|v| matches!(
                v.kind,
                ViolationKind::FailoverWithoutSubmit {
                    job: 0,
                    replacement: 1
                }
            )),
            "{report}"
        );

        // Failover whose replacement is submitted and served: clean.
        let report = TraceAuditor::new().audit(&base(vec![
            entry(
                10.0,
                TraceEvent::FailedOver {
                    job: 0,
                    replacement: 1,
                },
            ),
            entry(
                10.0,
                TraceEvent::JobSubmitted {
                    job: 1,
                    tape: TAPE_A,
                },
            ),
            transfer(10.0, D0, TAPE_A, 1, 5.0),
            entry(15.0, TraceEvent::JobCompleted { job: 1, drive: D0 }),
        ]));
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.failovers, 1);
    }

    #[test]
    fn loss_without_any_fault_is_flagged() {
        let trace = vec![
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 0,
                    tape: TAPE_A,
                },
            ),
            entry(1.0, TraceEvent::JobLost { job: 0 }),
        ];
        let report = TraceAuditor::new().audit(&trace);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v.kind, ViolationKind::ResolvedWithoutFault { job: 0 })),
            "{report}"
        );

        // The same loss with a drive failure on record is legitimate
        // (the job was stranded by the failure).
        let trace = vec![
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 0,
                    tape: TAPE_A,
                },
            ),
            entry(
                1.0,
                TraceEvent::DriveFailed {
                    drive: D0,
                    at: t(0.5),
                },
            ),
            entry(1.0, TraceEvent::JobLost { job: 0 }),
        ];
        assert!(TraceAuditor::new().audit(&trace).is_clean());
    }

    #[test]
    fn resolved_jobs_cannot_stream_or_complete_again() {
        let trace = vec![
            entry(
                0.0,
                TraceEvent::AssumeMounted {
                    drive: D0,
                    tape: TAPE_A,
                },
            ),
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 0,
                    tape: TAPE_A,
                },
            ),
            transfer(0.0, D0, TAPE_A, 0, 1.0),
            entry(
                0.0,
                TraceEvent::ReadFaulted {
                    job: 0,
                    drive: D0,
                    retries: 0,
                    penalty: SimTime::ZERO,
                    fatal: true,
                },
            ),
            entry(1.0, TraceEvent::JobLost { job: 0 }),
            transfer(1.0, D0, TAPE_A, 0, 1.0), // streams after loss
            entry(2.0, TraceEvent::JobCompleted { job: 0, drive: D0 }), // completes after loss
            entry(2.0, TraceEvent::JobLost { job: 0 }), // resolved twice
        ];
        let report = TraceAuditor::new().audit(&trace);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::TransferAfterCompletion { job: 0 })));
        assert!(
            report
                .violations
                .iter()
                .filter(|v| matches!(v.kind, ViolationKind::CompletedTwice { job: 0 }))
                .count()
                >= 2,
            "{report}"
        );
    }

    /// Every subtlety the streaming auditor must mirror, checked against
    /// the batch verdict on crafted traces: duplicate-submit overwrite,
    /// completed-then-resolved short-circuit, late `DriveFailed`
    /// indicting old windows, jams, overlap adjacency, retry caps,
    /// dangling failovers and never-completed jobs.
    #[test]
    fn streaming_matches_batch_on_crafted_traces() {
        let late_failure = vec![
            entry(
                0.0,
                TraceEvent::AssumeMounted {
                    drive: D0,
                    tape: TAPE_A,
                },
            ),
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 0,
                    tape: TAPE_A,
                },
            ),
            // Duplicate submit overwrites the tape on record.
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 0,
                    tape: TAPE_B,
                },
            ),
            transfer(1.0, D0, TAPE_A, 0, 5.0),
            entry(6.0, TraceEvent::JobCompleted { job: 0, drive: D0 }),
            // Resolution after completion: flagged, but must NOT mark the
            // job resolved (the batch path short-circuits the insert).
            entry(6.0, TraceEvent::JobLost { job: 0 }),
            // The failure instant is in the past — it indicts the window
            // streamed five entries ago.
            entry(
                7.0,
                TraceEvent::DriveFailed {
                    drive: D0,
                    at: t(3.0),
                },
            ),
        ];
        let overlapping = vec![
            entry(
                0.0,
                TraceEvent::AssumeMounted {
                    drive: D0,
                    tape: TAPE_A,
                },
            ),
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 0,
                    tape: TAPE_A,
                },
            ),
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 1,
                    tape: TAPE_A,
                },
            ),
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 2,
                    tape: TAPE_A,
                },
            ),
            // Three windows where only the sorted-adjacent pairs overlap.
            transfer(0.0, D0, TAPE_A, 0, 100.0),
            transfer(1.0, D0, TAPE_A, 1, 1.0),
            transfer(3.0, D0, TAPE_A, 2, 47.0),
            entry(100.0, TraceEvent::JobCompleted { job: 0, drive: D0 }),
            entry(100.0, TraceEvent::JobCompleted { job: 1, drive: D0 }),
            entry(100.0, TraceEvent::JobCompleted { job: 2, drive: D0 }),
        ];
        let faults_and_jams = vec![
            entry(
                0.0,
                TraceEvent::RobotJammed {
                    library: 0,
                    start: t(4.0),
                    finish: t(6.0),
                },
            ),
            entry(
                0.0,
                TraceEvent::JobSubmitted {
                    job: 0,
                    tape: TAPE_A,
                },
            ),
            entry(
                1.0,
                TraceEvent::ExchangeBegun {
                    drive: D0,
                    tape: TAPE_A,
                    arm: 0,
                    start: t(5.0),
                    finish: t(7.0),
                },
            ),
            entry(
                7.0,
                TraceEvent::Mounted {
                    drive: D0,
                    tape: TAPE_A,
                },
            ),
            entry(
                7.0,
                TraceEvent::ReadFaulted {
                    job: 0,
                    drive: D0,
                    retries: 9,
                    penalty: t(1.0),
                    fatal: true,
                },
            ),
            // Failover to a replacement that is never submitted; the
            // fatal fault on job 1 is never resolved either.
            entry(
                8.0,
                TraceEvent::FailedOver {
                    job: 0,
                    replacement: 77,
                },
            ),
            entry(
                8.0,
                TraceEvent::ReadFaulted {
                    job: 1,
                    drive: D1,
                    retries: 1,
                    penalty: t(1.0),
                    fatal: true,
                },
            ),
            // Time goes backwards, and job 2 is submitted but never done.
            entry(
                7.5,
                TraceEvent::JobSubmitted {
                    job: 2,
                    tape: TAPE_B,
                },
            ),
        ];
        for (label, trace) in [
            ("valid", valid_trace()),
            ("late_failure", late_failure),
            ("overlapping", overlapping),
            ("faults_and_jams", faults_and_jams),
            ("empty", Vec::new()),
        ] {
            for auditor in [TraceAuditor::new(), TraceAuditor::new().with_retry_cap(3)] {
                let batch = auditor.audit(&trace);
                let mut stream = auditor.stream();
                stream.push_all(&trace);
                assert_eq!(stream.finish(), batch, "{label}");
            }
        }
    }
}

#[cfg(test)]
mod streaming_proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Decodes one generated 4-tuple into a trace entry. Small id spaces
    /// force collisions (duplicate submits, wrong tapes, double
    /// completions); the clock mostly advances but can step back; window
    /// endpoints can precede submissions or their own starts, and a
    /// drive's or arm's windows often arrive out of start order. `a / 64`
    /// picks the job-id space (see [`job_id`]).
    fn decode(v: u32, a: u32, b: u32, c: u32, clock: &mut f64) -> TraceEntry {
        *clock = (*clock + (c % 8) as f64 * 0.25 - 0.25).max(0.0);
        // The top id space also names drives and arms past the dense
        // tables (a library, bay or arm of 256 or more) beside dense ones
        // of library 1, so both homes and their merged order are covered.
        let wild = a / 64 == 3;
        let drive = if wild {
            [
                DriveKey::pack(1, 0),
                DriveKey::pack(0, 300),
                DriveKey::pack(300, 1),
            ][(a % 3) as usize]
        } else {
            DriveKey(a % 3)
        };
        let arm = if wild {
            [1, 300, u32::MAX][(b % 3) as usize]
        } else {
            b % 2
        };
        let tape = TapeKey(u64::from(b) % 4);
        let job = job_id(a / 64, (a / 3) % 6);
        let start = SimTime::from_secs((*clock + ((c / 8) % 4) as f64 * 0.5 - 0.5).max(0.0));
        let finish = SimTime::from_secs((*clock + ((c / 32) % 4) as f64 * 0.75 - 0.25).max(0.0));
        let event = match v {
            0 => TraceEvent::AssumeMounted { drive, tape },
            1 => TraceEvent::JobSubmitted { job, tape },
            2 => TraceEvent::Unmounted { drive, tape },
            3 => TraceEvent::ExchangeBegun {
                drive,
                tape,
                arm,
                start,
                finish,
            },
            4 => TraceEvent::Mounted { drive, tape },
            5 => TraceEvent::Transfer {
                drive,
                tape,
                job,
                extents: 1,
                seek: SimTime::ZERO,
                transfer: SimTime::from_secs(0.5),
                start,
                finish,
            },
            6 => TraceEvent::JobCompleted { job, drive },
            7 => TraceEvent::DriveFailed { drive, at: start },
            8 => TraceEvent::RobotJammed {
                library: if wild {
                    [1, 300][(b % 2) as usize]
                } else {
                    a % 2
                },
                start,
                finish,
            },
            9 => TraceEvent::ReadFaulted {
                job,
                drive,
                retries: b % 5,
                penalty: SimTime::from_secs(1.0),
                fatal: c % 2 == 1,
            },
            10 => TraceEvent::JobLost { job },
            _ => TraceEvent::FailedOver {
                job,
                replacement: job_id(a / 64, (b / 4) % 8),
            },
        };
        TraceEntry {
            time: SimTime::from_secs(*clock),
            event,
        }
    }

    /// The `k`-th id of id space `space`: small dense ids (spaces 0 and
    /// 1), ids straddling the dense job table's growth bound, which start
    /// sparse and later move into the table (space 2), and ids near
    /// `u32::MAX`, which stay sparse (space 3).
    fn job_id(space: u32, k: u32) -> u32 {
        match space {
            0 | 1 => k,
            2 => DENSE_SLACK as u32 - 100 + 40 * k,
            _ => u32::MAX - k,
        }
    }

    /// Generated traces: 0–149 entries drawn by [`decode`], with `a` in
    /// `0..a_max`. `a_max = 64` keeps every job id in the small space 0,
    /// where collisions are most frequent; 256 reaches all four spaces.
    fn traces(a_max: u32) -> impl Strategy<Value = Vec<TraceEntry>> {
        proptest::collection::vec((0u32..12, 0u32..a_max, 0u32..64, 0u32..256), 0..150).prop_map(
            |raw| {
                let mut clock = 0.0;
                raw.iter()
                    .map(|&(v, a, b, c)| decode(v, a, b, c, &mut clock))
                    .collect()
            },
        )
    }

    proptest! {
        /// On arbitrary (including deeply malformed) traces and with or
        /// without a retry cap, the report accounts for every entry:
        /// each counter equals the number of its event variant (jobs:
        /// distinct submitted ids), violations come sorted by entry
        /// index and point into the trace, and the verdict is clean
        /// exactly when nothing was flagged.
        #[test]
        fn audit_report_accounts_for_every_entry(trace in traces(64), cap in 0u32..6) {
            let count = |is: fn(&TraceEvent) -> bool| {
                trace.iter().filter(|e| is(&e.event)).count()
            };
            let transfers = count(|e| matches!(e, TraceEvent::Transfer { .. }));
            let exchanges = count(|e| matches!(e, TraceEvent::ExchangeBegun { .. }));
            let faults = count(|e| matches!(e, TraceEvent::ReadFaulted { .. }));
            let losses = count(|e| matches!(e, TraceEvent::JobLost { .. }));
            let failovers = count(|e| matches!(e, TraceEvent::FailedOver { .. }));
            let jobs: BTreeSet<u32> = trace
                .iter()
                .filter_map(|e| match e.event {
                    TraceEvent::JobSubmitted { job, .. } => Some(job),
                    _ => None,
                })
                .collect();
            for auditor in [TraceAuditor::new(), TraceAuditor::new().with_retry_cap(cap)] {
                let report = auditor.audit(&trace);
                prop_assert_eq!(report.entries, trace.len());
                prop_assert_eq!(report.jobs, jobs.len());
                prop_assert_eq!(report.transfers, transfers);
                prop_assert_eq!(report.exchanges, exchanges);
                prop_assert_eq!(report.faults, faults);
                prop_assert_eq!(report.losses, losses);
                prop_assert_eq!(report.failovers, failovers);
                prop_assert!(report.violations.is_sorted_by_key(|v| v.index));
                for v in &report.violations {
                    prop_assert!(
                        v.index < trace.len().max(1),
                        "{v:?} outside a {}-entry trace",
                        trace.len()
                    );
                }
                prop_assert_eq!(report.is_clean(), report.violations.is_empty());
            }
        }
    }

    proptest! {
        // The kernel costs microseconds per case; 2,048 cases cover the
        // sparse id spaces and the growth bound many times over.
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The dense kernel and the reference `BTreeMap` body give equal
        /// reports, every violation included, with and without a retry
        /// cap: on sparse and huge job ids and on windows that arrive out
        /// of start order as much as on well-formed traces.
        #[test]
        fn dense_kernel_matches_reference(trace in traces(256), cap in 0u32..6) {
            for retry_cap in [None, Some(cap)] {
                let auditor = match retry_cap {
                    Some(cap) => TraceAuditor::new().with_retry_cap(cap),
                    None => TraceAuditor::new(),
                };
                prop_assert_eq!(auditor.audit(&trace), reference::audit(&trace, retry_cap));
            }
        }
    }

    fn at(secs: f64, event: TraceEvent) -> TraceEntry {
        TraceEntry {
            time: SimTime::from_secs(secs),
            event,
        }
    }

    /// An id first seen far past the dense table lives in the sparse map
    /// until the table grows over it; its state moves along, and
    /// `NeverCompleted` still lists ids in ascending order.
    #[test]
    fn sparse_job_ids_move_into_the_dense_table() {
        let far = DENSE_SLACK as u32 + 50;
        let mut trace = vec![
            at(
                0.0,
                TraceEvent::JobSubmitted {
                    job: far,
                    tape: TapeKey(1),
                },
            ),
            at(
                0.0,
                TraceEvent::JobCompleted {
                    job: far,
                    drive: DriveKey(0),
                },
            ),
            at(
                0.0,
                TraceEvent::JobSubmitted {
                    job: u32::MAX,
                    tape: TapeKey(1),
                },
            ),
        ];
        let mut stream = TraceAuditor::new().stream();
        stream.push_all(&trace);
        assert!(stream.jobs.sparse.contains_key(&far));
        // Enough entries for the growth bound to pass `far`.
        for job in 0..40 {
            trace.push(at(
                1.0,
                TraceEvent::JobSubmitted {
                    job,
                    tape: TapeKey(1),
                },
            ));
        }
        trace.push(at(
            1.0,
            TraceEvent::JobSubmitted {
                job: far + 1,
                tape: TapeKey(1),
            },
        ));
        trace.push(at(
            1.0,
            TraceEvent::JobCompleted {
                job: far,
                drive: DriveKey(0),
            },
        ));
        let mut stream = TraceAuditor::new().stream();
        stream.push_all(&trace);
        assert!(!stream.jobs.sparse.contains_key(&far));
        assert!(stream.jobs.sparse.contains_key(&u32::MAX));
        let report = stream.finish();
        assert_eq!(report, reference::audit(&trace, None));
        assert_eq!(report.jobs, 43);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::CompletedTwice { job } if job == far)));
        let never = report.violations.iter().find_map(|v| match &v.kind {
            ViolationKind::NeverCompleted { jobs } => Some(jobs.clone()),
            _ => None,
        });
        let mut expected: Vec<u32> = (0..40).collect();
        expected.extend([far + 1, u32::MAX]);
        assert_eq!(never, Some(expected));
    }

    /// The generator reaches the sparse half of the job table, so the
    /// differential above covers it.
    #[test]
    fn generated_traces_reach_the_sparse_job_map() {
        let mut rng = proptest::test_runner::TestRng::for_case(file!(), line!(), 0);
        let mut sparse = 0;
        for _ in 0..200 {
            let trace = traces(256).generate(&mut rng);
            let mut stream = TraceAuditor::new().stream();
            stream.push_all(&trace);
            if !stream.jobs.sparse.is_empty() {
                sparse += 1;
            }
        }
        assert!(sparse >= 10, "{sparse} traces with sparse job ids");
    }
}
