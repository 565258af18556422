//! Streaming per-resource time accounting over the trace-event tap.
//!
//! A [`TimeAccountant`] consumes the same [`TraceEvent`] stream the
//! auditor does — one event at a time, never buffering the trace — and
//! folds every event into per-resource span accumulators. At the end of
//! the run, [`TimeAccountant::finish`] closes the books against the run's
//! makespan and returns a [`TimeBudget`]:
//!
//! * every **drive** splits the makespan into
//!   `Seek + Rewind + Transfer + Load + Unload + Exchange + Failed + Idle`,
//! * every **robot arm** into `Exchange + Failed (jams) + Idle`,
//! * every **tape job** into `Queued + WaitingMount + Serviced`.
//!
//! The drive/arm categories are *exclusive* (the windows they are derived
//! from are exclusive per resource — an auditor invariant) and exhaustive
//! by construction: `Idle` is defined as the unattributed remainder, so
//! for every resource the eight categories sum to the makespan exactly
//! (up to float addition error, bounded well inside `1e-6`).
//!
//! # Attribution rules
//!
//! The trace describes intervals, not states, so each event maps onto
//! spans as follows:
//!
//! * `Transfer { seek, start, finish }` — the drive spends `seek` seconds
//!   in `Seek` and the rest of the window (`finish − start − seek`) in
//!   `Transfer`. Media-retry penalties folded into the window by the
//!   fault layer land in `Transfer` (they are reposition-and-reread work
//!   on the drive).
//! * `ExchangeBegun { start, finish }`, emitted at `now` — the drive
//!   spends `[now, start]` in `Rewind` (rewind plus any robot-queue wait:
//!   the drive is occupied but not streaming) and `[start, finish]`
//!   split into `Unload`/`Load` (the drive-spec constants, when the
//!   exchange replaces a mounted tape — detected by the `Unmounted`
//!   event the engines emit at the same instant) with the remaining
//!   robot-handling seconds in `Exchange`. The serving arm accumulates
//!   the whole `[start, finish]` window as `Exchange`.
//! * `DriveFailed { at }` — the drive is `Failed` from `at` to the end
//!   of the run.
//! * `RobotJammed { start, finish }` — every arm of the library is
//!   `Failed` for the (overlap-merged, makespan-clamped) jam windows.
//! * Job phases: `Queued + WaitingMount + Serviced` spans the time from
//!   `JobSubmitted` to the end of the job's transfer window.
//!   `WaitingMount` is the part of `[submit, transfer start]` covered by
//!   the exchange window that fetched the job's tape; `Queued` is the
//!   rest of the pre-service gap.
//!
//! Library-level robot-exchange *overlap* — how much arm exchange time
//! is hidden behind concurrent drive transfers, the effect the paper's
//! switch-drive argument (§5) relies on — is computed from the interval
//! sets at `finish` time. The interval lists are per-run aggregates
//! (O(transfers), not O(events)) kept only for this purpose.

use serde::{Deserialize, Serialize};
use tapesim_des::trace::{DriveKey, TapeKey};
use tapesim_des::{SimTime, TraceEvent};

/// The exclusive span categories a drive (or arm) divides time into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Head positioning between extents.
    Seek,
    /// Rewind before an unload, plus robot-queue wait (drive occupied).
    Rewind,
    /// Streaming data (including media-retry rereads).
    Transfer,
    /// Loading and threading a cartridge.
    Load,
    /// Unloading a cartridge.
    Unload,
    /// Robot handling during an exchange (eject/inject arm work).
    Exchange,
    /// Unattributed remainder of the makespan.
    Idle,
    /// Dead time: after a permanent drive failure, or during a robot jam.
    Failed,
}

impl SpanKind {
    /// All categories, in rendering order.
    pub const ALL: [SpanKind; 8] = [
        SpanKind::Seek,
        SpanKind::Rewind,
        SpanKind::Transfer,
        SpanKind::Load,
        SpanKind::Unload,
        SpanKind::Exchange,
        SpanKind::Failed,
        SpanKind::Idle,
    ];

    /// Short lower-case label (column header).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Seek => "seek",
            SpanKind::Rewind => "rewind",
            SpanKind::Transfer => "transfer",
            SpanKind::Load => "load",
            SpanKind::Unload => "unload",
            SpanKind::Exchange => "exchange",
            SpanKind::Idle => "idle",
            SpanKind::Failed => "failed",
        }
    }
}

/// Seconds accumulated per [`SpanKind`] by one resource.
///
/// Exactly one cache line, and aligned to it: the hot accounting path
/// read-modify-writes two fields per transfer, and the alignment keeps
/// that a single-line access in `Vec<SpanSecs>`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
#[repr(align(64))]
pub struct SpanSecs {
    /// Head positioning.
    pub seek: f64,
    /// Rewind plus robot-queue wait.
    pub rewind: f64,
    /// Streaming (plus retry rereads).
    pub transfer: f64,
    /// Cartridge load.
    pub load: f64,
    /// Cartridge unload.
    pub unload: f64,
    /// Robot handling.
    pub exchange: f64,
    /// Unattributed remainder.
    pub idle: f64,
    /// Failure / jam dead time.
    pub failed: f64,
}

impl SpanSecs {
    /// Seconds in `kind`.
    pub fn get(&self, kind: SpanKind) -> f64 {
        match kind {
            SpanKind::Seek => self.seek,
            SpanKind::Rewind => self.rewind,
            SpanKind::Transfer => self.transfer,
            SpanKind::Load => self.load,
            SpanKind::Unload => self.unload,
            SpanKind::Exchange => self.exchange,
            SpanKind::Idle => self.idle,
            SpanKind::Failed => self.failed,
        }
    }

    /// Attributed (non-idle, non-failed) seconds.
    pub fn busy(&self) -> f64 {
        self.seek + self.rewind + self.transfer + self.load + self.unload + self.exchange
    }

    /// Sum over every category; equals the makespan in a closed budget.
    pub fn total(&self) -> f64 {
        self.busy() + self.idle + self.failed
    }
}

/// One resource's closed time budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceBudget {
    /// Human-readable resource name (`L0:D1`, `L2:A0`).
    pub label: String,
    /// Seconds per category; sums to the run makespan.
    pub spans: SpanSecs,
}

/// Aggregated job-phase seconds (`Queued + WaitingMount + Serviced`
/// covers submit-to-completion for every job that streamed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTotals {
    /// Jobs that completed a transfer window.
    pub jobs: u64,
    /// Waiting in the admission queue (not on a mount).
    pub queued_s: f64,
    /// Waiting specifically on the exchange fetching the job's tape.
    pub waiting_mount_s: f64,
    /// Streaming.
    pub serviced_s: f64,
}

impl PhaseTotals {
    /// Mean seconds per job of one phase total.
    fn mean(&self, total: f64) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            total / self.jobs as f64
        }
    }

    /// Mean queued seconds per job.
    pub fn mean_queued(&self) -> f64 {
        self.mean(self.queued_s)
    }

    /// Mean mount-wait seconds per job.
    pub fn mean_waiting_mount(&self) -> f64 {
        self.mean(self.waiting_mount_s)
    }

    /// Mean service seconds per job.
    pub fn mean_serviced(&self) -> f64 {
        self.mean(self.serviced_s)
    }
}

/// Per-library robot-exchange overlap: how much of the robot's exchange
/// time ran while at least one drive of the same library was streaming.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LibraryOverlap {
    /// Library index.
    pub library: u32,
    /// Total arm exchange seconds.
    pub exchange_s: f64,
    /// Exchange seconds overlapped by ≥ 1 concurrent transfer window.
    pub overlapped_s: f64,
}

impl LibraryOverlap {
    /// Overlapped fraction in `[0, 1]` (zero when no exchanges ran).
    pub fn ratio(&self) -> f64 {
        if self.exchange_s <= 0.0 {
            0.0
        } else {
            self.overlapped_s / self.exchange_s
        }
    }
}

/// The closed per-resource time budget of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeBudget {
    /// Run makespan, seconds from t = 0 to the last event.
    pub makespan_s: f64,
    /// One closed budget per drive.
    pub drives: Vec<ResourceBudget>,
    /// One closed budget per robot arm.
    pub arms: Vec<ResourceBudget>,
    /// Aggregated job-phase seconds.
    pub phases: PhaseTotals,
    /// Per-library exchange/transfer overlap.
    pub overlap: Vec<LibraryOverlap>,
}

impl TimeBudget {
    /// Largest absolute error `|spans.total() − makespan|` over all
    /// resources. The budget invariant is `sum_error() < 1e-6`:
    /// categories sum to makespan × resource-count.
    pub fn sum_error(&self) -> f64 {
        self.drives
            .iter()
            .chain(self.arms.iter())
            .map(|r| (r.spans.total() - self.makespan_s).abs())
            .fold(0.0, f64::max)
    }

    /// Mean attributed (busy) fraction of the makespan over all drives.
    pub fn drive_utilisation(&self) -> f64 {
        if self.drives.is_empty() || self.makespan_s <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.drives.iter().map(|r| r.spans.busy()).sum();
        busy / (self.makespan_s * self.drives.len() as f64)
    }

    /// Mean exchange fraction of the makespan over all arms.
    pub fn arm_utilisation(&self) -> f64 {
        if self.arms.is_empty() || self.makespan_s <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.arms.iter().map(|r| r.spans.exchange).sum();
        busy / (self.makespan_s * self.arms.len() as f64)
    }

    /// Whole-system robot-exchange overlap ratio: exchange seconds hidden
    /// behind concurrent transfers over total exchange seconds.
    pub fn robot_overlap_ratio(&self) -> f64 {
        let total: f64 = self.overlap.iter().map(|o| o.exchange_s).sum();
        if total <= 0.0 {
            0.0
        } else {
            self.overlap.iter().map(|o| o.overlapped_s).sum::<f64>() / total
        }
    }

    /// Sum of one category over all drives.
    pub fn drive_total(&self, kind: SpanKind) -> f64 {
        self.drives.iter().map(|r| r.spans.get(kind)).sum()
    }
}

/// Static shape of the simulated system, as the accountant needs it:
/// resource counts for dense indexing plus the drive-spec constants that
/// split an exchange window into `Unload`/`Exchange`/`Load`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// Number of libraries.
    pub libraries: u32,
    /// Drives per library.
    pub drives_per_library: u32,
    /// Robot arms per library.
    pub arms_per_library: u32,
    /// Tape slots per library.
    pub tapes_per_library: u32,
    /// Drive load ("load and thread") seconds, for the exchange split
    /// (0 folds the whole window into `Exchange`).
    pub load_secs: f64,
    /// Drive unload seconds, for the exchange split.
    pub unload_secs: f64,
}

impl Topology {
    fn n_drives(&self) -> usize {
        (self.libraries * self.drives_per_library) as usize
    }

    fn n_arms(&self) -> usize {
        (self.libraries * self.arms_per_library) as usize
    }

    fn n_tapes(&self) -> usize {
        (self.libraries * self.tapes_per_library) as usize
    }

    fn drive_index(&self, key: DriveKey) -> Option<usize> {
        let idx = key.library() as usize * self.drives_per_library as usize + key.bay() as usize;
        ((key.bay() as u32) < self.drives_per_library && (key.library() as u32) < self.libraries)
            .then_some(idx)
    }

    fn arm_index(&self, library: u32, arm: u32) -> Option<usize> {
        let idx = (library * self.arms_per_library + arm) as usize;
        (arm < self.arms_per_library && library < self.libraries).then_some(idx)
    }

    fn tape_index(&self, key: TapeKey) -> Option<usize> {
        let idx = (key.library() * self.tapes_per_library + key.slot()) as usize;
        (key.slot() < self.tapes_per_library && key.library() < self.libraries).then_some(idx)
    }
}

/// Unions `lanes` of `(start, finish)` windows into a merged,
/// non-overlapping, start-sorted interval list. Each lane must itself be
/// sorted and non-overlapping (which per-drive transfer lists are: a
/// drive streams one window at a time), so no sorting is needed — a
/// k-way merge picks the earliest remaining head each step, O(n·k) over
/// a handful of lanes instead of O(n log n) over their concatenation.
fn merge_union(lanes: &[Vec<(f64, f64)>]) -> Vec<(f64, f64)> {
    let total: usize = lanes.iter().map(Vec::len).sum();
    let mut union: Vec<(f64, f64)> = Vec::with_capacity(total);
    let mut idx = vec![0usize; lanes.len()];
    loop {
        let mut next: Option<(usize, (f64, f64))> = None;
        for (k, lane) in lanes.iter().enumerate() {
            if let Some(&w) = lane.get(idx[k]) {
                if next.is_none_or(|(_, b)| w.0 < b.0) {
                    next = Some((k, w));
                }
            }
        }
        let Some((k, (s, f))) = next else { break };
        idx[k] += 1;
        match union.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(f),
            _ => union.push((s, f)),
        }
    }
    union
}

/// Merges and clamps a list of `(start, finish)` windows in place and
/// returns the total covered seconds within `[0, cap]`.
fn merged_secs(windows: &mut [(f64, f64)], cap: f64) -> f64 {
    for w in windows.iter_mut() {
        w.0 = w.0.clamp(0.0, cap);
        w.1 = w.1.clamp(0.0, cap);
    }
    windows.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut open: Option<(f64, f64)> = None;
    for &(s, f) in windows.iter() {
        match open {
            Some((os, of)) if s <= of => open = Some((os, of.max(f))),
            Some((os, of)) => {
                covered += of - os;
                open = Some((s, f));
            }
            None => open = Some((s, f)),
        }
    }
    if let Some((os, of)) = open {
        covered += of - os;
    }
    covered
}

/// Streaming span accountant: feed it every trace event, then close the
/// books with [`TimeAccountant::finish`].
#[derive(Debug, Clone)]
pub struct TimeAccountant {
    topo: Topology,
    drives: Vec<SpanSecs>,
    arms: Vec<SpanSecs>,
    /// Earliest permanent-failure instant noticed per drive.
    drive_fail_at: Vec<f64>,
    /// Jam windows per library (merged at finish).
    jams: Vec<Vec<(f64, f64)>>,
    /// Last `Unmounted` emit instant per drive — an `ExchangeBegun` at
    /// the same instant replaces a mounted tape (occupied exchange).
    unmounted_at: Vec<f64>,
    /// Last exchange window per tape, for `WaitingMount` attribution.
    tape_window: Vec<(f64, f64)>,
    /// Submit instant per job id (overwritten when per-request traces
    /// reuse job ids — requests are serial there, so never ambiguous).
    submit: Vec<f64>,
    /// Transfer windows `(drive, start, finish)`, for the overlap ratio.
    /// One flat append-only list: the hot path writes a single hot vector
    /// tail (a per-drive `Vec<Vec<_>>` costs several scattered cache
    /// lines per event, which measurably taxes the engine). `finish`
    /// partitions it into per-drive lanes — each lane arrives
    /// non-overlapping and sorted by start because a drive streams
    /// serially (an auditor invariant) — and unions a library's lanes
    /// with a sort-free k-way merge, and only when the library actually
    /// ran exchanges.
    transfers: Vec<(u32, f64, f64)>,
    /// Exchange windows `(library, start, finish)`; flat because the
    /// overlap sweep never needs them sorted.
    exchanges: Vec<(u32, f64, f64)>,
    phases: PhaseTotals,
    /// Largest timestamp observed (floor for the makespan).
    high_water: f64,
}

impl TimeAccountant {
    /// A fresh accountant for one run over `topo`.
    pub fn new(topo: Topology) -> TimeAccountant {
        let n_libs = topo.libraries as usize;
        TimeAccountant {
            topo,
            drives: vec![SpanSecs::default(); topo.n_drives()],
            arms: vec![SpanSecs::default(); topo.n_arms()],
            drive_fail_at: vec![f64::INFINITY; topo.n_drives()],
            jams: vec![Vec::new(); n_libs],
            unmounted_at: vec![f64::NEG_INFINITY; topo.n_drives()],
            tape_window: vec![(0.0, 0.0); topo.n_tapes()],
            submit: Vec::new(),
            transfers: Vec::new(),
            exchanges: Vec::new(),
            phases: PhaseTotals::default(),
            high_water: 0.0,
        }
    }

    /// Folds one event, emitted at `time`, into the accounts.
    ///
    /// Inlined so the variant pre-filter runs at the call site: events
    /// that carry no accounting information (completions, mount
    /// confirmations, fault notices already folded into `Transfer`
    /// penalties) never pay the out-of-line call. Their timestamps are
    /// bounded by the interval-carrying events and the engine-supplied
    /// `end`, so skipping them cannot lower the high-water mark.
    #[inline]
    pub fn observe(&mut self, time: SimTime, event: &TraceEvent) {
        if matches!(
            event,
            TraceEvent::AssumeMounted { .. }
                | TraceEvent::Mounted { .. }
                | TraceEvent::JobCompleted { .. }
                | TraceEvent::ReadFaulted { .. }
                | TraceEvent::JobLost { .. }
                | TraceEvent::FailedOver { .. }
        ) {
            return;
        }
        self.fold(time, event);
    }

    /// The out-of-line body of [`TimeAccountant::observe`].
    fn fold(&mut self, time: SimTime, event: &TraceEvent) {
        let now = time.as_secs();
        self.high_water = self.high_water.max(now);
        match *event {
            TraceEvent::JobSubmitted { job, .. } => {
                let job = job as usize;
                // Job ids are issued densely, so the append path is the
                // common case; resize only on gaps (never in practice).
                if job == self.submit.len() {
                    self.submit.push(now);
                } else {
                    if job >= self.submit.len() {
                        self.submit.resize(job + 1, f64::NEG_INFINITY);
                    }
                    self.submit[job] = now;
                }
            }
            TraceEvent::Unmounted { drive, .. } => {
                if let Some(d) = self.topo.drive_index(drive) {
                    self.unmounted_at[d] = now;
                }
            }
            TraceEvent::ExchangeBegun {
                drive,
                tape,
                arm,
                start,
                finish,
            } => {
                let (s, f) = (start.as_secs(), finish.as_secs());
                self.high_water = self.high_water.max(f);
                if let Some(d) = self.topo.drive_index(drive) {
                    // [now, start] is rewind + robot-queue wait; the
                    // window itself splits into unload/handling/load.
                    self.drives[d].rewind += s - now;
                    let width = f - s;
                    let occupied = self.unmounted_at[d] == now;
                    let unload = if occupied {
                        self.topo.unload_secs.min(width)
                    } else {
                        0.0
                    };
                    let load = self.topo.load_secs.min(width - unload);
                    self.drives[d].unload += unload;
                    self.drives[d].load += load;
                    self.drives[d].exchange += width - unload - load;
                }
                let lib = drive.library() as u32;
                if let Some(a) = self.topo.arm_index(lib, arm) {
                    self.arms[a].exchange += f - s;
                }
                if let Some(t) = self.topo.tape_index(tape) {
                    self.tape_window[t] = (s, f);
                }
                self.exchanges.push((lib, s, f));
            }
            TraceEvent::Transfer {
                drive,
                tape,
                job,
                seek,
                start,
                finish,
                ..
            } => {
                let (s, f) = (start.as_secs(), finish.as_secs());
                self.high_water = self.high_water.max(f);
                let seek_s = seek.as_secs().min(f - s);
                if let Some(d) = self.topo.drive_index(drive) {
                    self.drives[d].seek += seek_s;
                    self.drives[d].transfer += (f - s) - seek_s;
                    self.transfers.push((d as u32, s, f));
                }
                // Job phases: submit → start splits into queued +
                // waiting-on-mount; the window itself is service.
                let submit = self
                    .submit
                    .get(job as usize)
                    .copied()
                    .filter(|t| t.is_finite())
                    .unwrap_or(s)
                    .min(s);
                // A job can only have waited on a mount if some exchange
                // window was ever recorded — the common no-switch case
                // skips the per-tape window lookup entirely.
                let waiting = if self.exchanges.is_empty() {
                    0.0
                } else {
                    match self.topo.tape_index(tape) {
                        Some(t) => {
                            let (ws, wf) = self.tape_window[t];
                            (wf.min(s) - ws.max(submit)).max(0.0)
                        }
                        None => 0.0,
                    }
                };
                self.phases.jobs += 1;
                self.phases.waiting_mount_s += waiting;
                self.phases.queued_s += (s - submit) - waiting;
                self.phases.serviced_s += f - s;
            }
            TraceEvent::DriveFailed { drive, at } => {
                if let Some(d) = self.topo.drive_index(drive) {
                    self.drive_fail_at[d] = self.drive_fail_at[d].min(at.as_secs());
                }
            }
            TraceEvent::RobotJammed {
                library,
                start,
                finish,
            } => {
                if let Some(jams) = self.jams.get_mut(library as usize) {
                    jams.push((start.as_secs(), finish.as_secs()));
                }
            }
            TraceEvent::AssumeMounted { .. }
            | TraceEvent::Mounted { .. }
            | TraceEvent::JobCompleted { .. }
            | TraceEvent::ReadFaulted { .. }
            | TraceEvent::JobLost { .. }
            | TraceEvent::FailedOver { .. } => {}
        }
    }

    /// Closes the books: clamps failure/jam dead time to the makespan
    /// (the larger of `end` and the latest observed instant), computes
    /// the exchange/transfer overlap per library, and fills `Idle` so
    /// every resource's categories sum to exactly the makespan.
    pub fn finish(mut self, end: SimTime) -> TimeBudget {
        let makespan = end.as_secs().max(self.high_water);
        let dpl = self.topo.drives_per_library as usize;
        let apl = self.topo.arms_per_library as usize;

        let drives = self
            .drives
            .iter()
            .enumerate()
            .map(|(d, spans)| {
                let mut spans = *spans;
                let fail_at = self.drive_fail_at[d];
                if fail_at < makespan {
                    spans.failed = makespan - fail_at;
                }
                spans.idle = (makespan - spans.busy() - spans.failed).max(0.0);
                ResourceBudget {
                    label: format!("L{}:D{}", d / dpl.max(1), d % dpl.max(1)),
                    spans,
                }
            })
            .collect();

        // Jam dead time is per library; every arm of the library carries
        // it (a jammed robot serves no arm).
        let jam_secs: Vec<f64> = self
            .jams
            .iter_mut()
            .map(|windows| merged_secs(windows, makespan))
            .collect();
        let arms = self
            .arms
            .iter()
            .enumerate()
            .map(|(a, spans)| {
                let mut spans = *spans;
                let lib = a / apl.max(1);
                spans.failed = jam_secs.get(lib).copied().unwrap_or(0.0);
                spans.idle = (makespan - spans.busy() - spans.failed).max(0.0);
                ResourceBudget {
                    label: format!("L{}:A{}", lib, a % apl.max(1)),
                    spans,
                }
            })
            .collect();

        // Partition the exchange windows by library (out-of-range
        // library ids, impossible with a well-formed topology, drop out
        // here exactly as a per-library bounds check would).
        let n_libs = self.topo.libraries as usize;
        let mut ex_by_lib: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n_libs];
        for &(lib, s, f) in &self.exchanges {
            if let Some(ex) = ex_by_lib.get_mut(lib as usize) {
                ex.push((s, f));
            }
        }
        // Per-drive transfer lanes, partitioned from the flat list only
        // when some library actually ran exchanges (runs without tape
        // switches are common in drive-rich configurations, and pay
        // nothing here).
        let transfers = &self.transfers;
        let n_drives = self.topo.n_drives();
        let mut lanes: Option<Vec<Vec<(f64, f64)>>> = None;
        let overlap = ex_by_lib
            .iter()
            .enumerate()
            .map(|(lib, exchanges)| {
                if exchanges.is_empty() {
                    // Nothing to intersect: skip building the union.
                    return LibraryOverlap {
                        library: lib as u32,
                        exchange_s: 0.0,
                        overlapped_s: 0.0,
                    };
                }
                // Union the library's transfer windows once, then measure
                // each exchange window against the union. Each drive's
                // lane is already sorted and non-overlapping (drives
                // stream serially — an auditor invariant), so the union
                // is a sort-free k-way merge over the library's drives.
                let lanes = lanes.get_or_insert_with(|| {
                    let mut l = vec![Vec::new(); n_drives];
                    for &(d, s, f) in transfers {
                        if let Some(lane) = l.get_mut(d as usize) {
                            lane.push((s, f));
                        }
                    }
                    l
                });
                let union = merge_union(&lanes[lib * dpl..(lib + 1) * dpl]);
                let mut exchange_s = 0.0;
                let mut overlapped_s = 0.0;
                for &(s, f) in exchanges {
                    exchange_s += f - s;
                    // Binary-search the first union window that could
                    // intersect, then walk while windows overlap.
                    let start = union.partition_point(|w| w.1 < s);
                    for &(us, uf) in &union[start..] {
                        if us >= f {
                            break;
                        }
                        overlapped_s += (uf.min(f) - us.max(s)).max(0.0);
                    }
                }
                LibraryOverlap {
                    library: lib as u32,
                    exchange_s,
                    overlapped_s,
                }
            })
            .collect();

        TimeBudget {
            makespan_s: makespan,
            drives,
            arms,
            phases: self.phases,
            overlap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology {
            libraries: 1,
            drives_per_library: 2,
            arms_per_library: 1,
            tapes_per_library: 4,
            load_secs: 19.0,
            unload_secs: 19.0,
        }
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn transfer_splits_into_seek_and_transfer() {
        let mut acc = TimeAccountant::new(topo());
        acc.observe(
            t(0.0),
            &TraceEvent::JobSubmitted {
                job: 0,
                tape: TapeKey::pack(0, 1),
            },
        );
        acc.observe(
            t(5.0),
            &TraceEvent::Transfer {
                drive: DriveKey::pack(0, 0),
                tape: TapeKey::pack(0, 1),
                job: 0,
                extents: 1,
                seek: t(2.0),
                transfer: t(3.0),
                start: t(5.0),
                finish: t(10.0),
            },
        );
        let b = acc.finish(t(10.0));
        assert_eq!(b.makespan_s, 10.0);
        assert_eq!(b.drives[0].spans.seek, 2.0);
        assert_eq!(b.drives[0].spans.transfer, 3.0);
        assert_eq!(b.drives[0].spans.idle, 5.0);
        // The other drive is all idle; the arm is all idle.
        assert_eq!(b.drives[1].spans.idle, 10.0);
        assert_eq!(b.arms[0].spans.idle, 10.0);
        assert!(b.sum_error() < 1e-9);
        // Phases: submitted at 0, started at 5, no mount in between.
        assert_eq!(b.phases.jobs, 1);
        assert_eq!(b.phases.queued_s, 5.0);
        assert_eq!(b.phases.waiting_mount_s, 0.0);
        assert_eq!(b.phases.serviced_s, 5.0);
    }

    #[test]
    fn occupied_exchange_splits_unload_and_load() {
        let mut acc = TimeAccountant::new(topo());
        let drive = DriveKey::pack(0, 0);
        acc.observe(
            t(1.0),
            &TraceEvent::Unmounted {
                drive,
                tape: TapeKey::pack(0, 0),
            },
        );
        // Emitted at 1.0: rewind until 4.0, then a 53.2 s window
        // (19 unload + 15.2 handling + 19 load).
        acc.observe(
            t(1.0),
            &TraceEvent::ExchangeBegun {
                drive,
                tape: TapeKey::pack(0, 2),
                arm: 0,
                start: t(4.0),
                finish: t(57.2),
            },
        );
        let b = acc.finish(t(60.0));
        let s = &b.drives[0].spans;
        assert_eq!(s.rewind, 3.0);
        assert_eq!(s.unload, 19.0);
        assert_eq!(s.load, 19.0);
        assert!((s.exchange - 15.2).abs() < 1e-9);
        assert!((b.arms[0].spans.exchange - 53.2).abs() < 1e-9);
        assert!(b.sum_error() < 1e-9);
    }

    #[test]
    fn empty_exchange_has_no_unload() {
        let mut acc = TimeAccountant::new(topo());
        // No Unmounted beforehand: injecting into an empty drive.
        acc.observe(
            t(0.0),
            &TraceEvent::ExchangeBegun {
                drive: DriveKey::pack(0, 1),
                tape: TapeKey::pack(0, 3),
                arm: 0,
                start: t(0.0),
                finish: t(26.6),
            },
        );
        let b = acc.finish(t(26.6));
        let s = &b.drives[1].spans;
        assert_eq!(s.unload, 0.0);
        assert_eq!(s.load, 19.0);
        assert!((s.exchange - 7.6).abs() < 1e-9);
    }

    #[test]
    fn waiting_mount_is_the_exchange_overlap() {
        let mut acc = TimeAccountant::new(topo());
        let tape = TapeKey::pack(0, 2);
        acc.observe(t(0.0), &TraceEvent::JobSubmitted { job: 0, tape });
        acc.observe(
            t(0.0),
            &TraceEvent::ExchangeBegun {
                drive: DriveKey::pack(0, 0),
                tape,
                arm: 0,
                start: t(2.0),
                finish: t(8.0),
            },
        );
        acc.observe(
            t(8.0),
            &TraceEvent::Transfer {
                drive: DriveKey::pack(0, 0),
                tape,
                job: 0,
                extents: 1,
                seek: t(0.0),
                transfer: t(4.0),
                start: t(8.0),
                finish: t(12.0),
            },
        );
        let b = acc.finish(t(12.0));
        assert_eq!(b.phases.waiting_mount_s, 6.0);
        assert_eq!(b.phases.queued_s, 2.0);
        assert_eq!(b.phases.serviced_s, 4.0);
    }

    #[test]
    fn failure_and_jam_become_failed_time() {
        let mut acc = TimeAccountant::new(topo());
        acc.observe(
            t(50.0),
            &TraceEvent::DriveFailed {
                drive: DriveKey::pack(0, 1),
                at: t(40.0),
            },
        );
        // Overlapping jams merge: [10, 20] ∪ [15, 30] = 20 s.
        for (s, f) in [(10.0, 20.0), (15.0, 30.0)] {
            acc.observe(
                t(0.0),
                &TraceEvent::RobotJammed {
                    library: 0,
                    start: t(s),
                    finish: t(f),
                },
            );
        }
        let b = acc.finish(t(100.0));
        assert_eq!(b.drives[1].spans.failed, 60.0);
        assert_eq!(b.drives[1].spans.idle, 40.0);
        assert_eq!(b.arms[0].spans.failed, 20.0);
        assert_eq!(b.arms[0].spans.idle, 80.0);
        assert!(b.sum_error() < 1e-9);
    }

    #[test]
    fn overlap_ratio_counts_hidden_exchanges() {
        let mut acc = TimeAccountant::new(topo());
        let mk_transfer = |job: u32, start: f64, finish: f64| TraceEvent::Transfer {
            drive: DriveKey::pack(0, 0),
            tape: TapeKey::pack(0, 0),
            job,
            extents: 1,
            seek: t(0.0),
            transfer: t(finish - start),
            start: t(start),
            finish: t(finish),
        };
        // Transfers cover [0, 10]; exchange [5, 15] is half hidden.
        acc.observe(t(0.0), &mk_transfer(0, 0.0, 10.0));
        acc.observe(
            t(0.0),
            &TraceEvent::ExchangeBegun {
                drive: DriveKey::pack(0, 1),
                tape: TapeKey::pack(0, 1),
                arm: 0,
                start: t(5.0),
                finish: t(15.0),
            },
        );
        let b = acc.finish(t(15.0));
        assert_eq!(b.overlap[0].exchange_s, 10.0);
        assert_eq!(b.overlap[0].overlapped_s, 5.0);
        assert_eq!(b.overlap[0].ratio(), 0.5);
    }

    #[test]
    fn idle_never_negative_even_with_busy_books() {
        let mut acc = TimeAccountant::new(topo());
        acc.observe(
            t(0.0),
            &TraceEvent::Transfer {
                drive: DriveKey::pack(0, 0),
                tape: TapeKey::pack(0, 0),
                job: 0,
                extents: 1,
                seek: t(0.0),
                transfer: t(10.0),
                start: t(0.0),
                finish: t(10.0),
            },
        );
        // Close at an `end` earlier than the observed high water: the
        // makespan must stretch, not the idle go negative.
        let b = acc.finish(t(1.0));
        assert_eq!(b.makespan_s, 10.0);
        assert!(b.drives.iter().all(|d| d.spans.idle >= 0.0));
    }
}
