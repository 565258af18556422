//! The per-request event-driven service engine.
//!
//! One request is simulated as a discrete-event run on its own clock
//! (requests arrive far apart, so nothing overlaps between requests; mount
//! state and head positions are carried across runs by the caller).
//!
//! Timeline of one tape switch on a drive (paper §6, Table 1 constants):
//!
//! ```text
//! drive: [ rewind ]                     [ exchange ........ ][ seek|xfer … ]
//! robot:            (queue for robot)   [ unload+eject+inject+load ]
//! ```
//!
//! The robot is a FCFS [`Resource`] per library; the *exchange block*
//! (drive unload, cartridge to cell, fetch new cartridge, load/thread)
//! occupies robot and drive together, matching the paper's constant-time
//! robot operation model. The rewind before it only occupies the drive.

use crate::bays::BaySet;
use crate::catalog::TapeJob;
use crate::metrics::RequestMetrics;
use crate::policy::SwitchPolicy;
use crate::seek_order::{self, SeekPolicy};
use tapesim_des::{Resource, Scheduler, SimTime, TraceEvent, Tracer, World};
use tapesim_model::tape::Extent;
use tapesim_model::{Bytes, LibraryId, SystemConfig, TapeId};
use tapesim_placement::Placement;

/// Persistent drive state carried across requests.
#[derive(Debug, Clone, PartialEq)]
pub struct MountState {
    /// Mounted tape per drive (dense drive index).
    pub mounted: Vec<Option<TapeId>>,
    /// Head position per drive (meaningful when mounted).
    pub head: Vec<Bytes>,
}

impl MountState {
    /// State with the given startup mounts, heads at the load point.
    pub fn new(mounts: Vec<Option<TapeId>>) -> MountState {
        let n = mounts.len();
        MountState {
            mounted: mounts,
            head: vec![Bytes::ZERO; n],
        }
    }

    /// The drive currently holding `tape`, if any.
    pub fn drive_of(&self, tape: TapeId) -> Option<usize> {
        self.mounted.iter().position(|&m| m == Some(tape))
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A tape exchange completed; the drive now holds `jobs[job]`'s tape.
    SwitchDone { drive: usize, job: usize },
    /// A drive finished transferring all extents of its current job.
    DriveDone { drive: usize },
}

/// The per-request engine's working set: robot calendars, dispatch
/// queues, per-drive accounting, the event heap and the seek-plan
/// scratch. Its owner keeps it across requests; [`serve_request`] resets
/// it at the start of each one, so a warm engine serves without
/// allocating. It carries nothing from one request to the next.
pub struct EngineBuffers {
    robots: Vec<Resource>,
    /// Per library, jobs waiting for a switch drive; `next[lib]` is the
    /// index of the next one to dispatch.
    pending: Vec<Vec<usize>>,
    next: Vec<usize>,
    /// Per library, the bays neither streaming nor switching.
    idle: Vec<BaySet>,
    /// Every bay of a library (`0..d`), what `idle` resets to.
    all_bays: BaySet,
    /// Job index a drive is streaming or switching for, for trace events.
    current_job: Vec<Option<usize>>,
    // Per-drive accounting for this request.
    seek: Vec<f64>,
    transfer: Vec<f64>,
    completion: Vec<SimTime>,
    /// Per tape (dense index), the drive holding it at t = 0; filled and
    /// cleared again within the t = 0 pass.
    holder: Vec<Option<usize>>,
    sched: Scheduler<Ev>,
    /// Seek-plan scratch reused by [`RequestSim::start_service`] across
    /// jobs instead of allocating per-job order vectors; filled only for
    /// a job whose extents are not already their own plan.
    plan: Vec<Extent>,
}

impl EngineBuffers {
    /// Buffers sized for `cfg`.
    pub fn new(cfg: &SystemConfig) -> EngineBuffers {
        let n_drives = cfg.total_drives();
        let n_libs = cfg.libraries as usize;
        EngineBuffers {
            robots: vec![Resource::new(cfg.library.robot.arms.max(1) as usize); n_libs],
            pending: vec![Vec::new(); n_libs],
            next: vec![0; n_libs],
            idle: vec![BaySet::range(0, cfg.library.drives); n_libs],
            all_bays: BaySet::range(0, cfg.library.drives),
            current_job: vec![None; n_drives],
            seek: vec![0.0; n_drives],
            transfer: vec![0.0; n_drives],
            completion: vec![SimTime::ZERO; n_drives],
            holder: vec![None; cfg.total_tapes()],
            sched: Scheduler::new(),
            plan: Vec::new(),
        }
    }

    /// Back to the state [`EngineBuffers::new`] leaves, keeping capacity.
    fn reset(&mut self) {
        self.robots.iter_mut().for_each(Resource::reset);
        self.pending.iter_mut().for_each(Vec::clear);
        self.next.fill(0);
        self.idle.fill(self.all_bays);
        self.current_job.fill(None);
        self.seek.fill(0.0);
        self.transfer.fill(0.0);
        self.completion.fill(SimTime::ZERO);
        self.sched.reset_clock();
    }
}

struct RequestSim<'a> {
    cfg: &'a SystemConfig,
    placement: &'a Placement,
    policy: &'a SwitchPolicy,
    state: &'a mut MountState,
    /// All jobs, borrowed from the caller; `buf.pending` holds indices not
    /// yet assigned to a drive.
    jobs: &'a [TapeJob],
    buf: &'a mut EngineBuffers,
    outstanding: usize,
    n_switches: u32,
    robot_wait: f64,
    tracer: Tracer,
    /// In-tape service-order planner ([`SeekPolicy::Greedy`] by default).
    seek_policy: SeekPolicy,
}

impl<'a> RequestSim<'a> {
    /// Marks `drive` busy or idle in its library's idle bays.
    fn set_busy(&mut self, drive: usize, busy: bool) {
        let id = self.cfg.drive_at(drive);
        self.buf.idle[id.library.idx()].set(id.bay, !busy);
    }

    /// Starts streaming `job` on `drive` (tape already mounted) and
    /// schedules its completion.
    fn start_service(&mut self, drive: usize, job: usize, now: SimTime, sched: &mut Scheduler<Ev>) {
        let head = self.state.head[drive];
        let plan = seek_order::plan_borrowed(
            self.seek_policy,
            head,
            &self.jobs[job].extents,
            &mut self.buf.plan,
        );
        let hw = &self.cfg.library;
        let (seek_s, xfer_s, pos) = hw.drive.read_walk(head, plan, hw.tape.capacity);
        let plan_len = plan.len();
        self.state.head[drive] = pos;
        self.buf.seek[drive] += seek_s;
        self.buf.transfer[drive] += xfer_s;
        self.set_busy(drive, true);
        self.buf.current_job[drive] = Some(job);
        let finish = now + SimTime::from_secs(seek_s + xfer_s);
        self.tracer.emit(
            now,
            TraceEvent::Transfer {
                drive: self.cfg.drive_at(drive).into(),
                tape: self.jobs[job].tape.into(),
                job: job as u32,
                extents: plan_len as u32,
                seek: SimTime::from_secs(seek_s),
                transfer: SimTime::from_secs(xfer_s),
                start: now,
                finish,
            },
        );
        sched.schedule_at(finish, Ev::DriveDone { drive });
    }

    /// Begins a tape exchange bringing `job`'s tape onto `drive`.
    fn begin_switch(&mut self, drive: usize, job: usize, now: SimTime, sched: &mut Scheduler<Ev>) {
        let lib = self.cfg.drive_at(drive).library.idx();
        let hw = &self.cfg.library;
        let occupied = self.state.mounted[drive].map(|_| self.state.head[drive]);
        let (rewind_s, exchange_s) = hw.drive.switch_cost(&hw.robot, occupied, hw.tape.capacity);
        // The cartridge leaves the drive; until SwitchDone the drive is in
        // transition (busy) and holds nothing.
        if let Some(old) = self.state.mounted[drive].take() {
            self.tracer.emit(
                now,
                TraceEvent::Unmounted {
                    drive: self.cfg.drive_at(drive).into(),
                    tape: old.into(),
                },
            );
        }
        self.state.head[drive] = Bytes::ZERO;
        self.set_busy(drive, true);
        self.buf.current_job[drive] = Some(job);

        let rewind_done = now + SimTime::from_secs(rewind_s);
        let grant = self.buf.robots[lib].acquire(rewind_done, SimTime::from_secs(exchange_s));
        self.robot_wait += (grant.start - rewind_done).as_secs();
        self.n_switches += 1;
        self.tracer.emit(
            now,
            TraceEvent::ExchangeBegun {
                drive: self.cfg.drive_at(drive).into(),
                tape: self.jobs[job].tape.into(),
                arm: grant.server as u32,
                start: grant.start,
                finish: grant.finish,
            },
        );
        sched.schedule_at(grant.finish, Ev::SwitchDone { drive, job });
    }

    /// Dispatches pending jobs of `lib` onto eligible idle drives.
    fn try_dispatch(&mut self, lib: usize, now: SimTime, sched: &mut Scheduler<Ev>) {
        while let Some(&job) = self.buf.pending[lib].get(self.buf.next[lib]) {
            // Eligible: idle switch drives in this library. The mounted
            // tape of an idle drive is never still needed — needed mounted
            // tapes were set busy at t = 0 and stay busy until served.
            let Some(drive) = self.policy.pick_victim(
                self.cfg,
                self.placement,
                LibraryId(lib as u16),
                &self.state.mounted,
                self.buf.idle[lib],
            ) else {
                return; // all eligible drives busy; retry on DriveDone
            };
            self.buf.next[lib] += 1;
            self.begin_switch(drive, job, now, sched);
        }
    }
}

impl World for RequestSim<'_> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::SwitchDone { drive, job } => {
                self.state.mounted[drive] = Some(self.jobs[job].tape);
                self.state.head[drive] = Bytes::ZERO;
                self.tracer.emit(
                    now,
                    TraceEvent::Mounted {
                        drive: self.cfg.drive_at(drive).into(),
                        tape: self.jobs[job].tape.into(),
                    },
                );
                self.start_service(drive, job, now, sched);
            }
            Ev::DriveDone { drive } => {
                self.set_busy(drive, false);
                self.buf.completion[drive] = now;
                self.outstanding -= 1;
                if let Some(job) = self.buf.current_job[drive].take() {
                    self.tracer.emit(
                        now,
                        TraceEvent::JobCompleted {
                            job: job as u32,
                            drive: self.cfg.drive_at(drive).into(),
                        },
                    );
                }
                let lib = self.cfg.drive_at(drive).library.idx();
                self.try_dispatch(lib, now, sched);
            }
        }
    }
}

/// Serves one request against the placement, mutating `state` (mounts and
/// head positions persist to the next request) and reusing `buf` as its
/// working set. `work` is the request's tape jobs and their byte total. With `trace` set, the returned [`Tracer`] holds the
/// request's event timeline (mounts, exchanges, streams, completions — the
/// `tapesim serve --trace` view); `seek_policy` orders the extents on each
/// tape ([`SeekPolicy::Greedy`] is the paper's sweep).
#[allow(clippy::too_many_arguments)]
pub fn serve_request(
    cfg: &SystemConfig,
    placement: &Placement,
    policy: &SwitchPolicy,
    state: &mut MountState,
    buf: &mut EngineBuffers,
    (jobs, bytes): (&[TapeJob], Bytes),
    trace: bool,
    seek_policy: SeekPolicy,
) -> (RequestMetrics, Tracer) {
    let n_drives = cfg.total_drives();
    let n_tapes = jobs.len() as u32;
    buf.reset();
    // The heap lives in `buf` but runs the world that borrows `buf`.
    let mut sched = std::mem::take(&mut buf.sched);
    let events_before = sched.events_processed();

    let mut sim = RequestSim {
        cfg,
        placement,
        policy,
        state,
        outstanding: jobs.len(),
        jobs,
        buf,
        n_switches: 0,
        robot_wait: 0.0,
        tracer: if trace {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        },
        seek_policy,
    };

    // Trace prologue: the initial mount state (carried over from previous
    // requests) and the request's job list, so the audited transcript is
    // self-contained.
    for drive in 0..n_drives {
        if let Some(tape) = sim.state.mounted[drive] {
            sim.tracer.emit(
                SimTime::ZERO,
                TraceEvent::AssumeMounted {
                    drive: sim.cfg.drive_at(drive).into(),
                    tape: tape.into(),
                },
            );
        }
    }
    for (job, j) in jobs.iter().enumerate() {
        sim.tracer.emit(
            SimTime::ZERO,
            TraceEvent::JobSubmitted {
                job: job as u32,
                tape: j.tape.into(),
            },
        );
    }

    // t = 0: mounted jobs start streaming; the rest queue per library.
    // Mounts do not change in this pass, so one holder index answers
    // every "which drive holds this tape" (the lowest such drive).
    for (drive, mounted) in sim.state.mounted.iter().enumerate().rev() {
        if let Some(tape) = mounted {
            sim.buf.holder[cfg.tape_index(*tape)] = Some(drive);
        }
    }
    for (job, &TapeJob { tape, .. }) in jobs.iter().enumerate() {
        match sim.buf.holder[cfg.tape_index(tape)] {
            Some(drive) => sim.start_service(drive, job, SimTime::ZERO, &mut sched),
            None => sim.buf.pending[tape.library.idx()].push(job),
        }
    }
    for tape in sim.state.mounted.iter().flatten() {
        sim.buf.holder[cfg.tape_index(*tape)] = None;
    }
    for lib in 0..cfg.libraries as usize {
        sim.try_dispatch(lib, SimTime::ZERO, &mut sched);
    }

    let end = sched.run(&mut sim);
    assert_eq!(
        sim.outstanding, 0,
        "engine drained with unserved tapes — no eligible switch drive \
         exists; check the policy/config (m >= 1 guarantees progress)"
    );

    // Last-finishing drive defines the request's seek/transfer (§6).
    let response = end.as_secs();
    let completion = &sim.buf.completion;
    let last = (0..n_drives)
        .max_by(|&a, &b| {
            completion[a].cmp(&completion[b]).then(b.cmp(&a)) // deterministic: smaller index wins ties
        })
        .unwrap_or(0);
    let seek = sim.buf.seek[last];
    let transfer = sim.buf.transfer[last];
    let metrics = RequestMetrics {
        response,
        seek,
        transfer,
        switch: (response - seek - transfer).max(0.0),
        bytes,
        n_tapes,
        n_switches: sim.n_switches,
        robot_wait: sim.robot_wait,
        n_events: sched.events_processed() - events_before,
    };
    let tracer = sim.tracer;
    buf.sched = sched;
    (metrics, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::tape_jobs;
    use tapesim_model::specs::paper_table1;
    use tapesim_model::{LibraryId, ObjectId};
    use tapesim_placement::PlacementBuilder;
    use tapesim_workload::{ObjectRecord, Request, Workload};

    /// 4 objects of 8 GB: 0,1 on L0:T0; 2 on L0:T1; 3 on L1:T0.
    fn setup() -> (tapesim_model::SystemConfig, Placement, Workload) {
        let cfg = paper_table1();
        let objects: Vec<ObjectRecord> = (0..4)
            .map(|i| ObjectRecord {
                id: ObjectId(i),
                size: Bytes::gb(8),
            })
            .collect();
        let w = Workload::new(
            objects,
            vec![Request {
                rank: 0,
                probability: 1.0,
                objects: (0..4).map(ObjectId).collect(),
            }],
        );
        let mut b = PlacementBuilder::new(&cfg, &w);
        b.append(TapeId::new(LibraryId(0), 0), ObjectId(0), Bytes::gb(8), 0.5)
            .unwrap();
        b.append(TapeId::new(LibraryId(0), 0), ObjectId(1), Bytes::gb(8), 0.5)
            .unwrap();
        b.append(TapeId::new(LibraryId(0), 1), ObjectId(2), Bytes::gb(8), 0.3)
            .unwrap();
        b.append(TapeId::new(LibraryId(1), 0), ObjectId(3), Bytes::gb(8), 0.2)
            .unwrap();
        (cfg, b.build().unwrap(), w)
    }

    const XFER_8GB: f64 = 100.0; // 8 GB at 80 MB/s

    /// `jobs` with their byte total, as [`serve_request`] takes them.
    fn work(jobs: &[TapeJob]) -> (&[TapeJob], Bytes) {
        (jobs, jobs.iter().map(TapeJob::bytes).sum())
    }

    #[test]
    fn all_mounted_pure_parallel_transfer() {
        let (cfg, p, _w) = setup();
        let policy = SwitchPolicy::LeastPopular;
        let mut state = MountState::new(policy.initial_mounts(&p, &cfg));
        let jobs = tape_jobs(&p, &[ObjectId(0), ObjectId(2), ObjectId(3)]);
        let m = serve_request(
            &cfg,
            &p,
            &policy,
            &mut state,
            &mut EngineBuffers::new(&cfg),
            work(&jobs),
            false,
            SeekPolicy::Greedy,
        )
        .0;
        // All three tapes are among the initial mounts; heads at 0, each
        // object is the first extent on its tape → zero seek, 100 s each in
        // parallel.
        assert!(
            (m.response - XFER_8GB).abs() < 1e-9,
            "response {}",
            m.response
        );
        assert_eq!(m.n_switches, 0);
        assert!((m.switch - 0.0).abs() < 1e-9);
        assert!((m.transfer - XFER_8GB).abs() < 1e-9);
        // Bandwidth: 24 GB / 100 s = 240 MB/s — parallel speedup over one
        // drive's 80 MB/s.
        assert!((m.bandwidth_mbs() - 240.0).abs() < 1e-6);
    }

    #[test]
    fn sequential_extents_on_one_tape() {
        let (cfg, p, _w) = setup();
        let policy = SwitchPolicy::LeastPopular;
        let mut state = MountState::new(policy.initial_mounts(&p, &cfg));
        let jobs = tape_jobs(&p, &[ObjectId(0), ObjectId(1)]);
        let m = serve_request(
            &cfg,
            &p,
            &policy,
            &mut state,
            &mut EngineBuffers::new(&cfg),
            work(&jobs),
            false,
            SeekPolicy::Greedy,
        )
        .0;
        // Contiguous extents read back to back: 200 s, no seek gap.
        assert!((m.response - 2.0 * XFER_8GB).abs() < 1e-9);
        assert!((m.seek - 0.0).abs() < 1e-9);
        // Head persisted at 16 GB.
        let drive = state.drive_of(TapeId::new(LibraryId(0), 0)).unwrap();
        assert_eq!(state.head[drive], Bytes::gb(16));
    }

    #[test]
    fn unmounted_tape_costs_a_switch() {
        let (cfg, p, _w) = setup();
        let policy = SwitchPolicy::LeastPopular;
        // Mount nothing: every drive empty.
        let mut state = MountState::new(vec![None; cfg.total_drives()]);
        let jobs = tape_jobs(&p, &[ObjectId(0)]);
        let m = serve_request(
            &cfg,
            &p,
            &policy,
            &mut state,
            &mut EngineBuffers::new(&cfg),
            work(&jobs),
            false,
            SeekPolicy::Greedy,
        )
        .0;
        // Empty-drive switch: inject (7.6) + load (19) then 100 s transfer.
        let expected = 7.6 + 19.0 + XFER_8GB;
        assert!((m.response - expected).abs() < 1e-9, "got {}", m.response);
        assert_eq!(m.n_switches, 1);
        assert!((m.switch - 26.6).abs() < 1e-9);
    }

    #[test]
    fn occupied_drive_switch_includes_rewind_and_unload() {
        // 1 library × 2 drives; three single-object tapes with
        // probabilities T0 = 0.5, T1 = 0.4, T2 = 0.1.
        let cfg = tapesim_model::SystemConfig::new(
            1,
            tapesim_model::LibrarySpec {
                drives: 2,
                ..tapesim_model::specs::stk_l80_library(
                    tapesim_model::specs::lto3_drive(),
                    tapesim_model::specs::lto3_tape(),
                )
            },
        )
        .unwrap();
        let objects: Vec<ObjectRecord> = (0..3)
            .map(|i| ObjectRecord {
                id: ObjectId(i),
                size: Bytes::gb(8),
            })
            .collect();
        let w = Workload::new(
            objects,
            vec![Request {
                rank: 0,
                probability: 1.0,
                objects: (0..3).map(ObjectId).collect(),
            }],
        );
        let mut b = PlacementBuilder::new(&cfg, &w);
        for (i, prob) in [(0u32, 0.5), (1, 0.4), (2, 0.1)] {
            b.append(
                TapeId::new(LibraryId(0), i as u16),
                ObjectId(i),
                Bytes::gb(8),
                prob,
            )
            .unwrap();
        }
        let p = b.build().unwrap();
        let policy = SwitchPolicy::LeastPopular;

        // Request 1 occupies both drives with T0 and T2.
        let mut state = MountState::new(vec![None; 2]);
        serve_request(
            &cfg,
            &p,
            &policy,
            &mut state,
            &mut EngineBuffers::new(&cfg),
            work(&tape_jobs(&p, &[ObjectId(0), ObjectId(2)])),
            false,
            SeekPolicy::Greedy,
        );
        assert!(state.mounted.iter().all(|m| m.is_some()));

        // Request 2 needs T1: both drives occupied, the victim is the
        // least popular mounted tape (T2, head at 8 GB).
        let m = serve_request(
            &cfg,
            &p,
            &policy,
            &mut state,
            &mut EngineBuffers::new(&cfg),
            work(&tape_jobs(&p, &[ObjectId(1)])),
            false,
            SeekPolicy::Greedy,
        )
        .0;
        let rewind = 8.0 / 400.0 * 98.0; // 1.96 s
        let exchange = 19.0 + 7.6 + 7.6 + 19.0; // unload+eject+inject+load
        assert!(
            (m.response - (rewind + exchange + XFER_8GB)).abs() < 1e-9,
            "got {}",
            m.response
        );
        // T0 (more popular) survived; T2 was evicted.
        assert!(state.drive_of(TapeId::new(LibraryId(0), 0)).is_some());
        assert!(state.drive_of(TapeId::new(LibraryId(0), 2)).is_none());
        assert!(state.drive_of(TapeId::new(LibraryId(0), 1)).is_some());
    }

    #[test]
    fn one_robot_serialises_two_switches() {
        let (cfg, p, _w) = setup();
        let policy = SwitchPolicy::LeastPopular;
        let mut state = MountState::new(vec![None; cfg.total_drives()]);
        // Objects 0 (L0:T0) and 2 (L0:T1): two switches in the SAME library.
        let jobs = tape_jobs(&p, &[ObjectId(0), ObjectId(2)]);
        let m = serve_request(
            &cfg,
            &p,
            &policy,
            &mut state,
            &mut EngineBuffers::new(&cfg),
            work(&jobs),
            false,
            SeekPolicy::Greedy,
        )
        .0;
        // Robot does two 26.6 s inject+load blocks back to back; the second
        // drive starts its 100 s transfer at 53.2 s.
        let expected = 2.0 * 26.6 + XFER_8GB;
        assert!((m.response - expected).abs() < 1e-9, "got {}", m.response);
        assert_eq!(m.n_switches, 2);
        assert!(m.robot_wait > 0.0, "second switch queued on the robot");
        // Every drive was empty, so each victim choice was a tie: it goes
        // to the lowest free bay.
        assert_eq!(state.drive_of(TapeId::new(LibraryId(0), 0)), Some(0));
        assert_eq!(state.drive_of(TapeId::new(LibraryId(0), 1)), Some(1));
    }

    #[test]
    fn a_second_arm_parallelises_exchanges_within_a_library() {
        let (mut cfg, p, _w) = setup();
        cfg.library.robot.arms = 2;
        let policy = SwitchPolicy::LeastPopular;
        let mut state = MountState::new(vec![None; cfg.total_drives()]);
        // Objects 0 (L0:T0) and 2 (L0:T1): both switches in library 0, but
        // two arms carry them concurrently.
        let jobs = tape_jobs(&p, &[ObjectId(0), ObjectId(2)]);
        let m = serve_request(
            &cfg,
            &p,
            &policy,
            &mut state,
            &mut EngineBuffers::new(&cfg),
            work(&jobs),
            false,
            SeekPolicy::Greedy,
        )
        .0;
        assert!(
            (m.response - (26.6 + XFER_8GB)).abs() < 1e-9,
            "dual-arm response {}",
            m.response
        );
        assert!((m.robot_wait - 0.0).abs() < 1e-9);
    }

    #[test]
    fn robots_of_different_libraries_work_in_parallel() {
        let (cfg, p, _w) = setup();
        let policy = SwitchPolicy::LeastPopular;
        let mut state = MountState::new(vec![None; cfg.total_drives()]);
        // Objects 0 (L0) and 3 (L1): one switch in each library.
        let jobs = tape_jobs(&p, &[ObjectId(0), ObjectId(3)]);
        let m = serve_request(
            &cfg,
            &p,
            &policy,
            &mut state,
            &mut EngineBuffers::new(&cfg),
            work(&jobs),
            false,
            SeekPolicy::Greedy,
        )
        .0;
        assert!(
            (m.response - (26.6 + XFER_8GB)).abs() < 1e-9,
            "got {}",
            m.response
        );
        assert_eq!(m.n_switches, 2);
        assert!((m.robot_wait - 0.0).abs() < 1e-9, "no robot queueing");
    }

    #[test]
    fn decomposition_adds_up() {
        let (cfg, p, _w) = setup();
        let policy = SwitchPolicy::LeastPopular;
        let mut state = MountState::new(vec![None; cfg.total_drives()]);
        let jobs = tape_jobs(&p, &[ObjectId(0), ObjectId(1), ObjectId(2), ObjectId(3)]);
        let m = serve_request(
            &cfg,
            &p,
            &policy,
            &mut state,
            &mut EngineBuffers::new(&cfg),
            work(&jobs),
            false,
            SeekPolicy::Greedy,
        )
        .0;
        assert!((m.switch + m.seek + m.transfer - m.response).abs() < 1e-9);
        assert_eq!(m.n_tapes, 3);
        assert_eq!(m.bytes, Bytes::gb(32));
    }

    #[test]
    fn empty_request() {
        let (cfg, p, _w) = setup();
        let policy = SwitchPolicy::LeastPopular;
        let mut state = MountState::new(policy.initial_mounts(&p, &cfg));
        let m = serve_request(
            &cfg,
            &p,
            &policy,
            &mut state,
            &mut EngineBuffers::new(&cfg),
            work(&[]),
            false,
            SeekPolicy::Greedy,
        )
        .0;
        assert_eq!(m.response, 0.0);
        assert_eq!(m.bytes, Bytes::ZERO);
    }
}
