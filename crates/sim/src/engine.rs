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

use crate::catalog::TapeJob;
use crate::metrics::RequestMetrics;
use crate::policy::SwitchPolicy;
use crate::seek_order::{self, SeekPolicy};
use tapesim_des::{Resource, Scheduler, SimTime, TraceEvent, Tracer, World};
use tapesim_model::tape::Extent;
use tapesim_model::{Bytes, DriveId, SystemConfig, TapeId};
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

struct RequestSim<'a> {
    cfg: &'a SystemConfig,
    placement: &'a Placement,
    policy: &'a SwitchPolicy,
    state: &'a mut MountState,
    robots: Vec<Resource>,
    /// All jobs, borrowed from the caller; `pending` holds
    /// indices not yet assigned to a drive.
    jobs: &'a [TapeJob],
    pending: Vec<Vec<usize>>, // per library, front = next to dispatch
    busy: Vec<bool>,
    /// Job index a drive is streaming or switching for, for trace events.
    current_job: Vec<Option<usize>>,
    // Per-drive accounting for this request.
    seek: Vec<f64>,
    transfer: Vec<f64>,
    completion: Vec<SimTime>,
    outstanding: usize,
    n_switches: u32,
    robot_wait: f64,
    tracer: Tracer,
    /// In-tape service-order planner ([`SeekPolicy::Greedy`] by default).
    seek_policy: SeekPolicy,
    /// Seek-plan scratch reused by [`Self::start_service`] across jobs
    /// instead of allocating per-job order vectors.
    plan_scratch: Vec<Extent>,
}

impl<'a> RequestSim<'a> {
    fn drive_id(&self, idx: usize) -> DriveId {
        let d = self.cfg.library.drives as usize;
        DriveId::new(tapesim_model::LibraryId((idx / d) as u16), (idx % d) as u8)
    }

    /// Starts streaming `job` on `drive` (tape already mounted) and
    /// schedules its completion.
    fn start_service(&mut self, drive: usize, job: usize, now: SimTime, sched: &mut Scheduler<Ev>) {
        let spec = &self.cfg.library.drive;
        let capacity = self.cfg.library.tape.capacity;
        // Scratch-backed planning: one buffer reused for every job.
        let mut plan = std::mem::take(&mut self.plan_scratch);
        seek_order::plan_with(
            self.seek_policy,
            self.state.head[drive],
            &self.jobs[job].extents,
            &mut plan,
        );
        let mut pos = self.state.head[drive];
        let mut seek_s = 0.0;
        let mut xfer_s = 0.0;
        for e in &plan {
            seek_s += spec.position_time(pos, e.offset, capacity);
            xfer_s += spec.transfer_time(e.size);
            pos = e.end();
        }
        let plan_len = plan.len();
        plan.clear();
        self.plan_scratch = plan;
        self.state.head[drive] = pos;
        self.seek[drive] += seek_s;
        self.transfer[drive] += xfer_s;
        self.busy[drive] = true;
        self.current_job[drive] = Some(job);
        let finish = now + SimTime::from_secs(seek_s + xfer_s);
        self.tracer.emit(
            now,
            TraceEvent::Transfer {
                drive: self.drive_id(drive).into(),
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
        let spec = &self.cfg.library.drive;
        let robot = &self.cfg.library.robot;
        let capacity = self.cfg.library.tape.capacity;
        let lib = self.drive_id(drive).library.idx();

        let (rewind_s, exchange_s) = match self.state.mounted[drive] {
            Some(_) => (
                spec.rewind_time(self.state.head[drive], capacity),
                spec.unload_time + robot.exchange_handling_time() + spec.load_time,
            ),
            None => (0.0, robot.inject_handling_time() + spec.load_time),
        };
        // The cartridge leaves the drive; until SwitchDone the drive is in
        // transition (busy) and holds nothing.
        if let Some(old) = self.state.mounted[drive].take() {
            self.tracer.emit(
                now,
                TraceEvent::Unmounted {
                    drive: self.drive_id(drive).into(),
                    tape: old.into(),
                },
            );
        }
        self.state.head[drive] = Bytes::ZERO;
        self.busy[drive] = true;
        self.current_job[drive] = Some(job);

        let rewind_done = now + SimTime::from_secs(rewind_s);
        let grant = self.robots[lib].acquire(rewind_done, SimTime::from_secs(exchange_s));
        self.robot_wait += (grant.start - rewind_done).as_secs();
        self.n_switches += 1;
        self.tracer.emit(
            now,
            TraceEvent::ExchangeBegun {
                drive: self.drive_id(drive).into(),
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
        let d = self.cfg.library.drives as usize;
        while !self.pending[lib].is_empty() {
            // Eligible: idle switch drives in this library. The mounted
            // tape of an idle drive is never still needed — needed mounted
            // tapes were set busy at t = 0 and stay busy until served.
            let mut best: Option<(u8, f64, usize)> = None;
            for bay in 0..d {
                let idx = lib * d + bay;
                if self.busy[idx] {
                    continue;
                }
                let id = self.drive_id(idx);
                if !self.policy.is_switch_drive(id, self.cfg) {
                    continue;
                }
                let (kind, p) = self
                    .policy
                    .victim_key(self.state.mounted[idx], self.placement);
                let key = (kind, p, idx);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            let Some((_, _, drive)) = best else {
                return; // all eligible drives busy; retry on DriveDone
            };
            let job = self.pending[lib].remove(0);
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
                        drive: self.drive_id(drive).into(),
                        tape: self.jobs[job].tape.into(),
                    },
                );
                self.start_service(drive, job, now, sched);
            }
            Ev::DriveDone { drive } => {
                self.busy[drive] = false;
                self.completion[drive] = now;
                self.outstanding -= 1;
                if let Some(job) = self.current_job[drive].take() {
                    self.tracer.emit(
                        now,
                        TraceEvent::JobCompleted {
                            job: job as u32,
                            drive: self.drive_id(drive).into(),
                        },
                    );
                }
                let lib = self.drive_id(drive).library.idx();
                self.try_dispatch(lib, now, sched);
            }
        }
    }
}

/// Serves one request against the placement, mutating `state` (mounts and
/// head positions persist to the next request). With `trace` set, the
/// returned [`Tracer`] holds the request's event timeline (mounts,
/// exchanges, streams, completions — the `tapesim serve --trace` view);
/// `seek_policy` orders the extents on each tape ([`SeekPolicy::Greedy`]
/// is the paper's sweep).
#[allow(clippy::too_many_arguments)]
pub fn serve_request(
    cfg: &SystemConfig,
    placement: &Placement,
    policy: &SwitchPolicy,
    state: &mut MountState,
    jobs: &[TapeJob],
    trace: bool,
    seek_policy: SeekPolicy,
) -> (RequestMetrics, Tracer) {
    let n_drives = cfg.total_drives();
    let n_libs = cfg.libraries as usize;
    let bytes: Bytes = jobs.iter().map(|j| j.bytes()).sum();
    let n_tapes = jobs.len() as u32;

    let mut sim = RequestSim {
        cfg,
        placement,
        policy,
        state,
        robots: vec![Resource::new(cfg.library.robot.arms.max(1) as usize); n_libs],
        outstanding: jobs.len(),
        jobs,
        pending: vec![Vec::new(); n_libs],
        busy: vec![false; n_drives],
        current_job: vec![None; n_drives],
        seek: vec![0.0; n_drives],
        transfer: vec![0.0; n_drives],
        completion: vec![SimTime::ZERO; n_drives],
        n_switches: 0,
        robot_wait: 0.0,
        tracer: if trace {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        },
        seek_policy,
        plan_scratch: Vec::new(),
    };

    let mut sched: Scheduler<Ev> = Scheduler::new();

    // Trace prologue: the initial mount state (carried over from previous
    // requests) and the request's job list, so the audited transcript is
    // self-contained.
    for drive in 0..n_drives {
        if let Some(tape) = sim.state.mounted[drive] {
            sim.tracer.emit(
                SimTime::ZERO,
                TraceEvent::AssumeMounted {
                    drive: sim.drive_id(drive).into(),
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
    for job in 0..sim.jobs.len() {
        match sim.state.drive_of(sim.jobs[job].tape) {
            Some(drive) => sim.start_service(drive, job, SimTime::ZERO, &mut sched),
            None => {
                let lib = sim.jobs[job].tape.library.idx();
                sim.pending[lib].push(job);
            }
        }
    }
    for lib in 0..n_libs {
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
    let last = (0..n_drives)
        .max_by(|&a, &b| {
            sim.completion[a].cmp(&sim.completion[b]).then(b.cmp(&a)) // deterministic: smaller index wins ties
        })
        .unwrap_or(0);
    let seek = sim.seek[last];
    let transfer = sim.transfer[last];
    let metrics = RequestMetrics {
        response,
        seek,
        transfer,
        switch: (response - seek - transfer).max(0.0),
        bytes,
        n_tapes,
        n_switches: sim.n_switches,
        robot_wait: sim.robot_wait,
        n_events: sched.events_processed(),
    };
    (metrics, sim.tracer)
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
            &jobs,
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
            &jobs,
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
            &jobs,
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
            &tape_jobs(&p, &[ObjectId(0), ObjectId(2)]),
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
            &tape_jobs(&p, &[ObjectId(1)]),
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
            &jobs,
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
            &jobs,
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
            &jobs,
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
            &jobs,
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
            &[],
            false,
            SeekPolicy::Greedy,
        )
        .0;
        assert_eq!(m.response, 0.0);
        assert_eq!(m.bytes, Bytes::ZERO);
    }
}
