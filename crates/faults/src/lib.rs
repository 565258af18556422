//! Seeded, deterministic fault injection for the tape simulator.
//!
//! A [`FaultPlan`] is generated *up front* from a [`FaultSpec`] and a
//! [`SystemConfig`] by a seeded RNG (ChaCha12, per the workspace
//! determinism rules): permanent drive failures (exponential first-failure
//! times), robot jams (a Poisson process of repair windows per library),
//! and per-tape media bad-spots (Poisson count, uniform offsets). No
//! randomness is drawn *during* a run — the engines consult the plan
//! through a read-only [`FaultClock`], so a zero-fault plan takes exactly
//! the code paths (and produces exactly the arithmetic) of a fault-free
//! run.
//!
//! Retry policy: a read crossing bad spots retries with capped exponential
//! backoff in simulated time (the `k`-th retry waits
//! `min(retry_cap_secs, retry_base_secs · 2^(k−1))`), repositioning and
//! re-reading the extent each time. Each job has a retry *budget* of
//! [`FaultSpec::max_retries`]; a job whose spots demand more than the
//! budget is **fatal** — the engine fails it over to a replica copy or
//! counts it as a terminal loss. See `DESIGN.md` §10.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use tapesim_des::SimTime;
use tapesim_model::tape::Extent;
use tapesim_model::{Bytes, DriveSpec, SystemConfig};

pub mod chaos;

pub use chaos::{ChaosEvent, ChaosKind, ChaosPlan, ChaosSpec};

/// Seed-domain separator for fault-plan generation (cf. `^ 0x6A1` for
/// arrivals and `^ 0x9A3E` for request picks).
const FAULT_SEED_SALT: u64 = 0xFA07;

/// Fault-process parameters. All rates are *expected* values; the plan
/// realises them with a seeded RNG. A rate of zero disables that process
/// entirely (no RNG draws are made for it, so plans with different
/// processes enabled are independently reproducible).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// RNG seed for plan generation.
    pub seed: u64,
    /// Mean time between permanent drive failures, hours (0 = drives
    /// never fail).
    pub drive_mtbf_hours: f64,
    /// Robot-arm jam rate per library, jams/hour (0 = never jams).
    pub jams_per_hour: f64,
    /// Repair delay per jam, seconds.
    pub jam_repair_secs: f64,
    /// Expected media bad-spots per tape (0 = clean media).
    pub bad_spots_per_tape: f64,
    /// First-retry backoff, seconds.
    pub retry_base_secs: f64,
    /// Backoff cap, seconds.
    pub retry_cap_secs: f64,
    /// Per-job retry budget before a read is fatal.
    pub max_retries: u32,
    /// Faults are only generated inside `[0, horizon_hours]` of simulated
    /// time.
    pub horizon_hours: f64,
}

impl FaultSpec {
    /// A spec that injects nothing: every rate zero. The plan it
    /// generates is empty and a run under it is bit-identical to a
    /// fault-free run.
    pub fn none(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            drive_mtbf_hours: 0.0,
            jams_per_hour: 0.0,
            jam_repair_secs: 0.0,
            bad_spots_per_tape: 0.0,
            retry_base_secs: 1.0,
            retry_cap_secs: 60.0,
            max_retries: 3,
            horizon_hours: 0.0,
        }
    }

    /// A moderate all-processes-on spec for smoke runs: drives fail on
    /// the order of the run length, the robot jams a few times, most
    /// tapes carry a bad spot.
    pub fn moderate(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            drive_mtbf_hours: 12.0,
            jams_per_hour: 0.5,
            jam_repair_secs: 120.0,
            bad_spots_per_tape: 0.5,
            retry_base_secs: 1.0,
            retry_cap_secs: 60.0,
            max_retries: 3,
            horizon_hours: 8.0,
        }
    }

    /// Scales the three fault *rates* by `intensity` (retry policy and
    /// horizon are untouched). `intensity == 0` yields a zero-fault spec.
    pub fn scaled(mut self, intensity: f64) -> FaultSpec {
        if intensity <= 0.0 {
            self.drive_mtbf_hours = 0.0;
            self.jams_per_hour = 0.0;
            self.bad_spots_per_tape = 0.0;
        } else {
            // MTBF is inverse to the failure rate.
            self.drive_mtbf_hours /= intensity;
            self.jams_per_hour *= intensity;
            self.bad_spots_per_tape *= intensity;
        }
        self
    }

    /// Whether every fault process is disabled.
    pub fn is_zero(&self) -> bool {
        self.drive_mtbf_hours <= 0.0 && self.jams_per_hour <= 0.0 && self.bad_spots_per_tape <= 0.0
    }
}

/// One media defect: reads crossing `offset` demand `severity` retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BadSpot {
    /// Position on the tape.
    pub offset: Bytes,
    /// Retries this spot demands of a read crossing it (severity greater
    /// than the job's remaining budget makes the read fatal).
    pub severity: u32,
}

/// What a job's read pays for the bad spots under it
/// ([`FaultClock::charge`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadOutcome {
    /// Retries actually burned (never exceeds [`FaultSpec::max_retries`]).
    pub retries: u32,
    /// Seconds the retries add to the read: their capped-exponential
    /// backoff plus one reposition-and-reread of the extent per retry.
    pub penalty_secs: f64,
    /// Some extent demanded more retries than the budget had left: the
    /// read fails after burning the whole budget.
    pub fatal: bool,
}

/// A fully realised fault timetable for one system: who fails, when, and
/// where the media is bad. Generated once, consulted read-only.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    spec: FaultSpec,
    /// Per dense drive index: the instant the drive permanently fails
    /// ([`SimTime::MAX`] = never).
    drive_fail: Vec<SimTime>,
    /// Per library: non-overlapping `(start, end)` jam windows, sorted.
    jams: Vec<Vec<(SimTime, SimTime)>>,
    /// Per dense tape index: bad spots sorted by offset.
    spots: Vec<Vec<BadSpot>>,
}

impl FaultPlan {
    /// Realises `spec` against `cfg` with a seeded RNG. The draw order is
    /// fixed (drives, then libraries, then tapes, each in dense-index
    /// order) so plans are reproducible across runs and platforms.
    pub fn generate(spec: &FaultSpec, cfg: &SystemConfig) -> FaultPlan {
        let mut rng = ChaCha12Rng::seed_from_u64(spec.seed ^ FAULT_SEED_SALT);
        let horizon_s = spec.horizon_hours * 3600.0;
        let exp = |rng: &mut ChaCha12Rng, mean_secs: f64| -> f64 {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            -u.ln() * mean_secs
        };

        let mut drive_fail = vec![SimTime::MAX; cfg.total_drives()];
        if spec.drive_mtbf_hours > 0.0 {
            for fail in &mut drive_fail {
                let t = exp(&mut rng, spec.drive_mtbf_hours * 3600.0);
                if t <= horizon_s {
                    *fail = SimTime::from_secs(t);
                }
            }
        }

        let mut jams = vec![Vec::new(); cfg.libraries as usize];
        if spec.jams_per_hour > 0.0 && spec.jam_repair_secs > 0.0 {
            for windows in &mut jams {
                let mut t = 0.0;
                loop {
                    t += exp(&mut rng, 3600.0 / spec.jams_per_hour);
                    if t > horizon_s {
                        break;
                    }
                    let end = t + spec.jam_repair_secs;
                    windows.push((SimTime::from_secs(t), SimTime::from_secs(end)));
                    // The robot cannot jam again while under repair, so
                    // windows never overlap and stay sorted.
                    t = end;
                }
            }
        }

        let capacity = cfg.library.tape.capacity;
        let mut spots = vec![Vec::new(); cfg.total_tapes()];
        if spec.bad_spots_per_tape > 0.0 {
            // Knuth's product-of-uniforms Poisson sampler: the expected
            // per-tape rate is small, so the loop is short.
            let threshold = (-spec.bad_spots_per_tape).exp();
            for tape_spots in &mut spots {
                let mut count = 0usize;
                let mut p = 1.0;
                loop {
                    p *= rng.gen_range(f64::EPSILON..1.0f64);
                    if p <= threshold {
                        break;
                    }
                    count += 1;
                }
                for _ in 0..count {
                    let offset = capacity.scale(rng.gen_range(0.0..1.0f64));
                    // Uniform over 1..=max_retries+1: severity above the
                    // budget (one in max_retries+1 spots) is fatal on its
                    // own.
                    let u: f64 = rng.gen_range(0.0..1.0);
                    let span = spec.max_retries as f64 + 1.0;
                    let severity = 1 + (u * span) as u32;
                    tape_spots.push(BadSpot {
                        offset,
                        severity: severity.min(spec.max_retries + 1),
                    });
                }
                tape_spots.sort_by_key(|s| s.offset);
            }
        }

        FaultPlan {
            spec: *spec,
            drive_fail,
            jams,
            spots,
        }
    }

    /// The empty plan: nothing ever fails. Equivalent to generating from
    /// [`FaultSpec::none`].
    pub fn zero(cfg: &SystemConfig) -> FaultPlan {
        FaultPlan::generate(&FaultSpec::none(0), cfg)
    }

    /// The spec this plan realises.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Whether the plan contains no fault events at all.
    pub fn is_zero(&self) -> bool {
        self.drive_fail.iter().all(|&t| t == SimTime::MAX)
            && self.jams.iter().all(Vec::is_empty)
            && self.spots.iter().all(Vec::is_empty)
    }

    /// A read-only view for the engines.
    pub fn clock(&self) -> FaultClock<'_> {
        FaultClock { plan: self }
    }

    /// Number of drives that fail inside the horizon.
    pub fn n_drive_failures(&self) -> usize {
        self.drive_fail
            .iter()
            .filter(|&&t| t < SimTime::MAX)
            .count()
    }

    /// Total jam windows across all libraries.
    pub fn n_jams(&self) -> usize {
        self.jams.iter().map(Vec::len).sum()
    }

    /// Total media bad-spots across all tapes.
    pub fn n_spots(&self) -> usize {
        self.spots.iter().map(Vec::len).sum()
    }

    /// A copy of the plan with every fault outside the `owned` libraries
    /// erased: drive failures reset to never, jam windows and bad spots
    /// cleared. `owned[lib]` says whether library `lib` is kept; indices
    /// beyond `owned`'s length are dropped.
    ///
    /// This is how the serve runtime hands each library shard its slice
    /// of one globally generated plan: the union of the restrictions over
    /// a partition of the libraries is the full plan, so sharded runs see
    /// exactly the faults the equivalent single-engine run sees — on the
    /// hardware each shard actually owns.
    pub fn restrict_to_libraries(&self, cfg: &SystemConfig, owned: &[bool]) -> FaultPlan {
        let drives = cfg.library.drives.max(1) as usize;
        let tapes = cfg.library.tapes.max(1) as usize;
        let owns = |lib: usize| owned.get(lib).copied().unwrap_or(false);
        let mut out = self.clone();
        for (i, fail) in out.drive_fail.iter_mut().enumerate() {
            if !owns(i / drives) {
                *fail = SimTime::MAX;
            }
        }
        for (lib, windows) in out.jams.iter_mut().enumerate() {
            if !owns(lib) {
                windows.clear();
            }
        }
        for (i, spots) in out.spots.iter_mut().enumerate() {
            if !owns(i / tapes) {
                spots.clear();
            }
        }
        out
    }
}

/// Read-only view of a [`FaultPlan`] that the engines consult. All
/// queries are pure; under a zero plan every query is the identity /
/// zero, so guarded fault handling is arithmetically invisible.
#[derive(Debug, Clone, Copy)]
pub struct FaultClock<'a> {
    plan: &'a FaultPlan,
}

impl FaultClock<'_> {
    /// Whether the underlying plan is empty.
    pub fn is_zero(&self) -> bool {
        self.plan.is_zero()
    }

    /// The per-job retry budget.
    pub fn max_retries(&self) -> u32 {
        self.plan.spec.max_retries
    }

    /// When the drive at dense index `drive` permanently fails
    /// ([`SimTime::MAX`] = never). Work must never be scheduled to finish
    /// after this instant.
    pub fn drive_fail_at(&self, drive: usize) -> SimTime {
        self.plan
            .drive_fail
            .get(drive)
            .copied()
            .unwrap_or(SimTime::MAX)
    }

    /// Jam windows of `library`, sorted and non-overlapping.
    pub fn jams(&self, library: usize) -> &[(SimTime, SimTime)] {
        self.plan.jams.get(library).map_or(&[], Vec::as_slice)
    }

    /// Pushes a robot operation of `duration` starting at `at` past any
    /// jam window it would overlap, returning the earliest start at or
    /// after `at` such that `[start, start + duration)` avoids every jam.
    pub fn robot_ready(&self, library: usize, at: SimTime, duration: SimTime) -> SimTime {
        let mut start = at;
        for &(s, e) in self.jams(library) {
            if start + duration <= s {
                break; // fits entirely before this window
            }
            if start < e {
                start = e; // overlaps: resume after the repair
            }
        }
        start
    }

    /// Total retry demand of a read covering `[lo, hi)` on the tape at
    /// dense index `tape`: the sum of severities of the bad spots in
    /// range. Zero on clean media.
    fn spot_demand(&self, tape: usize, lo: Bytes, hi: Bytes) -> u32 {
        let Some(spots) = self.plan.spots.get(tape) else {
            return 0;
        };
        spots
            .iter()
            .filter(|s| lo <= s.offset && s.offset < hi)
            .map(|s| s.severity)
            .sum()
    }

    /// Charges a read of `extents` (in the order the drive serves them)
    /// on the tape at dense index `tape` for the bad spots under it.
    /// Extent by extent, each spot demand is granted from what is left of
    /// the job's [`FaultClock::max_retries`] budget; each granted retry
    /// costs one reposition back over the extent and one reread of it. A
    /// demand beyond what is left makes the read fatal. The backoff of
    /// all granted retries is added once, after the walk. A read of a tape
    /// without bad spots (every read under a zero plan) is charged nothing.
    #[inline]
    pub fn charge(
        &self,
        tape: usize,
        extents: &[Extent],
        drive: &DriveSpec,
        capacity: Bytes,
    ) -> ReadOutcome {
        let mut out = ReadOutcome {
            retries: 0,
            penalty_secs: 0.0,
            fatal: false,
        };
        if self.plan.spots.get(tape).is_none_or(Vec::is_empty) {
            return out;
        }
        let budget = self.max_retries();
        let mut extent_retry_s = 0.0;
        for e in extents {
            let demand = self.spot_demand(tape, e.offset, e.end());
            if demand > 0 {
                let granted = demand.min(budget - out.retries);
                out.retries += granted;
                extent_retry_s += granted as f64
                    * (drive.position_time(e.end(), e.offset, capacity)
                        + drive.transfer_time(e.size));
                if demand > granted {
                    out.fatal = true;
                }
            }
        }
        if out.retries > 0 || out.fatal {
            out.penalty_secs = self.backoff_secs(out.retries) + extent_retry_s;
        }
        out
    }

    /// Cumulative backoff of `retries` attempts, seconds: the `k`-th
    /// retry waits `min(cap, base · 2^(k−1))`.
    fn backoff_secs(&self, retries: u32) -> f64 {
        let base = self.plan.spec.retry_base_secs;
        let cap = self.plan.spec.retry_cap_secs;
        let mut total = 0.0;
        let mut wait = base;
        for _ in 0..retries {
            total += wait.min(cap);
            wait *= 2.0;
        }
        total
    }

    /// Whether the system is degraded at `t`: any drive already failed,
    /// or any library's robot inside a jam window.
    pub fn degraded_at(&self, t: SimTime) -> bool {
        if self
            .plan
            .drive_fail
            .iter()
            .any(|&f| f < SimTime::MAX && f <= t)
        {
            return true;
        }
        self.plan
            .jams
            .iter()
            .any(|ws| ws.iter().any(|&(s, e)| s <= t && t < e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_model::specs::paper_table1;

    fn spec() -> FaultSpec {
        FaultSpec::moderate(42)
    }

    #[test]
    fn zero_plan_is_empty_and_identity() {
        let cfg = paper_table1();
        let plan = FaultPlan::zero(&cfg);
        assert!(plan.is_zero());
        assert_eq!(plan.n_drive_failures(), 0);
        assert_eq!(plan.n_jams(), 0);
        assert_eq!(plan.n_spots(), 0);
        let clock = plan.clock();
        assert_eq!(clock.drive_fail_at(0), SimTime::MAX);
        assert_eq!(
            clock.robot_ready(0, SimTime::from_secs(5.0), SimTime::from_secs(30.0)),
            SimTime::from_secs(5.0)
        );
        assert_eq!(clock.spot_demand(0, Bytes::ZERO, Bytes::tb(1)), 0);
        assert!(!clock.degraded_at(SimTime::MAX));
    }

    #[test]
    fn restrict_to_all_libraries_is_identity() {
        let cfg = paper_table1();
        let plan = FaultPlan::generate(
            &FaultSpec {
                horizon_hours: 48.0,
                ..spec()
            },
            &cfg,
        );
        let all = vec![true; cfg.libraries as usize];
        assert_eq!(plan.restrict_to_libraries(&cfg, &all), plan);

        let zero = FaultPlan::zero(&cfg);
        assert!(zero.restrict_to_libraries(&cfg, &all).is_zero());
        assert!(zero
            .restrict_to_libraries(&cfg, &vec![false; cfg.libraries as usize])
            .is_zero());
    }

    #[test]
    fn restriction_partitions_the_plan_across_shards() {
        let cfg = paper_table1();
        let plan = FaultPlan::generate(
            &FaultSpec {
                horizon_hours: 48.0,
                ..spec()
            },
            &cfg,
        );
        let n_libs = cfg.libraries as usize;
        assert!(plan.n_drive_failures() > 0 && plan.n_jams() > 0 && plan.n_spots() > 0);

        // One shard per library: the per-shard fault counts must sum to
        // the full plan's, with nothing duplicated or dropped.
        let (mut fails, mut jams, mut spots) = (0, 0, 0);
        for lib in 0..n_libs {
            let mut owned = vec![false; n_libs];
            owned[lib] = true;
            let shard = plan.restrict_to_libraries(&cfg, &owned);
            fails += shard.n_drive_failures();
            jams += shard.n_jams();
            spots += shard.n_spots();
            // The restriction only ever erases, never invents.
            assert!(shard.n_drive_failures() <= plan.n_drive_failures());
        }
        assert_eq!(fails, plan.n_drive_failures());
        assert_eq!(jams, plan.n_jams());
        assert_eq!(spots, plan.n_spots());
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = paper_table1();
        let a = FaultPlan::generate(&spec(), &cfg);
        let b = FaultPlan::generate(&spec(), &cfg);
        assert_eq!(a, b);
        let c = FaultPlan::generate(&FaultSpec { seed: 43, ..spec() }, &cfg);
        assert_ne!(a, c, "different seeds must realise different plans");
    }

    #[test]
    fn moderate_spec_injects_every_process() {
        let cfg = paper_table1();
        // Long horizon so each process realises with near certainty.
        let plan = FaultPlan::generate(
            &FaultSpec {
                horizon_hours: 1000.0,
                ..spec()
            },
            &cfg,
        );
        assert!(plan.n_drive_failures() > 0);
        assert!(plan.n_jams() > 0);
        assert!(plan.n_spots() > 0);
        assert!(!plan.is_zero());
    }

    #[test]
    fn faults_respect_the_horizon() {
        let cfg = paper_table1();
        let s = FaultSpec {
            horizon_hours: 2.0,
            ..spec()
        };
        let horizon = SimTime::from_secs(s.horizon_hours * 3600.0);
        let plan = FaultPlan::generate(&s, &cfg);
        for i in 0..cfg.total_drives() {
            let t = plan.clock().drive_fail_at(i);
            assert!(t == SimTime::MAX || t <= horizon);
        }
        for lib in 0..cfg.libraries as usize {
            for &(start, end) in plan.clock().jams(lib) {
                assert!(start <= horizon);
                assert!(end > start);
            }
        }
    }

    #[test]
    fn scaled_zero_intensity_is_a_zero_plan() {
        let cfg = paper_table1();
        let plan = FaultPlan::generate(&spec().scaled(0.0), &cfg);
        assert!(plan.is_zero());
        assert!(spec().scaled(0.0).is_zero());
    }

    #[test]
    fn higher_intensity_injects_more() {
        let cfg = paper_table1();
        let lo = FaultPlan::generate(&spec(), &cfg);
        let hi = FaultPlan::generate(&spec().scaled(8.0), &cfg);
        let weight = |p: &FaultPlan| p.n_drive_failures() + p.n_jams() + p.n_spots();
        assert!(
            weight(&hi) > weight(&lo),
            "8× intensity should inject more events: {} vs {}",
            weight(&hi),
            weight(&lo)
        );
    }

    #[test]
    fn robot_ready_pushes_past_jam_windows() {
        let cfg = paper_table1();
        let mut plan = FaultPlan::zero(&cfg);
        plan.jams[0] = vec![
            (SimTime::from_secs(100.0), SimTime::from_secs(200.0)),
            (SimTime::from_secs(300.0), SimTime::from_secs(400.0)),
        ];
        let clock = plan.clock();
        let d = SimTime::from_secs(50.0);
        // Fits before the first window.
        assert_eq!(
            clock.robot_ready(0, SimTime::from_secs(10.0), d),
            SimTime::from_secs(10.0)
        );
        // Would span the first window start: pushed past the repair.
        assert_eq!(
            clock.robot_ready(0, SimTime::from_secs(80.0), d),
            SimTime::from_secs(200.0)
        );
        // Inside a window: resumes at its end.
        assert_eq!(
            clock.robot_ready(0, SimTime::from_secs(150.0), d),
            SimTime::from_secs(200.0)
        );
        // Pushed out of window one straight into the gap before two.
        assert_eq!(
            clock.robot_ready(0, SimTime::from_secs(199.0), d),
            SimTime::from_secs(200.0)
        );
        // A long operation that cannot fit in the gap is pushed past both.
        let long = SimTime::from_secs(150.0);
        assert_eq!(
            clock.robot_ready(0, SimTime::from_secs(190.0), long),
            SimTime::from_secs(400.0)
        );
        // Other libraries are unaffected.
        assert_eq!(
            clock.robot_ready(1, SimTime::from_secs(150.0), d),
            SimTime::from_secs(150.0)
        );
    }

    #[test]
    fn spot_demand_sums_severities_in_range() {
        let cfg = paper_table1();
        let mut plan = FaultPlan::zero(&cfg);
        plan.spots[3] = vec![
            BadSpot {
                offset: Bytes::gb(10),
                severity: 2,
            },
            BadSpot {
                offset: Bytes::gb(50),
                severity: 4,
            },
        ];
        let clock = plan.clock();
        assert_eq!(clock.spot_demand(3, Bytes::ZERO, Bytes::gb(20)), 2);
        assert_eq!(clock.spot_demand(3, Bytes::ZERO, Bytes::gb(60)), 6);
        assert_eq!(clock.spot_demand(3, Bytes::gb(20), Bytes::gb(40)), 0);
        assert_eq!(clock.spot_demand(2, Bytes::ZERO, Bytes::tb(1)), 0);
        // The range is half-open: a spot exactly at `hi` does not hit.
        assert_eq!(clock.spot_demand(3, Bytes::ZERO, Bytes::gb(10)), 0);
    }

    /// Each extent's demand is granted from what the job has left of its
    /// budget (3 here); a demand beyond it is fatal. The penalty is the
    /// backoff of every granted retry plus one reposition-and-reread of
    /// its extent per retry.
    #[test]
    fn resolve_enforces_the_budget() {
        let cfg = paper_table1();
        let drive = cfg.library.drive;
        let cap = cfg.library.tape.capacity;
        let spot = |gb: u64, severity: u32| BadSpot {
            offset: Bytes::gb(gb),
            severity,
        };
        let ext = |gb: u64, size_gb: u64| Extent {
            object: tapesim_model::ObjectId(0),
            offset: Bytes::gb(gb),
            size: Bytes::gb(size_gb),
        };
        let mut plan = FaultPlan::zero(&cfg); // max_retries = 3, backoff 1 s doubling
        plan.spots[3] = vec![spot(10, 3), spot(50, 4), spot(90, 2), spot(95, 2)];
        let clock = plan.clock();
        // One reposition back over a 4 GB extent plus its reread.
        let retry = drive.position_time(Bytes::gb(14), Bytes::gb(10), cap)
            + drive.transfer_time(Bytes::gb(4));
        let charge = |extents: &[Extent]| {
            let out = clock.charge(3, extents, &drive, cap);
            (out.retries, out.penalty_secs, out.fatal)
        };
        // Demand 0, 3 and 4 against the budget of 3.
        assert_eq!(charge(&[ext(20, 4)]), (0, 0.0, false));
        assert_eq!(charge(&[ext(10, 4)]), (3, 7.0 + 3.0 * retry, false));
        assert_eq!(charge(&[ext(50, 4)]).0, 3);
        assert!(charge(&[ext(50, 4)]).2);
        // Two extents demanding 2 each: the second is granted only the 1
        // retry left, so the read is fatal after 3.
        let (retries, penalty, fatal) = charge(&[ext(88, 4), ext(94, 2)]);
        assert_eq!((retries, fatal), (3, true));
        // 7 s of backoff + 2 × (0.98 + 50) s + 1 × (0.49 + 25) s.
        assert_eq!(penalty.to_bits(), 0x4060_ce66_6666_6666, "{penalty}");
        // Under a zero plan every read is free.
        let zero = FaultPlan::zero(&cfg);
        let out = zero.clock().charge(3, &[ext(10, 4)], &drive, cap);
        assert_eq!((out.retries, out.penalty_secs, out.fatal), (0, 0.0, false));
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let cfg = paper_table1();
        let plan = FaultPlan::generate(
            &FaultSpec {
                retry_base_secs: 2.0,
                retry_cap_secs: 5.0,
                ..spec()
            },
            &cfg,
        );
        let clock = plan.clock();
        assert_eq!(clock.backoff_secs(0), 0.0);
        assert_eq!(clock.backoff_secs(1), 2.0);
        assert_eq!(clock.backoff_secs(2), 6.0); // 2 + 4
        assert_eq!(clock.backoff_secs(3), 11.0); // 2 + 4 + min(8, 5)
        assert_eq!(clock.backoff_secs(4), 16.0); // + 5 again
    }

    #[test]
    fn degraded_tracks_failures_and_jams() {
        let cfg = paper_table1();
        let mut plan = FaultPlan::zero(&cfg);
        plan.drive_fail[2] = SimTime::from_secs(500.0);
        plan.jams[1] = vec![(SimTime::from_secs(100.0), SimTime::from_secs(150.0))];
        let clock = plan.clock();
        assert!(!clock.degraded_at(SimTime::from_secs(50.0)));
        assert!(clock.degraded_at(SimTime::from_secs(120.0))); // in jam
        assert!(!clock.degraded_at(SimTime::from_secs(200.0))); // repaired
        assert!(clock.degraded_at(SimTime::from_secs(600.0))); // drive dead
    }

    #[test]
    fn severity_spans_recoverable_and_fatal() {
        let cfg = paper_table1();
        let plan = FaultPlan::generate(
            &FaultSpec {
                bad_spots_per_tape: 5.0,
                ..spec()
            },
            &cfg,
        );
        let max = plan.spec().max_retries;
        let mut any_recoverable = false;
        let mut any_fatal = false;
        for spots in &plan.spots {
            for s in spots {
                assert!((1..=max + 1).contains(&s.severity));
                any_recoverable |= s.severity <= max;
                any_fatal |= s.severity > max;
            }
        }
        assert!(any_recoverable && any_fatal);
    }
}
