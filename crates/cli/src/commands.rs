//! The `tapesim` subcommands.
//!
//! Each command is a pure function from parsed [`Args`] to a printable
//! report (file I/O aside), so the test suite can drive them end-to-end
//! without spawning processes.

use crate::args::{ArgError, Args};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tapesim_faults::{ChaosPlan, ChaosSpec, FaultPlan, FaultSpec};
use tapesim_model::specs::{lto3_drive, lto3_tape, stk_l80_library};
use tapesim_model::{Bytes, SystemConfig};
use tapesim_placement::{Placement, PlacementError, Scheme, TapeRole};
use tapesim_sched::{run_scheduled, run_scheduled_faulty, PolicyKind, SchedConfig, SchedOutcome};
use tapesim_serve::{supervisor_run, HealthPolicy, ServeConfig, ServeReport, SuperviseConfig};
use tapesim_sim::{SeekPolicy, Simulator};
use tapesim_workload::{
    replicate_workload, ArrivalSpec, ObjectSizeSpec, ReplicationSpec, RequestSpec, Workload,
    WorkloadSpec,
};

/// A command failure with a user-facing message.
#[derive(Debug)]
pub struct CommandError(pub String);

impl std::fmt::Display for CommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CommandError {}

impl From<ArgError> for CommandError {
    fn from(e: ArgError) -> Self {
        CommandError(e.0)
    }
}

impl From<std::io::Error> for CommandError {
    fn from(e: std::io::Error) -> Self {
        CommandError(format!("i/o error: {e}"))
    }
}

impl From<serde_json::Error> for CommandError {
    fn from(e: serde_json::Error) -> Self {
        CommandError(format!("json error: {e}"))
    }
}

/// Parses the Poisson arrival stream from `--rate` (arrivals per hour,
/// default 12) and `--seed` (default 0xD15C). A rate that is not a finite
/// positive number is rejected here rather than left to panic the
/// arrival process.
/// A request-count flag, which must be at least 1: a run of no requests
/// has no latency percentiles or rates to report.
fn request_count(args: &Args, name: &str, default: usize) -> Result<usize, CommandError> {
    let n: usize = args.get_or(name, default)?;
    if n == 0 {
        return Err(CommandError(format!(
            "flag --{name}: expected at least 1 request, got 0"
        )));
    }
    Ok(n)
}

fn arrivals_from(args: &Args) -> Result<ArrivalSpec, CommandError> {
    let per_hour: f64 = args.get_or("rate", 12.0)?;
    if !(per_hour.is_finite() && per_hour > 0.0) {
        return Err(CommandError(format!(
            "flag --rate: expected a finite positive number of arrivals per hour, got '{per_hour}'"
        )));
    }
    let seed: u64 = args.get_or("seed", 0xD15Cu64)?;
    Ok(ArrivalSpec { per_hour, seed })
}

fn read_workload(path: &str) -> Result<Workload, CommandError> {
    let json = std::fs::read_to_string(Path::new(path))?;
    Ok(serde_json::from_str(&json)?)
}

/// Reads a workload for a command that draws requests from it: with no
/// requests there is nothing to draw, so it is rejected here rather than
/// left to panic the sampler.
fn read_sampled_workload(path: &str) -> Result<Workload, CommandError> {
    let workload = read_workload(path)?;
    if workload.requests().is_empty() {
        return Err(CommandError(String::from(
            "workload has no requests to sample",
        )));
    }
    Ok(workload)
}

fn read_placement(path: &str) -> Result<Placement, CommandError> {
    let json = std::fs::read_to_string(Path::new(path))?;
    Ok(serde_json::from_str(&json)?)
}

/// The simulator for a placement read from a file, under its natural
/// switch policy. A placement with pinned tapes runs the batch policy,
/// whose `--m` switch drives must satisfy `1 <= m <= d-1`; anything else
/// is rejected with the `PlacementError::SwitchDrives` text `place` uses.
fn natural_simulator(placement: Placement, args: &Args) -> Result<Simulator, CommandError> {
    let m: u8 = args.get_or("m", 4)?;
    let d = placement.config().library.drives;
    if !placement.pinned_tapes().is_empty() && !(1..d).contains(&m) {
        return Err(CommandError(
            PlacementError::SwitchDrives { m, d }.to_string(),
        ));
    }
    Ok(Simulator::with_natural_policy(placement, m))
}

fn system_from(args: &Args) -> Result<SystemConfig, CommandError> {
    let libraries: u16 = args.get_or("libraries", 3)?;
    let tapes: u16 = args.get_or("tapes", 80)?;
    let mut lib = stk_l80_library(lto3_drive(), lto3_tape());
    lib.tapes = tapes;
    SystemConfig::new(libraries, lib)
        .map_err(|e| CommandError(format!("invalid system configuration: {e}")))
}

/// `tapesim generate` — synthesise a workload and write it as JSON.
pub fn generate(args: &Args) -> Result<String, CommandError> {
    let spec = WorkloadSpec {
        objects: args.get_or("objects", 30_000u32)?,
        sizes: ObjectSizeSpec::default()
            .calibrated(Bytes::mb(args.get_or("avg-object-mb", 1_704u64)?)),
        requests: RequestSpec {
            count: args.get_or("requests", 300u32)?,
            min_objects: args.get_or("min-objects", 100u32)?,
            max_objects: args.get_or("max-objects", 150u32)?,
            count_shape: 1.0,
            alpha: args.get_or("alpha", 0.3f64)?,
        },
        seed: args.get_or("seed", 0x5EED_7A9Eu64)?,
    };
    let workload = spec.generate();
    let out = args.require("out")?;
    std::fs::write(out, serde_json::to_string(&workload)?)?;
    Ok(format!(
        "wrote {out}: {} objects ({:.1} TB), {} requests (avg {:.1} GB), alpha {}",
        workload.objects().len(),
        workload.total_bytes().as_gb() / 1000.0,
        workload.requests().len(),
        workload.avg_request_bytes().as_gb(),
        spec.requests.alpha,
    ))
}

/// `tapesim place` — compute a placement for a workload.
pub fn place(args: &Args) -> Result<String, CommandError> {
    let scheme = match args.get("scheme") {
        None => Scheme::ParallelBatch,
        Some(name) => parse_scheme(name, &[])?,
    };
    let workload = read_workload(args.require("workload")?)?;
    let system = system_from(args)?;
    let m: u8 = args.get_or("m", 4)?;
    let policy = scheme.policy(m);
    let placement = policy
        .place(&workload, &system)
        .map_err(|e| CommandError(format!("{} failed: {e}", policy.display_name())))?;
    let out = args.require("out")?;
    std::fs::write(out, serde_json::to_string(&placement)?)?;
    Ok(format!(
        "wrote {out}: {} on {} libraries — {} tapes in use ({} pinned, {} switch batches)",
        policy.display_name(),
        system.libraries,
        placement.n_used_tapes(),
        placement.pinned_tapes().len(),
        placement.max_switch_batch(),
    ))
}

/// `tapesim simulate` — serve a sampled request stream.
pub fn simulate(args: &Args) -> Result<String, CommandError> {
    let workload = read_sampled_workload(args.require("workload")?)?;
    let placement = read_placement(args.require("placement")?)?;
    placement
        .verify_against(&workload)
        .map_err(|e| CommandError(format!("placement does not match workload: {e}")))?;
    let samples = request_count(args, "samples", 200)?;
    let seed: u64 = args.get_or("seed", 0xD15Cu64)?;
    let mut sim = natural_simulator(placement, args)?.with_seek(seek_policy_from(args)?);
    let run = sim.run_sampled(&workload, samples, seed);
    if args.has("json") {
        return Ok(serde_json::to_string_pretty(&run)?);
    }
    Ok(format!(
        "{} requests served\n\
         effective bandwidth : {:>9.1} MB/s (σ {:.1})\n\
         avg response        : {:>9.1} s\n\
         avg switch          : {:>9.1} s\n\
         avg seek            : {:>9.1} s\n\
         avg transfer        : {:>9.1} s\n\
         avg tape exchanges  : {:>9.1}",
        run.count(),
        run.avg_bandwidth_mbs(),
        run.bandwidth_stddev(),
        run.avg_response(),
        run.avg_switch(),
        run.avg_seek(),
        run.avg_transfer(),
        run.avg_switches(),
    ))
}

/// `tapesim serve` — serve one specific pre-defined request, or, with
/// `--campaign`, run the long-running sharded service under a sustained
/// load campaign (see `campaign`).
pub fn serve(args: &Args) -> Result<String, CommandError> {
    if args.has("chaos") {
        return chaos_campaign(args);
    }
    if args.has("campaign") {
        return campaign(args);
    }
    let workload = read_workload(args.require("workload")?)?;
    let placement = read_placement(args.require("placement")?)?;
    placement
        .verify_against(&workload)
        .map_err(|e| CommandError(format!("placement does not match workload: {e}")))?;
    let rank: usize = args.get_or("request", 0)?;
    let request = workload
        .requests()
        .get(rank)
        .ok_or_else(|| CommandError(format!("no request with rank {rank}")))?;
    let mut sim = natural_simulator(placement, args)?.with_seek(seek_policy_from(args)?);
    let (metrics, tracer) = sim.serve_traced(&request.objects);
    let timeline = if args.has("trace") {
        format!("\ntimeline:\n{tracer}")
    } else {
        String::new()
    };
    Ok(format!(
        "request {rank}: {} objects, {:.1} GB across {} tapes\n\
         response {:.1} s = switch {:.1} + seek {:.1} + transfer {:.1} \
         ({} exchanges, {:.1} s robot queueing)\n\
         effective bandwidth {:.1} MB/s",
        request.objects.len(),
        metrics.bytes.as_gb(),
        metrics.n_tapes,
        metrics.response,
        metrics.switch,
        metrics.seek,
        metrics.transfer,
        metrics.n_switches,
        metrics.robot_wait,
        metrics.bandwidth_mbs(),
    ) + &timeline)
}

/// One cell of the `tapesim serve --campaign` sweep: one placement
/// scheme × scheduling policy under the sustained arrival stream.
/// Virtual-time figures (sojourns, mounts, events) are deterministic;
/// `wall_s` and `requests_per_sec` are wall-clock measurements of the
/// service runtime on this machine.
#[derive(Debug, Serialize, Deserialize)]
struct ServeCell {
    scheme: String,
    policy: String,
    requests: u64,
    served: u64,
    lost: u64,
    snapshots: usize,
    wall_s: f64,
    requests_per_sec: f64,
    avg_sojourn_s: f64,
    p50_sojourn_s: f64,
    p99_sojourn_s: f64,
    mounts: u64,
    events: u64,
}

impl ServeCell {
    fn new(scheme: Scheme, kind: PolicyKind, report: &ServeReport, wall_s: f64) -> ServeCell {
        ServeCell {
            scheme: scheme.name().to_string(),
            policy: kind.label().to_string(),
            requests: report.submitted,
            served: report.served,
            lost: report.lost,
            snapshots: report.snapshots.len(),
            wall_s,
            requests_per_sec: per_sec(report.served, wall_s),
            avg_sojourn_s: report.metrics.avg_sojourn(),
            p50_sojourn_s: report.metrics.sojourn_percentile(50.0),
            p99_sojourn_s: report.metrics.sojourn_percentile(99.0),
            mounts: report.metrics.mounts(),
            events: report.metrics.events(),
        }
    }
}

/// The `BENCH_serve.json` artifact: sustained-throughput and tail-
/// latency numbers for the sharded service, per scheme × policy.
#[derive(Debug, Serialize, Deserialize)]
struct ServeBench {
    bench: String,
    requests_per_cell: usize,
    total_requests: u64,
    rate_per_hour: f64,
    shards: usize,
    channel_bound: usize,
    snapshot_every: usize,
    cells: Vec<ServeCell>,
}

/// Served requests per wall-clock second (0 for an unmeasurably short
/// run).
fn per_sec(served: u64, wall_s: f64) -> f64 {
    if wall_s > 0.0 {
        served as f64 / wall_s
    } else {
        0.0
    }
}

/// The built-in demand catalog for `serve --campaign`: 80 request
/// templates of 20–30 objects over a working set (~33 TB at 8 GB
/// calibration) that overflows the initially mounted capacity, so a
/// sustained campaign performs real tape exchanges (~3 mounts per
/// request) rather than streaming from always-mounted tapes. The
/// catalog is a set of *templates*; the campaign re-samples it by
/// popularity for however many requests the run ingests. At the default
/// 12/h arrival rate the queue is stable: sojourn percentiles are flat
/// in campaign length.
fn campaign_workload() -> Workload {
    WorkloadSpec {
        objects: 4_000,
        sizes: ObjectSizeSpec::default().calibrated(Bytes::mb(8192)),
        requests: RequestSpec {
            count: 80,
            min_objects: 20,
            max_objects: 30,
            count_shape: 1.0,
            alpha: 0.3,
        },
        seed: 5,
    }
    .generate()
}

const SERVE_BENCH: &str = "BENCH_serve.json";
const CHAOS_BENCH: &str = "BENCH_serve_faults.json";

/// A committed artifact at the workspace root.
fn artifact_path(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file)
}

/// `--check`: fail if any cell's sustained requests/sec dropped more
/// than 30% below the committed `BENCH_serve.json` (same convention as
/// the perf bench gate).
fn serve_check(current: &ServeBench) -> Result<String, CommandError> {
    let path = artifact_path(SERVE_BENCH);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        CommandError(format!(
            "serve --check: cannot read committed BENCH_serve.json: {e}"
        ))
    })?;
    let committed: ServeBench = serde_json::from_str(&text).map_err(|e| {
        CommandError(format!(
            "serve --check: cannot parse committed BENCH_serve.json: {e}"
        ))
    })?;
    let mut failures = Vec::new();
    for old in &committed.cells {
        let Some(new) = current
            .cells
            .iter()
            .find(|c| c.scheme == old.scheme && c.policy == old.policy)
        else {
            failures.push(format!(
                "cell {}/{} missing from this run",
                old.scheme, old.policy
            ));
            continue;
        };
        let floor = old.requests_per_sec * 0.7;
        if new.requests_per_sec < floor {
            failures.push(format!(
                "{}/{}: {:.0} requests/s is more than 30% below the committed {:.0}",
                old.scheme, old.policy, new.requests_per_sec, old.requests_per_sec
            ));
        }
    }
    if failures.is_empty() {
        Ok("serve --check: no cell regressed >30% vs committed baseline".to_string())
    } else {
        Err(CommandError(format!(
            "serve --check FAILED:\n{}",
            failures.join("\n")
        )))
    }
}

/// One cell of the `tapesim serve --chaos` sweep: one scheme × policy
/// under a nonzero hardware fault plan *and* a seeded chaos plan (shard
/// kills + stalls), supervised. Virtual-time figures and the whole
/// shed/lost/restart ledger are deterministic; `wall_s` and
/// `requests_per_sec` are wall-clock.
#[derive(Debug, Serialize, Deserialize)]
struct ChaosCell {
    scheme: String,
    policy: String,
    requests: u64,
    served: u64,
    lost: u64,
    shed: u64,
    rejected: u64,
    restarts: u64,
    failures: usize,
    availability: f64,
    wall_s: f64,
    requests_per_sec: f64,
    avg_sojourn_s: f64,
    p99_sojourn_s: f64,
    snapshots: usize,
}

impl ChaosCell {
    fn new(scheme: Scheme, kind: PolicyKind, report: &ServeReport, wall_s: f64) -> ChaosCell {
        ChaosCell {
            scheme: scheme.name().to_string(),
            policy: kind.label().to_string(),
            requests: report.submitted,
            served: report.served,
            lost: report.lost,
            shed: report.shed,
            rejected: report.rejected,
            restarts: report.restarts,
            failures: report.failures.len(),
            availability: report.metrics.availability(),
            wall_s,
            requests_per_sec: per_sec(report.served, wall_s),
            avg_sojourn_s: report.metrics.avg_sojourn(),
            p99_sojourn_s: report.metrics.sojourn_percentile(99.0),
            snapshots: report.snapshots.len(),
        }
    }
}

/// The `BENCH_serve_faults.json` artifact: availability and tail
/// latency of the supervised service under sustained load with both
/// hardware faults and process chaos injected.
#[derive(Debug, Serialize, Deserialize)]
struct ChaosBench {
    bench: String,
    requests_per_cell: usize,
    total_requests: u64,
    rate_per_hour: f64,
    shards: usize,
    channel_bound: usize,
    snapshot_every: usize,
    fault_seed: u64,
    intensity: f64,
    chaos_seed: u64,
    kills_planned: usize,
    stalls_planned: usize,
    cells: Vec<ChaosCell>,
}

/// `--check`: the availability-regression gate. Fails if any cell's
/// availability dropped more than 0.05 (absolute) below the committed
/// `BENCH_serve_faults.json`, or its sustained requests/sec fell more
/// than 30% — the same convention as the throughput gate.
fn chaos_check(current: &ChaosBench) -> Result<String, CommandError> {
    let path = artifact_path(CHAOS_BENCH);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        CommandError(format!(
            "serve --chaos --check: cannot read committed BENCH_serve_faults.json: {e}"
        ))
    })?;
    let committed: ChaosBench = serde_json::from_str(&text).map_err(|e| {
        CommandError(format!(
            "serve --chaos --check: cannot parse committed BENCH_serve_faults.json: {e}"
        ))
    })?;
    let mut failures = Vec::new();
    for old in &committed.cells {
        let Some(new) = current
            .cells
            .iter()
            .find(|c| c.scheme == old.scheme && c.policy == old.policy)
        else {
            failures.push(format!(
                "cell {}/{} missing from this run",
                old.scheme, old.policy
            ));
            continue;
        };
        if new.availability < old.availability - 0.05 {
            failures.push(format!(
                "{}/{}: availability {:.3} is more than 0.05 below the committed {:.3}",
                old.scheme, old.policy, new.availability, old.availability
            ));
        }
        let floor = old.requests_per_sec * 0.7;
        if new.requests_per_sec < floor {
            failures.push(format!(
                "{}/{}: {:.0} requests/s is more than 30% below the committed {:.0}",
                old.scheme, old.policy, new.requests_per_sec, old.requests_per_sec
            ));
        }
    }
    if failures.is_empty() {
        Ok(
            "serve --chaos --check: no cell regressed (availability −0.05 / throughput −30%)"
                .to_string(),
        )
    } else {
        Err(CommandError(format!(
            "serve --chaos --check FAILED:\n{}",
            failures.join("\n")
        )))
    }
}

/// Everything wrong with one serve cell: a dirty audit or a conservation
/// breach (`submitted = served + lost + shed + rejected` must close).
/// In a `calm` run — no faults, no chaos and no admission control, so
/// the supervisor has no cause for any of them — a shed request,
/// rejected submission, restart or shard failure is wrong too.
fn serve_ledger(report: &ServeReport, calm: bool) -> Vec<String> {
    let mut dirty: Vec<String> = report
        .reports
        .iter()
        .filter(|r| !r.is_clean())
        .map(ToString::to_string)
        .collect();
    let stray = calm && (report.shed != 0 || report.rejected != 0 || report.restarts != 0);
    if !report.is_clean() || stray {
        dirty.push(format!(
            "request ledger not clean ({} submitted, {} served, {} lost, \
             {} shed, {} rejected, {} restarts)",
            report.submitted,
            report.served,
            report.lost,
            report.shed,
            report.rejected,
            report.restarts
        ));
    }
    if calm {
        for f in &report.failures {
            dirty.push(format!(
                "shard {} generation {} failed ({:?}) at draw {}",
                f.shard, f.generation, f.reason, f.at_draw
            ));
        }
    }
    dirty
}

/// One serve campaign: the sweep's workload and system, the service
/// configuration, and what the supervisor injects into every cell —
/// nothing, unless `serve --chaos` sets a fault plan, a chaos plan and
/// admission control.
struct Campaign {
    workload: Workload,
    system: SystemConfig,
    cfg: ServeConfig,
    plan: FaultPlan,
    chaos: ChaosPlan,
    sup: SuperviseConfig,
}

impl Campaign {
    /// Parses the flags both campaigns share; `requests` is the
    /// `--requests` default. The service runs `--shards` shard threads,
    /// one per library by default.
    fn from_args(args: &Args, requests: usize) -> Result<Campaign, CommandError> {
        let spec = arrivals_from(args)?;
        let workload = match args.get("workload") {
            Some(path) => read_sampled_workload(path)?,
            None => campaign_workload(),
        };
        let system = system_from(args)?;
        let requests = request_count(args, "requests", requests)?;
        let cfg = ServeConfig::new(spec, requests)
            .with_shards(args.get_or("shards", system.libraries as usize)?)
            .with_max_batch(args.get_or("max-batch", 0)?)
            .with_audit(true)
            .with_seek(seek_policy_from(args)?)
            .with_channel_bound(args.get_or("channel-bound", 256)?)
            .with_snapshot_every(args.get_or("snapshot-every", (requests / 8).max(1))?);
        Ok(Campaign {
            plan: FaultPlan::zero(&system),
            chaos: ChaosPlan::zero(cfg.shards.max(1)),
            sup: SuperviseConfig::default(),
            workload,
            system,
            cfg,
        })
    }

    /// Runs the scheme × policy sweep on the supervised service
    /// ([`tapesim_serve::supervisor_run`]; with nothing injected that is
    /// exactly [`tapesim_serve::serve_run`]). `row` turns each cell's
    /// report into an artifact row; also returns the shard count the
    /// service ran.
    fn run<C>(
        &self,
        args: &Args,
        what: &str,
        row: fn(Scheme, PolicyKind, &ServeReport, f64) -> C,
    ) -> Result<(Vec<C>, usize), CommandError> {
        let calm = self.plan.is_zero() && self.chaos.is_zero() && self.sup.health.is_none();
        let no_alternates = BTreeMap::new();
        let mut shards = self.cfg.shards.max(1);
        // Fcfs melts down at campaign rates, which is a finding, not a
        // throughput baseline: the campaigns default to the two policies
        // that keep a sustained queue stable.
        let policies = [PolicyKind::BatchByTape, PolicyKind::SltfTape];
        let rows = sweep(
            args,
            &self.workload,
            &self.system,
            &policies,
            what,
            |scheme, kind, sim| {
                let t = Instant::now();
                let report = supervisor_run(
                    &sim,
                    &self.workload,
                    kind,
                    &self.cfg,
                    &self.plan,
                    &no_alternates,
                    &self.chaos,
                    &self.sup,
                );
                let cell = row(scheme, kind, &report, t.elapsed().as_secs_f64());
                shards = report.shards;
                Ok((cell, serve_ledger(&report, calm)))
            },
        )?;
        Ok((rows, shards))
    }
}

/// The artifact step of both serve campaigns: `--check` gates `bench`
/// against the committed `file`; `--smoke` leaves that file untouched,
/// and a full run rewrites it. Returns the notes to print.
fn publish<B: Serialize>(
    args: &Args,
    bench: &B,
    file: &str,
    check: fn(&B) -> Result<String, CommandError>,
) -> Result<Vec<String>, CommandError> {
    let mut notes = Vec::new();
    if args.has("check") {
        notes.push(check(bench)?);
    }
    if args.has("smoke") {
        notes.push(format!("smoke mode: {file} left untouched"));
    } else {
        let path = artifact_path(file);
        std::fs::write(&path, serde_json::to_string_pretty(bench)? + "\n")?;
        notes.push(format!("wrote {}", path.display()));
    }
    Ok(notes)
}

/// `tapesim serve --campaign` — the closed-loop load harness over the
/// sharded service: ingest a sustained Poisson request stream, fan it
/// out to per-library scheduler shards, and report sustained wall-clock
/// throughput and virtual-time tail latency per placement scheme ×
/// policy. Nothing is injected: no faults, no chaos, no admission
/// control.
///
/// The full campaign (no `--smoke`) ingests 175 000 requests per cell —
/// 3 schemes × 2 policies = 1.05 million audited requests — and rewrites
/// `BENCH_serve.json` at the workspace root. `--smoke` runs a reduced
/// but still multi-shard, still audited campaign and leaves the artifact
/// untouched; `--check` gates against the committed artifact. Any audit
/// violation, conservation breach, rejected submission, shed request,
/// restart or shard failure is a non-zero exit.
fn campaign(args: &Args) -> Result<String, CommandError> {
    let campaign = Campaign::from_args(args, if args.has("smoke") { 10_000 } else { 175_000 })?;
    let cfg = campaign.cfg;
    let (cells, shards) = campaign.run(args, "serve campaign", ServeCell::new)?;
    let bench = ServeBench {
        bench: "serve".to_string(),
        requests_per_cell: cfg.samples,
        total_requests: cells.iter().map(|c| c.requests).sum(),
        rate_per_hour: cfg.arrivals.per_hour,
        shards,
        channel_bound: cfg.channel_bound,
        snapshot_every: cfg.snapshot_every,
        cells,
    };
    let notes = publish(args, &bench, SERVE_BENCH, serve_check)?;

    if args.has("json") {
        return Ok(serde_json::to_string_pretty(&bench)?);
    }
    let mut out = format!(
        "serve campaign: {} requests/cell at {}/h across {} shards \
         (seed {}, channel bound {}, snapshot every {}) — {} total, audited\n\
         {:<15} {:<6} {:>8} {:>6} {:>5} {:>10} {:>12} {:>12} {:>12} {:>7}\n",
        bench.requests_per_cell,
        bench.rate_per_hour,
        bench.shards,
        cfg.arrivals.seed,
        bench.channel_bound,
        bench.snapshot_every,
        bench.total_requests,
        "scheme",
        "policy",
        "requests",
        "served",
        "lost",
        "req/s wall",
        "avg sojourn",
        "p50 sojourn",
        "p99 sojourn",
        "mounts",
    );
    for c in &bench.cells {
        out.push_str(&format!(
            "{:<15} {:<6} {:>8} {:>6} {:>5} {:>10.0} {:>11.1}s {:>11.1}s {:>11.1}s {:>7}\n",
            c.scheme,
            c.policy,
            c.requests,
            c.served,
            c.lost,
            c.requests_per_sec,
            c.avg_sojourn_s,
            c.p50_sojourn_s,
            c.p99_sojourn_s,
            c.mounts,
        ));
    }
    for note in &notes {
        out.push_str(&format!("{note}\n"));
    }
    Ok(out)
}

/// `tapesim serve --chaos` — the degraded-mode load harness: the same
/// sustained campaign as `serve --campaign`, run under a **nonzero**
/// hardware fault plan (drive failures, robot jams, media bad spots,
/// scaled by `--intensity`) and a seeded [`ChaosPlan`] of shard kills
/// and stalls. Dead shards restart from their submission logs; a
/// default [`HealthPolicy`] sheds at admission if the cell goes
/// queue-unstable. Every cell must close its conservation ledger
/// (`submitted = served + lost + shed + rejected`) and audit clean, or
/// the exit is non-zero.
///
/// Writes `BENCH_serve_faults.json` unless `--smoke`; `--check` gates
/// availability (−0.05 absolute) and throughput (−30%) against the
/// committed artifact.
fn chaos_campaign(args: &Args) -> Result<String, CommandError> {
    let mut campaign = Campaign::from_args(args, if args.has("smoke") { 6_000 } else { 40_000 })?;
    let cfg = campaign.cfg;
    let (rate, seed) = (cfg.arrivals.per_hour, cfg.arrivals.seed);
    let fault_seed: u64 = args.get_or("fault-seed", 23u64)?;
    let intensity: f64 = args.get_or("intensity", 1.0)?;
    let chaos_seed: u64 = args.get_or("chaos-seed", seed)?;
    // The fault horizon covers the whole campaign span, and the rates
    // are span-relative (so the *count* of faults per run is stable
    // whatever `--requests` is): at intensity 1 expect ~4 failures per
    // drive and ~8 robot jams over the whole campaign.
    let span_hours = cfg.samples as f64 / rate.max(f64::EPSILON);
    let fault_spec = FaultSpec {
        horizon_hours: span_hours,
        drive_mtbf_hours: span_hours / 4.0,
        jams_per_hour: 8.0 / span_hours.max(f64::EPSILON),
        ..FaultSpec::moderate(fault_seed)
    }
    .scaled(intensity);
    // Chaos events land inside each shard's actual traffic (~1/shards
    // of the stream): a couple of kills and one stall expected per
    // shard, capped-exponential restart backoff.
    let shards = cfg.shards.max(1);
    let horizon = (cfg.samples / shards).max(1) as u64;
    campaign.plan = FaultPlan::generate(&fault_spec, &campaign.system);
    campaign.chaos = ChaosPlan::generate(&ChaosSpec::moderate(chaos_seed, horizon), shards);
    campaign.sup = SuperviseConfig::new()
        .with_watchdog_ms(2_000)
        .with_health(HealthPolicy::default());
    let (cells, shards) = campaign.run(args, "serve --chaos campaign", ChaosCell::new)?;
    let bench = ChaosBench {
        bench: "serve-faults".to_string(),
        requests_per_cell: cfg.samples,
        total_requests: cells.iter().map(|c| c.requests).sum(),
        rate_per_hour: rate,
        shards,
        channel_bound: cfg.channel_bound,
        snapshot_every: cfg.snapshot_every,
        fault_seed,
        intensity,
        chaos_seed,
        kills_planned: campaign.chaos.n_kills(),
        stalls_planned: campaign.chaos.n_stalls(),
        cells,
    };
    let notes = publish(args, &bench, CHAOS_BENCH, chaos_check)?;

    if args.has("json") {
        return Ok(serde_json::to_string_pretty(&bench)?);
    }
    let mut out = format!(
        "serve chaos campaign: {} requests/cell at {rate}/h across {} shards \
         (seed {seed}, fault seed {fault_seed} ×{intensity}, chaos seed {chaos_seed}: \
         {} kills + {} stalls planned) — {} total, supervised, audited\n\
         {:<15} {:<6} {:>8} {:>8} {:>5} {:>5} {:>6} {:>6} {:>11} {:>12}\n",
        bench.requests_per_cell,
        bench.shards,
        bench.kills_planned,
        bench.stalls_planned,
        bench.total_requests,
        "scheme",
        "policy",
        "served",
        "lost",
        "shed",
        "rest.",
        "avail",
        "req/s",
        "avg sojourn",
        "p99 sojourn",
    );
    for c in &bench.cells {
        out.push_str(&format!(
            "{:<15} {:<6} {:>8} {:>8} {:>5} {:>5} {:>6.3} {:>6.0} {:>10.1}s {:>11.1}s\n",
            c.scheme,
            c.policy,
            c.served,
            c.lost,
            c.shed,
            c.restarts,
            c.availability,
            c.requests_per_sec,
            c.avg_sojourn_s,
            c.p99_sojourn_s,
        ));
    }
    for note in &notes {
        out.push_str(&format!("{note}\n"));
    }
    Ok(out)
}

/// `tapesim audit` — serve a sampled request stream with tracing on and
/// run the DES invariant auditor over every per-request transcript.
///
/// The audited invariants (drive exclusivity, robot-arm exclusivity,
/// load/unload pairing, mount-before-read, exactly-once service, monotone
/// event times) are checked from the trace alone, independently of the
/// scheduler's own bookkeeping. Fails (non-zero exit) if any request's
/// transcript breaches an invariant.
pub fn audit(args: &Args) -> Result<String, CommandError> {
    let workload = read_sampled_workload(args.require("workload")?)?;
    let placement = read_placement(args.require("placement")?)?;
    placement
        .verify_against(&workload)
        .map_err(|e| CommandError(format!("placement does not match workload: {e}")))?;
    let samples = request_count(args, "samples", 200)?;
    let seed: u64 = args.get_or("seed", 0xD15Cu64)?;
    let mut sim = natural_simulator(placement, args)?;
    let (run, reports) = sim.run_sampled_audited(&workload, samples, seed);

    let entries: usize = reports.iter().map(|r| r.entries).sum();
    let transfers: usize = reports.iter().map(|r| r.transfers).sum();
    let exchanges: usize = reports.iter().map(|r| r.exchanges).sum();
    let dirty: Vec<_> = reports
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.is_clean())
        .collect();

    if !dirty.is_empty() {
        let mut msg = format!(
            "audit FAILED: {} of {} requests breached invariants\n",
            dirty.len(),
            reports.len()
        );
        for (i, report) in dirty {
            msg.push_str(&format!("request {i}: {report}"));
        }
        return Err(CommandError(msg));
    }
    Ok(format!(
        "audit clean: {} requests, {entries} trace entries \
         ({transfers} transfers, {exchanges} exchanges) — all invariants hold\n\
         effective bandwidth {:.1} MB/s, avg response {:.1} s",
        run.count(),
        run.avg_bandwidth_mbs(),
        run.avg_response(),
    ))
}

/// One row of `tapesim sched` output.
#[derive(Debug, Serialize)]
struct SchedRow {
    scheme: &'static str,
    policy: &'static str,
    served: u64,
    avg_wait_s: f64,
    avg_sojourn_s: f64,
    p50_sojourn_s: f64,
    p99_sojourn_s: f64,
    mounts: u64,
    utilisation: f64,
}

/// The deterministic built-in workload used by `tapesim sched --smoke`.
/// Sized so the requested working set overflows the initially mounted
/// capacity: the smoke run must exercise tape exchanges (and audit them),
/// not just stream from always-mounted tapes.
fn smoke_workload() -> Workload {
    WorkloadSpec {
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
    .generate()
}

/// The scheme a `--scheme` value names (a name or a short tag); an
/// unknown value is an error listing `extra` and the scheme names.
fn parse_scheme(text: &str, extra: &[&str]) -> Result<Scheme, CommandError> {
    Scheme::parse(text).ok_or_else(|| {
        let names = extra.iter().copied().chain(Scheme::ALL.map(Scheme::name));
        CommandError(format!(
            "unknown scheme '{text}' ({})",
            names.collect::<Vec<_>>().join(" | ")
        ))
    })
}

/// The scheme × policy sweep behind `sched`, `faults`, `report` and the
/// serve campaigns. `--scheme` and `--policy` pick the cells
/// (`default_policies` without `--policy`); each scheme is placed once,
/// and each cell runs `cell` on a fresh [`Simulator`] under the
/// scheme's natural switch policy with `--m` switch drives. `cell`
/// returns the cell's row and what was wrong with it; everything wrong
/// across the sweep comes back as one `{what} FAILED` error.
fn sweep<R>(
    args: &Args,
    workload: &Workload,
    system: &SystemConfig,
    default_policies: &[PolicyKind],
    what: &str,
    mut cell: impl FnMut(Scheme, PolicyKind, Simulator) -> Result<(R, Vec<String>), CommandError>,
) -> Result<Vec<R>, CommandError> {
    let m: u8 = args.get_or("m", 4)?;
    let schemes = match args.get("scheme") {
        None | Some("all") => Scheme::ALL.to_vec(),
        Some(name) => vec![parse_scheme(name, &["all"])?],
    };
    let policies = match args.get("policy") {
        None => default_policies.to_vec(),
        Some("all") => PolicyKind::ALL.to_vec(),
        Some(other) => vec![PolicyKind::parse(other).ok_or_else(|| {
            CommandError(format!(
                "unknown policy '{other}' (all | fcfs | batch | sltf)"
            ))
        })?],
    };
    let mut rows = Vec::new();
    let mut dirty = Vec::new();
    for scheme in schemes {
        let policy = scheme.policy(m);
        let placement = policy
            .place(workload, system)
            .map_err(|e| CommandError(format!("{} failed: {e}", policy.display_name())))?;
        for &kind in &policies {
            let sim = Simulator::with_natural_policy(placement.clone(), m);
            let (row, wrong) = cell(scheme, kind, sim)?;
            dirty.extend(
                wrong
                    .into_iter()
                    .map(|w| format!("{}/{}: {w}", scheme.name(), kind.label())),
            );
            rows.push(row);
        }
    }
    if dirty.is_empty() {
        Ok(rows)
    } else {
        Err(CommandError(format!(
            "{what} FAILED:\n{}",
            dirty.join("\n")
        )))
    }
}

/// Resolves the `--seek-policy greedy|exact|approx` flag shared by
/// `simulate`, `serve`, `sched` and `faults`. Without the flag the
/// policy is the greedy sweep, bit-identical to runs recorded before
/// seek policies existed; a misspelt value is an error, never a silent
/// fallback.
fn seek_policy_from(args: &Args) -> Result<SeekPolicy, CommandError> {
    match args.get("seek-policy") {
        None => Ok(SeekPolicy::Greedy),
        Some(text) => SeekPolicy::parse(text).ok_or_else(|| {
            CommandError(format!(
                "flag --seek-policy: expected greedy|exact|approx, got '{text}'"
            ))
        }),
    }
}

/// One line per audit report of `out` that found a violation.
fn unclean(out: &SchedOutcome) -> Vec<String> {
    out.reports
        .iter()
        .filter(|r| !r.is_clean())
        .map(ToString::to_string)
        .collect()
}

/// `tapesim sched` — run the concurrent scheduler over an arrival stream,
/// sweeping placement schemes × scheduling policies, with trace auditing
/// on by default (non-zero exit on any invariant breach).
pub fn sched(args: &Args) -> Result<String, CommandError> {
    let smoke = args.has("smoke");
    let spec = arrivals_from(args)?;
    let (rate, seed) = (spec.per_hour, spec.seed);
    let workload = if smoke {
        smoke_workload()
    } else {
        read_sampled_workload(args.require("workload")?)?
    };
    let system = system_from(args)?;
    let samples = request_count(args, "samples", if smoke { 30 } else { 100 })?;
    let audit = !args.has("no-audit");
    let cfg = SchedConfig::new(spec, samples)
        .with_max_batch(args.get_or("max-batch", 0)?)
        .with_audit(audit)
        .with_seek(seek_policy_from(args)?);

    let rows = sweep(
        args,
        &workload,
        &system,
        &PolicyKind::ALL,
        "sched audit",
        |scheme, kind, mut sim| {
            let out = run_scheduled(&mut sim, &workload, kind.build().as_ref(), &cfg);
            let row = SchedRow {
                scheme: scheme.name(),
                policy: kind.label(),
                served: out.metrics.served(),
                avg_wait_s: out.metrics.avg_wait(),
                avg_sojourn_s: out.metrics.avg_sojourn(),
                p50_sojourn_s: out.metrics.sojourn_percentile(50.0),
                p99_sojourn_s: out.metrics.sojourn_percentile(99.0),
                mounts: out.metrics.mounts(),
                utilisation: out.metrics.utilisation(),
            };
            Ok((row, unclean(&out)))
        },
    )?;
    if args.has("json") {
        return Ok(serde_json::to_string_pretty(&rows)?);
    }
    let mut out = format!(
        "scheduled run: {samples} requests at {rate}/h (seed {seed}), audit {}\n\
         {:<15} {:<6} {:>6} {:>10} {:>12} {:>12} {:>12} {:>7} {:>6}\n",
        if audit { "on" } else { "off" },
        "scheme",
        "policy",
        "served",
        "avg wait",
        "avg sojourn",
        "p50 sojourn",
        "p99 sojourn",
        "mounts",
        "util"
    );
    for r in &rows {
        out.push_str(&format!(
            "{:<15} {:<6} {:>6} {:>9.1}s {:>11.1}s {:>11.1}s {:>11.1}s {:>7} {:>6.2}\n",
            r.scheme,
            r.policy,
            r.served,
            r.avg_wait_s,
            r.avg_sojourn_s,
            r.p50_sojourn_s,
            r.p99_sojourn_s,
            r.mounts,
            r.utilisation,
        ));
    }
    Ok(out)
}

/// One entry of `tapesim report --json` output.
#[derive(Debug, Serialize)]
struct ReportEntry {
    scheme: &'static str,
    policy: &'static str,
    manifest: tapesim_obs::RunManifest,
    budget: tapesim_obs::TimeBudget,
}

/// `tapesim report` — explain a run at resource granularity: re-run the
/// scheduler sweep with span time accounting on and print, per scheme ×
/// policy, the signed run manifest and the per-drive/per-arm time budget
/// (seek/rewind/transfer/load/unload/exchange/idle/failed columns that
/// sum to the makespan on every row), plus job-phase means and the
/// robot-exchange overlap ratio. A merged metrics registry across the
/// whole sweep closes the report.
pub fn report(args: &Args) -> Result<String, CommandError> {
    use tapesim_obs::{MetricsRegistry, RunManifest};

    let smoke = args.has("smoke");
    let spec = arrivals_from(args)?;
    let (rate, seed) = (spec.per_hour, spec.seed);
    let workload = if smoke {
        smoke_workload()
    } else {
        read_sampled_workload(args.require("workload")?)?
    };
    let system = system_from(args)?;
    let m: u8 = args.get_or("m", 4)?;
    let samples = request_count(args, "samples", if smoke { 30 } else { 100 })?;
    let cfg = SchedConfig::new(spec, samples)
        .with_max_batch(args.get_or("max-batch", 0)?)
        .with_obs(true);

    let mut totals = MetricsRegistry::default();
    let entries = sweep(
        args,
        &workload,
        &system,
        &PolicyKind::ALL,
        "report",
        |scheme, kind, mut sim| {
            let out = run_scheduled(&mut sim, &workload, kind.build().as_ref(), &cfg);
            let budget = out.budget.ok_or_else(|| {
                CommandError(format!(
                    "{}/{}: the run carried no time budget although span accounting was on",
                    scheme.name(),
                    kind.label()
                ))
            })?;
            let mut wrong = Vec::new();
            if budget.sum_error() > 1e-6 {
                wrong.push(format!(
                    "budget does not close (error {:.3e} s)",
                    budget.sum_error()
                ));
            }

            // Per-run registry, merged into the sweep totals: the same
            // mechanism aggregates metrics across repeated runs.
            let mut reg = MetricsRegistry::default();
            let served = reg.counter("requests_served");
            let mounts = reg.counter("tape_mounts");
            let makespan = reg.gauge("makespan_s_max");
            let sojourn = reg.histogram(
                "sojourn_s",
                &[60.0, 300.0, 900.0, 1800.0, 3600.0, 7200.0, 14400.0],
            );
            reg.add(served, out.metrics.served());
            reg.add(mounts, out.metrics.mounts());
            reg.set(makespan, budget.makespan_s);
            for &s in out.metrics.sojourn_seconds() {
                reg.observe(sojourn, s);
            }
            totals.merge(&reg);

            let manifest = RunManifest {
                engine: "sched".into(),
                scheme: scheme.tag().into(),
                policy: kind.label().into(),
                workload_seed: tapesim_obs::digest(&workload),
                arrival_seed: seed,
                rate_per_hour: rate,
                samples: samples as u64,
                fault_spec_hash: 0,
                crates: RunManifest::workspace_crates(),
                signature: 0,
            }
            .signed();
            let entry = ReportEntry {
                scheme: scheme.name(),
                policy: kind.label(),
                manifest,
                budget,
            };
            Ok((entry, wrong))
        },
    )?;

    if args.has("json") {
        return Ok(serde_json::to_string_pretty(&entries)?);
    }
    let mut out =
        format!("resource report: {samples} requests at {rate}/h (seed {seed}), m = {m}\n");
    for e in &entries {
        out.push_str(&format!(
            "\n== {} / {} (manifest {:016x}, verified: {}) ==\n",
            e.scheme,
            e.policy,
            e.manifest.signature,
            e.manifest.verify(),
        ));
        out.push_str(&tapesim_obs::render_budget(&e.budget));
    }
    out.push_str("\nsweep totals (merged registry):\n");
    for (name, value) in totals.canonical().counters() {
        out.push_str(&format!("  {name} = {value}\n"));
    }
    for (name, value) in totals.canonical().gauges() {
        out.push_str(&format!("  {name} = {value:.2}\n"));
    }
    if let Some(h) = totals.histogram_by_name("sojourn_s") {
        out.push_str(&format!(
            "  sojourn_s: n = {}, mean = {:.1}, p50 ~ {:.0}, p99 ~ {:.0}\n",
            h.count(),
            h.mean(),
            h.percentile(50.0),
            h.percentile(99.0),
        ));
    }
    Ok(out)
}

/// One row of `tapesim faults` output.
#[derive(Debug, Serialize)]
struct FaultRow {
    scheme: &'static str,
    policy: &'static str,
    served: u64,
    lost: u64,
    retries: u64,
    failovers: u64,
    availability: f64,
    avg_sojourn_s: f64,
    p99_sojourn_s: f64,
    degraded_served: u64,
    mounts: u64,
}

/// `tapesim faults` — rerun the scheduler sweep under a seeded fault plan
/// (permanent drive failures, robot-arm jams, media bad spots) and report
/// degraded-mode metrics: retry and failover counts, losses, and drive
/// availability.
///
/// Auditing is always on — the fault machinery is exactly the code most
/// likely to violate the DES invariants, so any breach is a non-zero
/// exit. With a replication budget (`--replicate-gb`, on by default for
/// `--smoke`), reads that exhaust their retry budget fail over to a
/// replica copy on another tape; without one they are counted as losses,
/// never served twice and never dropped silently.
pub fn faults(args: &Args) -> Result<String, CommandError> {
    let smoke = args.has("smoke");
    let spec = arrivals_from(args)?;
    let rate = spec.per_hour;
    let base = if smoke {
        smoke_workload()
    } else {
        read_sampled_workload(args.require("workload")?)?
    };
    let system = system_from(args)?;
    let samples = request_count(args, "samples", if smoke { 25 } else { 100 })?;
    let cfg = SchedConfig::new(spec, samples)
        .with_max_batch(args.get_or("max-batch", 0)?)
        .with_audit(true)
        .with_seek(seek_policy_from(args)?);
    let fault_seed: u64 = args.get_or("fault-seed", 41u64)?;
    let intensity: f64 = args.get_or("intensity", 1.0)?;
    let replicate_gb: u64 = args.get_or("replicate-gb", if smoke { 4096 } else { 0 })?;

    // Start from the calibrated moderate profile, scale it, then let
    // individual rates be pinned explicitly.
    let mut fspec = FaultSpec::moderate(fault_seed).scaled(intensity);
    fspec.drive_mtbf_hours = args.get_or("mtbf-hours", fspec.drive_mtbf_hours)?;
    fspec.jams_per_hour = args.get_or("jams-per-hour", fspec.jams_per_hour)?;
    fspec.bad_spots_per_tape = args.get_or("spots-per-tape", fspec.bad_spots_per_tape)?;

    let (workload, alternates, n_copies) = if replicate_gb > 0 {
        let (w, map) = replicate_workload(
            &base,
            ReplicationSpec {
                budget: Bytes::gb(replicate_gb),
            },
        );
        let n = map.n_copies();
        (w, map.alternates(), n)
    } else {
        (base, BTreeMap::new(), 0)
    };
    let plan = FaultPlan::generate(&fspec, &system);

    let rows = sweep(
        args,
        &workload,
        &system,
        &PolicyKind::ALL,
        "faults audit",
        |scheme, kind, mut sim| {
            let policy = kind.build();
            let out = run_scheduled_faulty(
                &mut sim,
                &workload,
                policy.as_ref(),
                &cfg,
                &plan,
                &alternates,
            );
            let row = FaultRow {
                scheme: scheme.name(),
                policy: kind.label(),
                served: out.metrics.served(),
                lost: out.metrics.lost(),
                retries: out.metrics.retries(),
                failovers: out.metrics.failovers(),
                availability: out.metrics.availability(),
                avg_sojourn_s: out.metrics.avg_sojourn(),
                p99_sojourn_s: out.metrics.sojourn_percentile(99.0),
                degraded_served: out.metrics.degraded_served(),
                mounts: out.metrics.mounts(),
            };
            Ok((row, unclean(&out)))
        },
    )?;
    if args.has("json") {
        return Ok(serde_json::to_string_pretty(&rows)?);
    }
    let mut out = format!(
        "faulty run: {samples} requests at {rate}/h, intensity {intensity} \
         (fault seed {fault_seed}, {} drive failures, {} jams, {} bad spots, \
         {n_copies} replica copies)\n\
         {:<15} {:<6} {:>6} {:>4} {:>7} {:>9} {:>6} {:>11} {:>12} {:>8} {:>6}\n",
        plan.n_drive_failures(),
        plan.n_jams(),
        plan.n_spots(),
        "scheme",
        "policy",
        "served",
        "lost",
        "retries",
        "failovers",
        "avail",
        "avg sojourn",
        "p99 sojourn",
        "degraded",
        "mounts"
    );
    for r in &rows {
        out.push_str(&format!(
            "{:<15} {:<6} {:>6} {:>4} {:>7} {:>9} {:>6.3} {:>10.1}s {:>11.1}s {:>8} {:>6}\n",
            r.scheme,
            r.policy,
            r.served,
            r.lost,
            r.retries,
            r.failovers,
            r.availability,
            r.avg_sojourn_s,
            r.p99_sojourn_s,
            r.degraded_served,
            r.mounts,
        ));
    }
    Ok(out)
}

/// `tapesim inspect` — summarise a placement's physical layout.
pub fn inspect(args: &Args) -> Result<String, CommandError> {
    let placement = read_placement(args.require("placement")?)?;
    let config = *placement.config();
    let capacity = config.library.tape.capacity;
    let mut out = String::new();
    out.push_str(&format!(
        "system: {} libraries × {} drives × {} cells; {} cartridges in use\n",
        config.libraries,
        config.library.drives,
        config.library.tapes,
        placement.n_used_tapes(),
    ));
    // Batch summary.
    let pinned = placement.pinned_tapes();
    if !pinned.is_empty() {
        let p: f64 = pinned.iter().map(|&t| placement.tape_probability(t)).sum();
        out.push_str(&format!(
            "pinned batch   : {:>3} tapes, probability {:.3}\n",
            pinned.len(),
            p
        ));
    }
    for b in 1..=placement.max_switch_batch() {
        let tapes = placement.switch_batch(b);
        let p: f64 = tapes.iter().map(|&t| placement.tape_probability(t)).sum();
        out.push_str(&format!(
            "switch batch {b:>2}: {:>3} tapes, probability {:.3}\n",
            tapes.len(),
            p
        ));
    }
    // Fill map, library-major.
    out.push_str("\nfill map (one row per used tape; # ≈ 10% of capacity):\n");
    for tape in placement.used_tapes() {
        let layout = placement.tape_layout(tape);
        let frac = layout.used().get() as f64 / capacity.get() as f64;
        let bars = (frac * 10.0).round() as usize;
        let role = match placement.role(tape) {
            TapeRole::Pinned => "pin".to_string(),
            TapeRole::SwitchPool { batch } => format!("b{batch:02}"),
            TapeRole::Unused => "---".to_string(),
        };
        out.push_str(&format!(
            "  {tape:<8} {role} [{:<10}] {:>6.1} GB, {:>4} objects, p={:.4}\n",
            "#".repeat(bars.min(10)),
            layout.used().as_gb(),
            layout.len(),
            placement.tape_probability(tape),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str, allowed: &[&str], bools: &[&str]) -> Args {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        Args::parse(&argv, allowed, bools).unwrap()
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("tapesim-cli-test-{name}"))
            .to_string_lossy()
            .into_owned()
    }

    /// End-to-end: generate → place → simulate → serve → inspect.
    #[test]
    fn full_pipeline_round_trips() {
        let w = tmp("w.json");
        let p = tmp("p.json");

        let msg = generate(&args(
            &format!("--objects 800 --requests 30 --min-objects 10 --max-objects 15 --avg-object-mb 4000 --seed 7 -o {w}"),
            &["objects", "requests", "min-objects", "max-objects", "avg-object-mb", "alpha", "seed", "out"],
            &[],
        ))
        .unwrap();
        assert!(msg.contains("800 objects"));

        let msg = place(&args(
            &format!("-w {w} --scheme pbp --m 4 -o {p}"),
            &["workload", "scheme", "m", "libraries", "tapes", "out"],
            &[],
        ))
        .unwrap();
        assert!(msg.contains("parallel batch placement"), "{msg}");
        assert!(msg.contains("pinned"));

        let msg = simulate(&args(
            &format!("-w {w} -p {p} --samples 20 --seed 3"),
            &["workload", "placement", "m", "samples", "seed"],
            &["json"],
        ))
        .unwrap();
        assert!(msg.contains("20 requests served"), "{msg}");
        assert!(msg.contains("effective bandwidth"));

        let json = simulate(&args(
            &format!("-w {w} -p {p} --samples 5 --json"),
            &["workload", "placement", "m", "samples", "seed"],
            &["json"],
        ))
        .unwrap();
        assert!(json.trim_start().starts_with('{'), "json output expected");

        let msg = serve(&args(
            &format!("-w {w} -p {p} --request 0"),
            &["workload", "placement", "m", "request"],
            &["trace"],
        ))
        .unwrap();
        assert!(msg.contains("request 0"), "{msg}");
        assert!(msg.contains("response"));
        assert!(!msg.contains("timeline"), "no timeline without --trace");

        let msg = serve(&args(
            &format!("-w {w} -p {p} --request 0 --trace"),
            &["workload", "placement", "m", "request"],
            &["trace"],
        ))
        .unwrap();
        assert!(msg.contains("timeline:"), "{msg}");
        assert!(
            msg.contains("streams"),
            "trace should show streaming events: {msg}"
        );

        let msg = audit(&args(
            &format!("-w {w} -p {p} --samples 10 --seed 3"),
            &["workload", "placement", "m", "samples", "seed"],
            &[],
        ))
        .unwrap();
        assert!(msg.contains("audit clean"), "{msg}");
        assert!(msg.contains("transfers"), "{msg}");

        let msg = inspect(&args(&format!("-p {p}"), &["placement"], &[])).unwrap();
        assert!(msg.contains("pinned batch"), "{msg}");
        assert!(msg.contains("fill map"));
    }

    const SCHED_VALUES: &[&str] = &[
        "workload",
        "scheme",
        "policy",
        "rate",
        "samples",
        "seed",
        "m",
        "max-batch",
        "libraries",
        "tapes",
    ];
    const SCHED_BOOLS: &[&str] = &["json", "smoke", "no-audit"];

    #[test]
    fn sched_smoke_runs_all_schemes_and_policies() {
        let msg = sched(&args(
            "--smoke --samples 10 --rate 20",
            SCHED_VALUES,
            SCHED_BOOLS,
        ))
        .unwrap();
        for label in ["parallel-batch", "object-prob", "cluster-prob"] {
            assert!(msg.contains(label), "missing scheme {label}: {msg}");
        }
        for label in ["fcfs", "batch", "sltf"] {
            assert!(msg.contains(label), "missing policy {label}: {msg}");
        }
        assert!(msg.contains("audit on"), "{msg}");
    }

    #[test]
    fn sched_smoke_is_deterministic() {
        let run = || {
            sched(&args(
                "--smoke --samples 8 --rate 15",
                SCHED_VALUES,
                SCHED_BOOLS,
            ))
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sched_json_output() {
        let msg = sched(&args(
            "--smoke --samples 5 --policy batch --scheme pbp --json",
            SCHED_VALUES,
            SCHED_BOOLS,
        ))
        .unwrap();
        assert!(msg.trim_start().starts_with('['), "{msg}");
        assert!(msg.contains("\"p99_sojourn_s\""), "{msg}");
    }

    #[test]
    fn sched_rejects_unknown_policy() {
        let err = sched(&args("--smoke --policy bogus", SCHED_VALUES, SCHED_BOOLS)).unwrap_err();
        assert!(err.0.contains("unknown policy"), "{err}");
    }

    const SERVE_VALUES: &[&str] = &[
        "workload",
        "placement",
        "m",
        "request",
        "scheme",
        "policy",
        "rate",
        "requests",
        "seed",
        "shards",
        "max-batch",
        "channel-bound",
        "snapshot-every",
        "libraries",
        "tapes",
    ];
    const SERVE_BOOLS: &[&str] = &["trace", "campaign", "smoke", "check", "json"];

    #[test]
    fn serve_campaign_smoke_sweeps_schemes_and_policies() {
        let msg = serve(&args(
            "--campaign --smoke --requests 60 --rate 30",
            SERVE_VALUES,
            SERVE_BOOLS,
        ))
        .unwrap();
        for label in ["parallel-batch", "object-prob", "cluster-prob"] {
            assert!(msg.contains(label), "missing scheme {label}: {msg}");
        }
        for label in ["batch", "sltf"] {
            assert!(msg.contains(label), "missing policy {label}: {msg}");
        }
        assert!(msg.contains("audited"), "{msg}");
        assert!(
            msg.contains("BENCH_serve.json left untouched"),
            "smoke must not rewrite the committed artifact: {msg}"
        );
    }

    /// The virtual-time half of every campaign cell is a pure function
    /// of (seed, shard count): only the wall-clock fields may differ
    /// between two identical smoke runs.
    #[test]
    fn serve_campaign_virtual_time_is_deterministic() {
        let run = || {
            serve(&args(
                "--campaign --smoke --requests 50 --rate 30 --shards 3 --policy batch --scheme pbp --json",
                SERVE_VALUES,
                SERVE_BOOLS,
            ))
            .unwrap()
        };
        let (a, b) = (run(), run());
        for field in [
            "served",
            "lost",
            "snapshots",
            "avg_sojourn_s",
            "p50_sojourn_s",
            "p99_sojourn_s",
            "mounts",
            "events",
        ] {
            assert_eq!(
                json_field(&a, field),
                json_field(&b, field),
                "{field} must replay bit-for-bit"
            );
        }
        assert_eq!(json_field(&a, "served"), "50");
        assert_eq!(json_field(&a, "lost"), "0");
    }

    #[test]
    fn serve_campaign_honours_shard_and_snapshot_flags() {
        let msg = serve(&args(
            "--campaign --smoke --requests 40 --rate 30 --shards 2 --snapshot-every 10 --policy sltf --scheme opp --json",
            SERVE_VALUES,
            SERVE_BOOLS,
        ))
        .unwrap();
        assert_eq!(json_field(&msg, "shards"), "2");
        assert_eq!(json_field(&msg, "snapshots"), "4", "40 requests / 10");
        assert_eq!(json_field(&msg, "requests_per_cell"), "40");
    }

    #[test]
    fn serve_campaign_rejects_unknown_scheme() {
        let err = serve(&args(
            "--campaign --smoke --scheme bogus",
            SERVE_VALUES,
            SERVE_BOOLS,
        ))
        .unwrap_err();
        assert!(err.0.contains("unknown scheme"), "{err}");
    }

    /// A campaign runs no chaos and no admission control, so a single
    /// shard failure fails the cell even when the ledger balances, and
    /// the message names the shard, its generation and the reason.
    #[test]
    fn serve_campaign_rejects_a_shard_failure() {
        let mut report = ServeReport {
            metrics: Default::default(),
            records: Vec::new(),
            registry: tapesim_obs::MetricsRegistry::new(),
            snapshots: Vec::new(),
            reports: Vec::new(),
            per_shard: Vec::new(),
            submitted: 12,
            served: 12,
            lost: 0,
            rejected: 0,
            shed: 0,
            restarts: 0,
            failures: Vec::new(),
            health_trace: Vec::new(),
            shards: 2,
            end: Default::default(),
        };
        assert!(serve_ledger(&report, true).is_empty());

        report.failures.push(tapesim_serve::ShardFailure {
            shard: 1,
            generation: 0,
            reason: tapesim_serve::FailureReason::Stalled,
            at_draw: 7,
        });
        let dirty = serve_ledger(&report, true);
        assert_eq!(dirty.len(), 1, "{dirty:?}");
        assert!(
            dirty[0].contains("shard 1 generation 0 failed (Stalled)"),
            "{dirty:?}"
        );

        report.restarts = 1;
        report.served = 11;
        report.shed = 1;
        let dirty = serve_ledger(&report, true);
        assert_eq!(dirty.len(), 2, "a restart and a shed fail the ledger too");
        assert!(dirty[0].contains("1 shed"), "{dirty:?}");
        // Under injected chaos the same balanced ledger is expected.
        assert!(serve_ledger(&report, false).is_empty());
    }

    const FAULTS_VALUES: &[&str] = &[
        "workload",
        "scheme",
        "policy",
        "rate",
        "samples",
        "seed",
        "m",
        "max-batch",
        "libraries",
        "tapes",
        "fault-seed",
        "intensity",
        "mtbf-hours",
        "jams-per-hour",
        "spots-per-tape",
        "replicate-gb",
    ];
    const FAULTS_BOOLS: &[&str] = &["json", "smoke"];

    #[test]
    fn faults_smoke_runs_audited_and_reports_counters() {
        let msg = faults(&args(
            "--smoke --samples 10 --rate 20",
            FAULTS_VALUES,
            FAULTS_BOOLS,
        ))
        .unwrap();
        for label in ["parallel-batch", "object-prob", "cluster-prob"] {
            assert!(msg.contains(label), "missing scheme {label}: {msg}");
        }
        assert!(msg.contains("avail"), "{msg}");
        assert!(msg.contains("replica copies"), "{msg}");
    }

    #[test]
    fn faults_smoke_is_deterministic() {
        let run = || {
            faults(&args(
                "--smoke --samples 8 --rate 15 --policy batch",
                FAULTS_VALUES,
                FAULTS_BOOLS,
            ))
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn faults_json_output() {
        let msg = faults(&args(
            "--smoke --samples 5 --policy batch --scheme pbp --json",
            FAULTS_VALUES,
            FAULTS_BOOLS,
        ))
        .unwrap();
        assert!(msg.trim_start().starts_with('['), "{msg}");
        for field in [
            "\"availability\"",
            "\"failovers\"",
            "\"retries\"",
            "\"lost\"",
        ] {
            assert!(msg.contains(field), "missing {field}: {msg}");
        }
    }

    /// Extracts the raw value token of `"field": <token>` from pretty
    /// JSON. Float tokens are shortest-round-trip, so string equality is
    /// bit equality.
    fn json_field<'a>(json: &'a str, field: &str) -> &'a str {
        let pat = format!("\"{field}\": ");
        let start = json.find(&pat).map(|i| i + pat.len()).unwrap();
        let rest = &json[start..];
        let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
        rest[..end].trim()
    }

    /// With intensity zero and no replication the `faults` command must
    /// reproduce `sched`'s sojourn figures exactly — the fault gear is a
    /// strict superset of the fault-free engine.
    #[test]
    fn faults_zero_intensity_matches_sched() {
        let common = "--smoke --samples 8 --rate 15 --policy batch --scheme pbp --json";
        let plain = sched(&args(common, SCHED_VALUES, SCHED_BOOLS)).unwrap();
        let faulty = faults(&args(
            &format!("{common} --intensity 0 --replicate-gb 0"),
            FAULTS_VALUES,
            FAULTS_BOOLS,
        ))
        .unwrap();
        for field in ["served", "mounts", "avg_sojourn_s", "p99_sojourn_s"] {
            assert_eq!(
                json_field(&plain, field),
                json_field(&faulty, field),
                "field {field} diverged"
            );
        }
        assert_eq!(json_field(&faulty, "lost"), "0");
        assert_eq!(json_field(&faulty, "retries"), "0");
        assert_eq!(json_field(&faulty, "availability"), "1.0");
    }

    #[test]
    fn faults_rejects_unknown_scheme() {
        let err = faults(&args("--smoke --scheme bogus", FAULTS_VALUES, FAULTS_BOOLS)).unwrap_err();
        assert!(err.0.contains("unknown scheme"), "{err}");
    }

    /// A zero, negative or NaN `--rate` is a one-line error from every
    /// command that builds an arrival stream, never a panic.
    #[test]
    fn every_arrival_command_rejects_a_non_positive_or_nan_rate() {
        type Command = fn(&Args) -> Result<String, CommandError>;
        let commands: [(&str, Command, &[&str], &[&str]); 5] = [
            ("--smoke", sched, SCHED_VALUES, SCHED_BOOLS),
            ("--smoke", faults, FAULTS_VALUES, FAULTS_BOOLS),
            ("--smoke", report, SCHED_VALUES, SCHED_BOOLS),
            ("--campaign --smoke", serve, SERVE_VALUES, SERVE_BOOLS),
            ("--chaos --smoke", serve, SERVE_VALUES, &["chaos", "smoke"]),
        ];
        for (prefix, command, values, bools) in commands {
            for rate in ["0", "-1", "nan"] {
                let line = format!("{prefix} --rate {rate}");
                let err = command(&args(&line, values, bools)).unwrap_err();
                assert!(err.0.contains("--rate"), "{line}: {err}");
                assert!(!err.0.contains('\n'), "{line}: multi-line reason {err}");
            }
        }
    }

    #[test]
    fn scheme_validation() {
        let w = tmp("w2.json");
        generate(&args(
            &format!("--objects 200 --requests 10 --min-objects 3 --max-objects 5 -o {w}"),
            &["objects", "requests", "min-objects", "max-objects", "out"],
            &[],
        ))
        .unwrap();
        let err = place(&args(
            &format!("-w {w} --scheme bogus -o /tmp/x.json"),
            &["workload", "scheme", "out"],
            &[],
        ))
        .unwrap_err();
        assert!(err.0.contains("unknown scheme"));
    }

    #[test]
    fn mismatched_placement_is_rejected() {
        let w1 = tmp("w3.json");
        let w2 = tmp("w4.json");
        let p1 = tmp("p3.json");
        for (w, seed) in [(&w1, 1), (&w2, 2)] {
            generate(&args(
                &format!("--objects 300 --requests 10 --min-objects 3 --max-objects 5 --seed {seed} -o {w}"),
                &["objects", "requests", "min-objects", "max-objects", "seed", "out"],
                &[],
            ))
            .unwrap();
        }
        place(&args(
            &format!("-w {w1} -o {p1}"),
            &["workload", "out", "scheme", "m", "libraries", "tapes"],
            &[],
        ))
        .unwrap();
        let err = simulate(&args(
            &format!("-w {w2} -p {p1}"),
            &["workload", "placement", "m", "samples", "seed"],
            &["json"],
        ))
        .unwrap_err();
        assert!(err.0.contains("does not match"), "{err}");
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let err = simulate(&args(
            "-w /nonexistent.json -p /nonexistent2.json",
            &["workload", "placement", "m", "samples", "seed"],
            &["json"],
        ))
        .unwrap_err();
        assert!(err.0.contains("i/o error"));
    }
}
