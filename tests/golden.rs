//! Golden-trace snapshot wall.
//!
//! Every placement scheme runs the engine modes — FCFS behind its
//! admission gate (`queued`), the concurrent batching scheduler (`sched`),
//! the same scheduler under the exact-DP seek policy (`sched-exact`) and
//! the faulty batching scheduler under a seeded moderate fault plan
//! (`faults-smoke`) — with the trace auditor enabled. Each run's audit
//! verdict and event-count fingerprint (entries, jobs, transfers,
//! exchanges, faults, losses, failovers) is compared against a committed
//! snapshot under `tests/golden/`.
//!
//! These snapshots pin the *shape* of the trace, not floating-point
//! metrics: a refactor that reorders events, drops an exchange, or emits
//! a duplicate transfer changes a count here even when every sojourn
//! average stays bit-identical. The auditor verdict additionally pins
//! that the trace still satisfies every DES invariant.
//!
//! To re-bless after an intentional engine change:
//!
//! ```text
//! TAPESIM_BLESS=1 cargo test -p tapesim-experiments --test golden
//! ```
//!
//! then review the diff of `tests/golden/*.json` like any other code.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use tapesim_experiments::figures::quick_settings;
use tapesim_faults::{ChaosPlan, ChaosSpec, FaultPlan, FaultSpec};
use tapesim_placement::Scheme;
use tapesim_sched::{run_scheduled, run_scheduled_faulty, BatchByTape, Fcfs, SchedConfig};
use tapesim_serve::{supervisor_run, ServeConfig, SuperviseConfig};
use tapesim_sim::{SeekPolicy, Simulator};
use tapesim_workload::ArrivalSpec;

/// The audited shape of one deterministic run.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
struct Fingerprint {
    scheme: String,
    mode: String,
    served: u64,
    events: u64,
    /// Auditor verdict: every invariant held over the whole trace.
    clean: bool,
    entries: u64,
    jobs: u64,
    transfers: u64,
    exchanges: u64,
    faults: u64,
    losses: u64,
    failovers: u64,
    /// Supervised-runtime legs (`serve-chaos` mode only; default 0 so
    /// the pre-supervision snapshots parse unchanged).
    #[serde(default)]
    shed: u64,
    #[serde(default)]
    restarts: u64,
    #[serde(default)]
    shard_failures: u64,
}

/// Runs one (scheme, mode) cell with auditing on and fingerprints it.
fn fingerprint(scheme: Scheme, mode: &str) -> Fingerprint {
    let s = quick_settings();
    let system = s.system();
    let w = s.generate_workload();
    let placement = scheme.policy(s.m).place(&w, &system).expect("placement");
    let sim = Simulator::with_natural_policy(placement, s.m);
    let cfg = SchedConfig::new(
        ArrivalSpec {
            per_hour: 16.0,
            seed: s.sim_seed,
        },
        s.samples,
    )
    .with_audit(true);
    if mode == "serve-chaos" {
        return serve_chaos_fingerprint(scheme, sim, &w, &system);
    }
    let batch = |plan: &FaultPlan| {
        run_scheduled_faulty(&sim, &w, &BatchByTape, &cfg, plan, &BTreeMap::new())
    };
    let out = match mode {
        "queued" => run_scheduled(&sim, &w, &Fcfs, &cfg),
        "sched" => batch(&FaultPlan::zero(&system)),
        // The exact-DP policy gets its own wall: same stream, optimal
        // in-tape order. Mount and exchange counts must match `sched`
        // (the policy is per-tape-local); only within-tape transfer
        // shape may move.
        "sched-exact" => {
            let cfg = cfg.with_seek(SeekPolicy::ExactDp);
            run_scheduled(&sim, &w, &BatchByTape, &cfg)
        }
        "faults-smoke" => batch(&FaultPlan::generate(&FaultSpec::moderate(29), &system)),
        other => panic!("unknown golden mode {other:?}"),
    };
    let mut fp = Fingerprint {
        scheme: scheme.tag().to_string(),
        mode: mode.to_string(),
        served: out.metrics.served(),
        events: out.metrics.events(),
        clean: out.is_clean(),
        entries: 0,
        jobs: 0,
        transfers: 0,
        exchanges: 0,
        faults: 0,
        losses: 0,
        failovers: 0,
        shed: 0,
        restarts: 0,
        shard_failures: 0,
    };
    assert!(
        !out.reports.is_empty(),
        "auditing was on; the golden fingerprint needs audit reports"
    );
    for r in &out.reports {
        fp.entries += r.entries as u64;
        fp.jobs += r.jobs as u64;
        fp.transfers += r.transfers as u64;
        fp.exchanges += r.exchanges as u64;
        fp.faults += r.faults as u64;
        fp.losses += r.losses as u64;
        fp.failovers += r.failovers as u64;
    }
    fp
}

/// The `serve-chaos` cell: a faulty multi-shard **supervised** serve run
/// — hardware faults plus seeded shard kills and stalls, shards
/// restarted from checkpoint replay. The fingerprint additionally pins
/// the supervision ledger (shed, restarts, failures); determinism of
/// the underlying runtime makes the shape stable across machines.
fn serve_chaos_fingerprint(
    scheme: Scheme,
    sim: Simulator,
    w: &tapesim_workload::Workload,
    system: &tapesim_model::SystemConfig,
) -> Fingerprint {
    let s = quick_settings();
    let shards = system.libraries as usize;
    let cfg = ServeConfig::new(
        ArrivalSpec {
            per_hour: 16.0,
            seed: s.sim_seed,
        },
        s.samples,
    )
    .with_shards(shards)
    .with_audit(true)
    .with_channel_bound(4)
    .with_snapshot_every((s.samples / 4).max(1));
    let plan = FaultPlan::generate(&FaultSpec::moderate(29), system);
    let chaos = ChaosPlan::generate(
        &ChaosSpec {
            seed: 7,
            kills_per_shard: 1.5,
            stalls_per_shard: 1.0,
            horizon_submissions: (s.samples / shards.max(1)).max(1) as u64,
            restart_base_draws: 1,
            restart_cap_draws: 4,
        },
        shards,
    );
    let report = supervisor_run(
        &sim,
        w,
        tapesim_sched::PolicyKind::BatchByTape,
        &cfg,
        &plan,
        &BTreeMap::new(),
        &chaos,
        &SuperviseConfig::new().with_watchdog_ms(1_000),
    );
    assert!(
        !report.reports.is_empty(),
        "auditing was on; the golden fingerprint needs audit reports"
    );
    let mut fp = Fingerprint {
        scheme: scheme.tag().to_string(),
        mode: "serve-chaos".to_string(),
        served: report.served,
        events: report.metrics.events(),
        clean: report.is_clean(),
        entries: 0,
        jobs: 0,
        transfers: 0,
        exchanges: 0,
        faults: 0,
        losses: 0,
        failovers: 0,
        shed: report.shed,
        restarts: report.restarts,
        shard_failures: report.failures.len() as u64,
    };
    for r in &report.reports {
        fp.entries += r.entries as u64;
        fp.jobs += r.jobs as u64;
        fp.transfers += r.transfers as u64;
        fp.exchanges += r.exchanges as u64;
        fp.faults += r.faults as u64;
        fp.losses += r.losses as u64;
        fp.failovers += r.failovers as u64;
    }
    fp
}

fn golden_path(scheme: Scheme, mode: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(format!("{}_{}.json", scheme.tag(), mode))
}

/// Compares one cell against its snapshot; returns a description of the
/// mismatch (or of a missing snapshot). `TAPESIM_BLESS=1` rewrites the
/// snapshot instead and never fails.
fn check(scheme: Scheme, mode: &str) -> Option<String> {
    let fp = fingerprint(scheme, mode);
    let path = golden_path(scheme, mode);
    if std::env::var_os("TAPESIM_BLESS").is_some() {
        let json = serde_json::to_string_pretty(&fp).expect("serialize fingerprint");
        std::fs::write(&path, json + "\n").expect("write golden snapshot");
        return None;
    }
    let committed = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            return Some(format!(
                "{}: cannot read snapshot ({e}); run with TAPESIM_BLESS=1 to create it",
                path.display()
            ))
        }
    };
    let want: Fingerprint = match serde_json::from_str(&committed) {
        Ok(fp) => fp,
        Err(e) => return Some(format!("{}: cannot parse snapshot: {e}", path.display())),
    };
    (fp != want).then(|| {
        format!(
            "{}: trace shape drifted\n  committed: {want:?}\n  current:   {fp:?}\n  \
             (re-bless with TAPESIM_BLESS=1 if the change is intentional)",
            path.display()
        )
    })
}

fn run_mode(mode: &str) {
    let diffs: Vec<String> = Scheme::ALL
        .iter()
        .filter_map(|&scheme| check(scheme, mode))
        .collect();
    assert!(diffs.is_empty(), "{}", diffs.join("\n"));
}

#[test]
fn golden_queued_traces_match() {
    run_mode("queued");
}

#[test]
fn golden_sched_traces_match() {
    run_mode("sched");
}

#[test]
fn golden_sched_exact_traces_match() {
    run_mode("sched-exact");
}

#[test]
fn golden_faulty_traces_match() {
    run_mode("faults-smoke");
}

#[test]
fn golden_supervised_chaos_traces_match() {
    run_mode("serve-chaos");
}
