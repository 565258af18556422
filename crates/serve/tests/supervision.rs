//! The supervised runtime's three load-bearing claims:
//!
//! 1. with an **empty chaos plan** and no health policy (what `serve_run`
//!    runs), supervision reproduces the pinned bits of the former
//!    unsupervised runtime — same merged canonical registry, same
//!    snapshot sequence, same joined records;
//! 2. a run with **shard kills** (and stalls) replays identically from
//!    `(seed, shards, chaos-seed)`, with conservation generalized to
//!    `submitted = served + lost + shed + rejected`;
//! 3. a **wedged shard never hangs the process**: the drain watchdog
//!    surfaces it as a counted failure and a recovery incarnation
//!    replays its log.

use std::collections::BTreeMap;
use tapesim_faults::{ChaosKind, ChaosPlan, ChaosSpec, FaultPlan, FaultSpec};
use tapesim_model::specs::paper_table1;
use tapesim_model::Bytes;
use tapesim_obs::{digest, fnv1a64};
use tapesim_placement::{ParallelBatchPlacement, PlacementPolicy};
use tapesim_sched::{PolicyKind, RequestRecord};
use tapesim_serve::{
    serve_run, supervisor_run, FailureReason, Health, HealthPolicy, ServeConfig, SuperviseConfig,
};
use tapesim_sim::Simulator;
use tapesim_workload::{ArrivalSpec, ObjectSizeSpec, RequestSpec, Workload, WorkloadSpec};

fn setup() -> (Simulator, Workload) {
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

fn arrivals() -> ArrivalSpec {
    ArrivalSpec {
        per_hour: 30.0,
        seed: 5,
    }
}

/// FNV-1a over every record's id and timestamp bits, in report order.
fn records_fingerprint(records: &[RequestRecord]) -> u64 {
    let mut bytes = Vec::new();
    for r in records {
        bytes.extend_from_slice(&(r.request as u64).to_le_bytes());
        for t in [r.arrival, r.first_start, r.finish] {
            bytes.extend_from_slice(&t.as_secs().to_bits().to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

/// The bits below were recorded from the unsupervised serve runtime
/// (separate collector thread, no submission log) on this exact config,
/// before it was folded into `supervisor_run`. `serve_run` is now the
/// supervisor with an empty chaos plan, so this pins that supervision
/// with no chaos perturbs no registry, snapshot, record or metric bit.
#[test]
fn empty_chaos_supervised_run_matches_pinned_serve_bits() {
    let cfg = ServeConfig::new(arrivals(), 40)
        .with_shards(3)
        .with_audit(true)
        .with_snapshot_every(10)
        .with_channel_bound(4);
    let (sim, w) = setup();
    let plan = FaultPlan::zero(sim.placement().config());
    let report = serve_run(
        &sim,
        &w,
        PolicyKind::BatchByTape,
        &cfg,
        &plan,
        &BTreeMap::new(),
    );

    assert!(report.is_clean());
    assert_eq!(report.shed, 0);
    assert_eq!(report.restarts, 0);
    assert!(report.failures.is_empty());
    assert!(report.health_trace.is_empty());
    assert_eq!(
        digest(&report.registry),
        0x55fdef61da3fbb97,
        "supervision with no chaos must not perturb a single registry bit"
    );
    assert_eq!(digest(&report.snapshots), 0x88481c00c976766e);
    assert_eq!(records_fingerprint(&report.records), 0xb62832f34c96cb42);
    assert_eq!((report.submitted, report.served, report.lost), (40, 40, 0));
    assert_eq!(report.end.as_secs().to_bits(), 0x40c638ae68d6cc37);
    assert_eq!(report.metrics.avg_sojourn().to_bits(), 0x40b5dd7e18ab0276);
    assert_eq!(
        report.metrics.sojourn_percentile(99.0).to_bits(),
        0x40c06c6277876874
    );
}

#[test]
fn kill_chaos_replays_identically_and_conserves() {
    let spec = ChaosSpec {
        seed: 41,
        kills_per_shard: 2.5,
        stalls_per_shard: 0.0,
        horizon_submissions: 12,
        restart_base_draws: 2,
        restart_cap_draws: 8,
    };
    let run = || {
        let (sim, w) = setup();
        // Hardware faults and process chaos at the same time: the
        // degraded-mode worst case.
        let plan = FaultPlan::generate(
            &FaultSpec {
                horizon_hours: 4.0,
                ..FaultSpec::moderate(23)
            },
            sim.placement().config(),
        );
        supervisor_run(
            &sim,
            &w,
            PolicyKind::BatchByTape,
            &ServeConfig::new(arrivals(), 40)
                .with_shards(3)
                .with_snapshot_every(10)
                .with_channel_bound(2),
            &plan,
            &BTreeMap::new(),
            &ChaosPlan::generate(&spec, 3),
            &SuperviseConfig::new(),
        )
    };
    let a = run();
    let b = run();

    assert!(
        a.restarts > 0 && !a.failures.is_empty(),
        "the chaos plan must actually fire (restarts={}, failures={:?})",
        a.restarts,
        a.failures
    );
    assert!(a.failures.iter().all(|f| f.reason == FailureReason::Killed));
    assert!(a.is_clean(), "kills must never break conservation");
    assert_eq!(a.submitted, 40);
    assert_eq!(a.submitted, a.served + a.lost + a.shed + a.rejected);

    assert_eq!(
        a.registry, b.registry,
        "chaos runs must replay bit-identically"
    );
    assert_eq!(a.snapshots, b.snapshots);
    assert_eq!(a.records, b.records);
    assert_eq!(a.failures, b.failures);
    assert_eq!(a.restarts, b.restarts);
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.end, b.end);
    assert_eq!(
        a.metrics.avg_sojourn().to_bits(),
        b.metrics.avg_sojourn().to_bits()
    );

    // Every joined record id is unique and accounted for.
    let mut ids: Vec<usize> = a.records.iter().map(|r| r.request).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len() as u64, a.served);
}

#[test]
fn stall_is_detected_at_the_barrier_and_recovered() {
    let spec = ChaosSpec {
        seed: 3,
        kills_per_shard: 0.0,
        stalls_per_shard: 2.0,
        horizon_submissions: 10,
        restart_base_draws: 1,
        restart_cap_draws: 4,
    };
    let run = || {
        let (sim, w) = setup();
        let plan = FaultPlan::zero(sim.placement().config());
        supervisor_run(
            &sim,
            &w,
            PolicyKind::SltfTape,
            &ServeConfig::new(arrivals(), 36)
                .with_shards(3)
                .with_snapshot_every(6),
            &plan,
            &BTreeMap::new(),
            &ChaosPlan::generate(&spec, 3),
            &SuperviseConfig::new().with_watchdog_ms(1_500),
        )
    };
    let a = run();
    assert!(
        a.failures
            .iter()
            .any(|f| f.reason == FailureReason::Stalled),
        "a stall inside the barrier cadence must be detected as Stalled: {:?}",
        a.failures
    );
    assert!(a.restarts > 0);
    assert!(a.is_clean());
    assert_eq!(a.submitted, 36);
    let b = run();
    assert_eq!(a.registry, b.registry, "stall detection must replay");
    assert_eq!(a.failures, b.failures);
    assert_eq!(a.shed, b.shed);
}

#[test]
fn wedged_shard_surfaces_via_drain_watchdog_not_a_hang() {
    // No snapshot barriers at all: the only stall detector left is the
    // drain watchdog. The test *completing* is the no-hang claim; the
    // report carries the counted failure and the replayed books.
    let spec = ChaosSpec {
        seed: 11,
        kills_per_shard: 0.0,
        stalls_per_shard: 3.0,
        horizon_submissions: 8,
        restart_base_draws: 0,
        restart_cap_draws: 0,
    };
    let (sim, w) = setup();
    let plan = FaultPlan::zero(sim.placement().config());
    let report = supervisor_run(
        &sim,
        &w,
        PolicyKind::BatchByTape,
        &ServeConfig::new(arrivals(), 24).with_shards(2),
        &plan,
        &BTreeMap::new(),
        &ChaosPlan::generate(&spec, 2),
        &SuperviseConfig::new().with_watchdog_ms(600),
    );
    assert!(
        report
            .failures
            .iter()
            .any(|f| f.reason == FailureReason::Unresponsive),
        "an unbarriered stall must surface at drain: {:?}",
        report.failures
    );
    assert!(report.restarts > 0);
    assert!(report.is_clean());
    assert_eq!(report.submitted, 24);
    // The recovery incarnation replays the stalled shard's entire log,
    // so nothing needs shedding in this zero-hardware-fault run.
    assert_eq!(report.served + report.lost + report.shed, 24);
}

#[test]
fn overload_sheds_at_admission_with_laddered_health() {
    // Thresholds of zero force the target state to Overloaded from the
    // first barrier; the ladder must still pass through Degraded.
    let policy = HealthPolicy {
        degraded_depth: 0.0,
        overloaded_depth: 0.0,
        ..HealthPolicy::default()
    };
    let (sim, w) = setup();
    let plan = FaultPlan::zero(sim.placement().config());
    let report = supervisor_run(
        &sim,
        &w,
        PolicyKind::BatchByTape,
        &ServeConfig::new(arrivals(), 30)
            .with_shards(2)
            .with_snapshot_every(5),
        &plan,
        &BTreeMap::new(),
        &ChaosPlan::zero(2),
        &SuperviseConfig::new().with_health(policy),
    );
    assert!(report.is_clean());
    assert_eq!(report.submitted, 30);
    // Barrier 1 (after draw 5): Healthy→Degraded. Barrier 2 (after
    // draw 10): Degraded→Overloaded. Draws 10..30 are shed.
    assert_eq!(
        report.shed, 20,
        "admission control must shed exactly the overloaded window"
    );
    assert_eq!(report.served + report.lost, 10);
    assert_eq!(
        report.health_trace.first().map(|&(seq, h)| (seq, h)),
        Some((1, Health::Degraded))
    );
    assert!(report
        .health_trace
        .iter()
        .skip(1)
        .all(|&(_, h)| h == Health::Overloaded));
    // The health gauge rides the snapshot stream for dashboards.
    let gauge_at = |i: usize| {
        report
            .snapshots
            .get(i)
            .and_then(|s| s.registry.gauge_by_name("serve.health"))
    };
    assert_eq!(gauge_at(0), Some(1.0));
    assert_eq!(gauge_at(1), Some(2.0));
}

/// Everything a report carries, bit-exact: its `Debug` form (floats print
/// round-trip exact) plus the record and end-time bits that `SimTime`'s
/// three-decimal `Debug` would round.
fn report_bits(r: &tapesim_serve::ServeReport) -> String {
    format!(
        "{r:?} records {:#x} end {:#x}",
        records_fingerprint(&r.records),
        r.end.as_secs().to_bits()
    )
}

/// Chunked delivery is invisible: whatever the channel bound (one-part
/// messages at 1, chunks of 5, of 64, and 64-part chunks with room for
/// several at 256 and past the sample count), the whole report — records,
/// snapshots, ledger, failures and health trace — equals the bound-1 run
/// bit for bit, with and without kills and stalls landing mid-chunk.
#[test]
fn chunked_delivery_is_bit_identical_to_one_part_messages() {
    let spec = ChaosSpec {
        seed: 8,
        kills_per_shard: 1.5,
        stalls_per_shard: 0.7,
        horizon_submissions: 120,
        restart_base_draws: 2,
        restart_cap_draws: 8,
    };
    let chaos = ChaosPlan::generate(&spec, 3);
    let events: Vec<_> = (0..3)
        .flat_map(|s| chaos.shard_events(s).to_vec())
        .collect();
    for kind in [ChaosKind::Kill, ChaosKind::Stall] {
        assert!(
            events
                .iter()
                .any(|e| e.kind == kind && e.after % 64 != 0 && e.after % 5 != 0 && e.after > 5),
            "the plan must put a {kind:?} mid-chunk: {events:?}"
        );
    }
    let (sim, w) = setup();
    let plan = FaultPlan::zero(sim.placement().config());
    let samples = 200;
    for chaos in [ChaosPlan::zero(3), chaos] {
        let run = |bound: usize| {
            supervisor_run(
                &sim,
                &w,
                PolicyKind::SltfTape,
                &ServeConfig::new(arrivals(), samples)
                    .with_shards(3)
                    .with_snapshot_every(25)
                    .with_channel_bound(bound),
                &plan,
                &BTreeMap::new(),
                &chaos,
                &SuperviseConfig::new()
                    .with_watchdog_ms(1_000)
                    .with_health(HealthPolicy::default()),
            )
        };
        let base = run(1);
        assert!(base.is_clean());
        assert_eq!(base.health_trace.len(), samples / 25);
        let chaotic = !chaos.shard_events(0).is_empty();
        assert_eq!(chaotic, base.restarts > 0, "{:?}", base.failures);
        let want = report_bits(&base);
        for bound in [5, 64, 256, samples + 1] {
            assert_eq!(
                report_bits(&run(bound)),
                want,
                "channel bound {bound} (chaos: {chaotic})"
            );
        }
    }
}
