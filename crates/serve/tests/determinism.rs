//! The two determinism pins the serve subsystem stands on:
//!
//! 1. a **single-shard** fixed-seed serve run reproduces the equivalent
//!    `tapesim sched` batch run's per-request metrics *bit for bit*
//!    (same Welford state, same percentile samples, same counters);
//! 2. a **multi-shard** run is a pure function of `(seed, shard_count)`:
//!    replaying it yields the identical merged canonical
//!    `MetricsRegistry`, the identical snapshot sequence and the
//!    identical joined records.

use std::collections::BTreeMap;
use tapesim_faults::{FaultPlan, FaultSpec};
use tapesim_model::specs::paper_table1;
use tapesim_model::Bytes;
use tapesim_placement::{ParallelBatchPlacement, PlacementPolicy};
use tapesim_sched::{run_scheduled, PolicyKind, SchedConfig};
use tapesim_serve::{serve_run, ServeConfig};
use tapesim_sim::Simulator;
use tapesim_workload::{ArrivalSpec, ObjectSizeSpec, RequestSpec, Workload, WorkloadSpec};

/// The sched crate's `heavy_setup` fixture: a working set that
/// overflows the initially mounted capacity, so runs actually exchange
/// tapes and the schedulers have real decisions to make.
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

#[test]
fn single_shard_reproduces_batch_bit_for_bit() {
    // `Fcfs` runs its admission gate inside the one shard.
    for kind in [
        PolicyKind::BatchByTape,
        PolicyKind::SltfTape,
        PolicyKind::Fcfs,
    ] {
        let (batch_sim, w) = setup();
        let policy = kind.build();
        let batch = run_scheduled(
            &batch_sim,
            &w,
            policy.as_ref(),
            &SchedConfig::new(arrivals(), 30).with_audit(true),
        );

        let (serve_sim, _) = setup();
        let plan = FaultPlan::zero(serve_sim.placement().config());
        let report = serve_run(
            &serve_sim,
            &w,
            kind,
            &ServeConfig::new(arrivals(), 30)
                .with_shards(1)
                .with_audit(true),
            &plan,
            &BTreeMap::new(),
        );

        assert!(report.is_clean(), "serve run must audit clean");
        assert!(batch.is_clean());
        assert_eq!(report.submitted, 30);
        assert_eq!(report.metrics.served(), batch.metrics.served());
        assert_eq!(
            report.metrics.avg_wait().to_bits(),
            batch.metrics.avg_wait().to_bits(),
            "{kind:?}: wait accumulator diverged"
        );
        assert_eq!(
            report.metrics.avg_service().to_bits(),
            batch.metrics.avg_service().to_bits()
        );
        assert_eq!(
            report.metrics.avg_sojourn().to_bits(),
            batch.metrics.avg_sojourn().to_bits()
        );
        for p in [50.0, 90.0, 99.0, 100.0] {
            assert_eq!(
                report.metrics.wait_percentile(p).to_bits(),
                batch.metrics.wait_percentile(p).to_bits()
            );
            assert_eq!(
                report.metrics.sojourn_percentile(p).to_bits(),
                batch.metrics.sojourn_percentile(p).to_bits()
            );
        }
        assert_eq!(
            report.metrics.utilisation().to_bits(),
            batch.metrics.utilisation().to_bits()
        );
        assert_eq!(report.metrics.mounts(), batch.metrics.mounts());
        assert_eq!(report.metrics.events(), batch.metrics.events());
        assert_eq!(report.metrics.lost(), batch.metrics.lost());
    }
}

#[test]
fn multi_shard_replay_is_deterministic() {
    let run = || {
        let (sim, w) = setup();
        let plan = FaultPlan::zero(sim.placement().config());
        serve_run(
            &sim,
            &w,
            PolicyKind::BatchByTape,
            &ServeConfig::new(arrivals(), 40)
                .with_shards(3)
                .with_audit(true)
                .with_snapshot_every(10)
                .with_channel_bound(4),
            &plan,
            &BTreeMap::new(),
        )
    };
    let a = run();
    let b = run();

    assert_eq!(a.shards, 3);
    assert!(a.is_clean(), "multi-shard run must audit clean");
    assert_eq!(
        a.registry, b.registry,
        "merged canonical registry must be a pure function of (seed, shards)"
    );
    assert_eq!(a.snapshots, b.snapshots, "snapshot sequence must replay");
    assert_eq!(a.records, b.records, "joined records must replay");
    assert_eq!(a.end, b.end);
    assert_eq!(
        a.metrics.avg_sojourn().to_bits(),
        b.metrics.avg_sojourn().to_bits()
    );
    assert_eq!(a.snapshots.len(), 4, "40 requests / tick every 10");
    let seqs: Vec<u64> = a.snapshots.iter().map(|s| s.seq).collect();
    assert_eq!(seqs, vec![1, 2, 3, 4], "rounds complete in tick order");
    // Snapshot renders are stable text — the diffable live view.
    assert_eq!(
        a.snapshots.first().map(|s| s.render()),
        b.snapshots.first().map(|s| s.render())
    );
}

#[test]
fn shard_counts_agree_on_conservation() {
    for shards in [1, 2, 3] {
        let (sim, w) = setup();
        let plan = FaultPlan::zero(sim.placement().config());
        let report = serve_run(
            &sim,
            &w,
            PolicyKind::SltfTape,
            &ServeConfig::new(arrivals(), 25).with_shards(shards),
            &plan,
            &BTreeMap::new(),
        );
        assert_eq!(report.shards, shards);
        assert_eq!(report.submitted, 25);
        assert_eq!(
            report.submitted,
            report.served + report.lost,
            "{shards} shards: conservation"
        );
        assert_eq!(report.rejected, 0);
        assert_eq!(report.served, 25, "zero-fault runs lose nothing");
        // Every global id appears exactly once in the joined records.
        let mut ids: Vec<usize> = report.records.iter().map(|r| r.request).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..25).collect::<Vec<_>>());
    }
}

#[test]
fn faulty_multi_shard_run_is_deterministic_and_audited() {
    let run = || {
        let (sim, w) = setup();
        let plan = FaultPlan::generate(
            &FaultSpec {
                horizon_hours: 4.0,
                ..FaultSpec::moderate(23)
            },
            sim.placement().config(),
        );
        serve_run(
            &sim,
            &w,
            PolicyKind::BatchByTape,
            &ServeConfig::new(arrivals(), 30)
                .with_shards(2)
                .with_audit(true)
                .with_snapshot_every(8),
            &plan,
            &BTreeMap::new(),
        )
    };
    let a = run();
    let b = run();
    assert!(a.is_clean(), "degraded runs must still audit clean");
    assert_eq!(a.registry, b.registry);
    assert_eq!(a.snapshots, b.snapshots);
    assert_eq!(a.records, b.records);
    assert_eq!(a.submitted, a.served + a.lost);
    assert!(
        a.metrics.availability() <= 1.0,
        "fault plan must be visible in merged availability"
    );
}
