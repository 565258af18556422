//! Integration tests for the extension features: striping, incremental
//! placement, request queueing and multi-arm robots — each through the
//! whole pipeline against paper-shaped (shrunken) workloads.

use tapesim_model::specs::paper_table1;
use tapesim_model::Bytes;
use tapesim_placement::{
    IncrementalPlacer, ObjectProbabilityPlacement, ParallelBatchParams, ParallelBatchPlacement,
    PlacementPolicy,
};
use tapesim_sched::{run_scheduled, Fcfs, SchedConfig};
use tapesim_sim::Simulator;
use tapesim_workload::{
    stripe_workload, ArrivalSpec, EvolutionSpec, ObjectSizeSpec, RequestSpec, StripeSpec, Workload,
    WorkloadSpec,
};

fn workload() -> Workload {
    WorkloadSpec {
        objects: 3_000,
        sizes: ObjectSizeSpec::default().calibrated(Bytes::gb(5)),
        requests: RequestSpec {
            count: 60,
            min_objects: 20,
            max_objects: 30,
            count_shape: 1.0,
            alpha: 0.3,
        },
        seed: 77,
    }
    .generate()
}

#[test]
fn striped_workload_places_simulates_and_conserves_bytes() {
    let system = paper_table1();
    let original = workload();
    let (striped, map) = stripe_workload(
        &original,
        StripeSpec {
            width: 4,
            min_object: Bytes::gb(1),
        },
    );
    assert_eq!(striped.total_bytes(), original.total_bytes());
    assert_eq!(map.n_originals(), original.objects().len());

    let placement = ParallelBatchPlacement::with_m(4)
        .place(&striped, &system)
        .unwrap();
    placement.verify_against(&striped).unwrap();

    // Serving the striped form of a request moves exactly the original's
    // bytes.
    let mut sim = Simulator::with_natural_policy(placement, 4);
    let metrics = sim.serve(&striped.requests()[0].objects);
    assert_eq!(
        metrics.bytes,
        original.request_bytes(&original.requests()[0])
    );
    assert!(metrics.response > 0.0);
}

#[test]
fn incremental_placement_survives_a_five_epoch_campaign() {
    let system = paper_table1();
    let params = ParallelBatchParams::default();
    let mut w = workload();
    let mut placer = IncrementalPlacer::bootstrap(&w, &system, params).unwrap();
    for epoch in 1..=5u64 {
        w = EvolutionSpec {
            growth: 0.05,
            churn: 0.2,
            new_sizes: ObjectSizeSpec::default().calibrated(Bytes::gb(5)),
            new_requests: RequestSpec {
                count: 60,
                min_objects: 20,
                max_objects: 30,
                count_shape: 1.0,
                alpha: 0.3,
            },
            seed: 1000 + epoch,
        }
        .advance(&w);
        let placement = placer.advance(&w).unwrap();
        placement.verify_against(&w).unwrap();
        // The evolved workload is servable end to end.
        let mut sim = Simulator::with_natural_policy(placement, 4);
        let run = sim.run_sampled(&w, 20, epoch);
        assert!(run.avg_bandwidth_mbs() > 0.0, "epoch {epoch}");
    }
}

#[test]
fn queueing_preserves_service_metrics_and_orders_waits() {
    let system = paper_table1();
    let w = workload();
    let placement = ParallelBatchPlacement::with_m(4)
        .place(&w, &system)
        .unwrap();

    // Mean service time under queueing equals the plain sampled mean for
    // the same seed structure (the queue changes waits, not services).
    let fcfs = |per_hour: f64| {
        let sim = Simulator::with_natural_policy(placement.clone(), 4);
        let cfg = SchedConfig::new(ArrivalSpec { per_hour, seed: 5 }, 40);
        run_scheduled(&sim, &w, &Fcfs, &cfg).metrics
    };
    let sparse = fcfs(0.01);
    let dense = fcfs(20.0);
    assert!(sparse.avg_wait() < 1e-9);
    assert!(dense.avg_wait() > sparse.avg_wait());
    assert!(dense.avg_sojourn() >= dense.avg_service());
    assert_eq!(sparse.served(), 40);
}

#[test]
fn second_robot_arm_only_helps() {
    let w = workload();
    let place = |arms: u8| {
        let mut system = paper_table1();
        system.library.robot.arms = arms;
        let p = ObjectProbabilityPlacement::default()
            .place(&w, &system)
            .unwrap();
        Simulator::with_natural_policy(p, 4)
            .run_sampled(&w, 40, 9)
            .avg_response()
    };
    let single = place(1);
    let dual = place(2);
    assert!(
        dual <= single,
        "dual-arm response {dual:.1} should not exceed single-arm {single:.1}"
    );
}
