//! Property tests for the scheduling subsystem.
//!
//! Six families, per the subsystem's contract:
//!
//! 1. **Conservation** — no policy loses or double-serves a request, and
//!    every audited trace is clean, across random seeds/rates.
//! 2. **Single server** — `Fcfs` serves one request at a time in arrival
//!    order: rebuilding each start as `max(arrival, previous finish)`
//!    accounts for every recorded wait and service second. (The fixture
//!    keeps every requested tape mounted, so a request's first byte
//!    streams the instant it passes the admission gate.)
//! 3. **Coalescing** — under deep queues (high arrival rates)
//!    `BatchByTape` mounts strictly fewer tapes than `Fcfs` on the same
//!    demand stream. (At shallow depths no dominance holds: shifted
//!    queue timing can cost batching a couple of extra exchanges.)
//! 4. **Fault conservation** — under any generated `FaultPlan` (and with
//!    or without replicas to fail over to) every request is either served
//!    exactly once or counted as a terminal loss, and every audited trace
//!    is clean.
//! 5. **Zero-fault identity** — a generated-but-empty fault plan leaves
//!    every metric bit-identical to the fault-free engine.
//! 6. **Span accounting sanity** — with observability on, every run's
//!    `TimeBudget` closes to within 1e-6, never attributes a negative
//!    span to any resource (idle in particular), and keeps every
//!    per-library overlap ratio inside `[0, 1]`.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tapesim_faults::{FaultPlan, FaultSpec};
use tapesim_model::specs::paper_table1;
use tapesim_model::{Bytes, ObjectId};
use tapesim_placement::{ParallelBatchPlacement, PlacementPolicy};
use tapesim_sched::{
    run_scheduled, run_scheduled_faulty, BatchByTape, Fcfs, PolicyKind, SchedConfig,
};
use tapesim_sim::Simulator;
use tapesim_workload::{
    replicate_workload, ArrivalProcess, ArrivalSpec, ObjectSizeSpec, ReplicationSpec, RequestSpec,
    Workload, WorkloadSpec,
};

fn setup(workload_seed: u64) -> (Simulator, Workload) {
    let w = WorkloadSpec {
        objects: 400,
        sizes: ObjectSizeSpec::default().calibrated(Bytes::gb(2)),
        requests: RequestSpec {
            count: 20,
            min_objects: 5,
            max_objects: 12,
            count_shape: 1.0,
            alpha: 0.3,
        },
        seed: workload_seed,
    }
    .generate();
    let cfg = paper_table1();
    let p = ParallelBatchPlacement::with_m(4)
        .place(&w, &cfg)
        .expect("placement");
    (Simulator::with_natural_policy(p, 4), w)
}

/// A fixture whose requested working set overflows the initially mounted
/// capacity, so runs exchange tapes — without this the conservation and
/// coalescing properties would hold vacuously (zero mounts everywhere).
fn heavy_setup(workload_seed: u64) -> (Simulator, Workload) {
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
        seed: workload_seed,
    }
    .generate();
    let cfg = paper_table1();
    let p = ParallelBatchPlacement::with_m(4)
        .place(&w, &cfg)
        .expect("placement");
    (Simulator::with_natural_policy(p, 4), w)
}

/// The heavy fixture, optionally with replica copies for failover. The
/// placement covers the (possibly replicated) workload.
fn faulty_setup(
    workload_seed: u64,
    replicate: bool,
) -> (Simulator, Workload, BTreeMap<ObjectId, Vec<ObjectId>>) {
    let (_, base) = heavy_setup(workload_seed);
    let (w, alternates) = if replicate {
        let budget = base.total_bytes().scale(0.1);
        let (w, map) = replicate_workload(&base, ReplicationSpec { budget });
        let alts = map.alternates();
        (w, alts)
    } else {
        (base, BTreeMap::new())
    };
    let cfg = paper_table1();
    let p = ParallelBatchPlacement::with_m(4)
        .place(&w, &cfg)
        .expect("placement");
    (Simulator::with_natural_policy(p, 4), w, alternates)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn no_policy_loses_or_double_serves(
        seed in 0u64..1_000,
        rate_tenths in 5u32..400,
        samples in 5usize..25,
    ) {
        let spec = ArrivalSpec {
            per_hour: rate_tenths as f64 / 10.0,
            seed,
        };
        for kind in PolicyKind::ALL {
            let (sim, w) = heavy_setup(17);
            let out = run_scheduled(
                &sim,
                &w,
                kind.build().as_ref(),
                &SchedConfig::new(spec, samples).with_audit(true),
            );
            prop_assert_eq!(
                out.metrics.served(),
                samples as u64,
                "{} lost or duplicated requests",
                kind.label()
            );
            prop_assert!(
                out.is_clean(),
                "{} produced a dirty trace",
                kind.label()
            );
        }
    }

    #[test]
    fn fcfs_services_never_overlap(
        seed in 0u64..1_000,
        rate_tenths in 5u32..400,
        samples in 5usize..30,
    ) {
        let spec = ArrivalSpec {
            per_hour: rate_tenths as f64 / 10.0,
            seed,
        };
        let (sim, w) = setup(23);
        let m = run_scheduled(&sim, &w, &Fcfs, &SchedConfig::new(spec, samples)).metrics;
        prop_assert_eq!(m.served(), samples as u64);
        let mut arrivals = ArrivalProcess::new(spec);
        let (mut prev_finish, mut wait, mut service) = (0.0f64, 0.0, 0.0);
        for &sojourn in m.sojourn_seconds() {
            let arrival = arrivals.next_arrival();
            let finish = arrival + sojourn;
            let start = arrival.max(prev_finish);
            prop_assert!(finish > start, "service {} ends before it starts", finish - start);
            wait += start - arrival;
            service += finish - start;
            prev_finish = finish;
        }
        let n = samples as f64;
        prop_assert!((wait / n - m.avg_wait()).abs() < 1e-6, "waits overlap or idle");
        prop_assert!((service / n - m.avg_service()).abs() < 1e-6, "services overlap");
    }

    #[test]
    fn batching_mounts_fewer_under_deep_queues(
        seed in 0u64..1_000,
        rate in 100u32..400,
        samples in 10usize..30,
    ) {
        let spec = ArrivalSpec {
            per_hour: rate as f64,
            seed,
        };
        let (fcfs_sim, w) = heavy_setup(29);
        let fcfs = run_scheduled(&fcfs_sim, &w, &Fcfs, &SchedConfig::new(spec, samples));
        let (batch_sim, _) = heavy_setup(29);
        let batch = run_scheduled(
            &batch_sim,
            &w,
            &BatchByTape,
            &SchedConfig::new(spec, samples),
        );
        // Coalescing does not dominate mount-for-mount at shallow queue
        // depths: merging requests shifts when drives free up, and the
        // changed interleaving can cost extra exchanges on sparse streams
        // (observed 123-vs-122 and 67-vs-64 at 10-60 req/h, both
        // reproduced on the pre-fault engine — a property of the policy,
        // not a regression). The subsystem's documented claim (DESIGN §9)
        // is the deep-queue one: FCFS mount counts are rate-independent
        // while batching coalesces more as queues deepen, so at high
        // arrival rates batching mounts strictly fewer tapes.
        prop_assert!(
            batch.metrics.mounts() < fcfs.metrics.mounts(),
            "batching did not mount fewer under load: {} vs {}",
            batch.metrics.mounts(),
            fcfs.metrics.mounts()
        );
    }

    #[test]
    fn faults_conserve_requests_and_audit_clean(
        seed in 0u64..1_000,
        fault_seed in 0u64..1_000,
        intensity_tenths in 1u32..40,
        samples in 5usize..20,
        replicate in any::<bool>(),
    ) {
        let spec = ArrivalSpec { per_hour: 25.0, seed };
        let fspec = FaultSpec::moderate(fault_seed)
            .scaled(intensity_tenths as f64 / 10.0);
        for kind in PolicyKind::ALL {
            let (sim, w, alternates) = faulty_setup(17, replicate);
            let plan = FaultPlan::generate(&fspec, &paper_table1());
            let out = run_scheduled_faulty(
                &sim,
                &w,
                kind.build().as_ref(),
                &SchedConfig::new(spec, samples).with_audit(true),
                &plan,
                &alternates,
            );
            prop_assert_eq!(
                out.metrics.served() + out.metrics.lost(),
                samples as u64,
                "{} violated served-or-lost conservation",
                kind.label()
            );
            prop_assert!(
                out.is_clean(),
                "{} produced a dirty trace under faults",
                kind.label()
            );
        }
    }

    #[test]
    fn zero_fault_plan_is_bit_identical_to_fault_free(
        seed in 0u64..1_000,
        samples in 5usize..20,
    ) {
        let spec = ArrivalSpec { per_hour: 20.0, seed };
        let plan = FaultPlan::zero(&paper_table1());
        for kind in PolicyKind::ALL {
            let (sim, w) = heavy_setup(17);
            let base = run_scheduled(
                &sim,
                &w,
                kind.build().as_ref(),
                &SchedConfig::new(spec, samples),
            );
            let (sim2, _) = heavy_setup(17);
            let out = run_scheduled_faulty(
                &sim2,
                &w,
                kind.build().as_ref(),
                &SchedConfig::new(spec, samples),
                &plan,
                &BTreeMap::new(),
            );
            prop_assert_eq!(out.metrics.served(), base.metrics.served());
            prop_assert_eq!(out.metrics.mounts(), base.metrics.mounts());
            prop_assert_eq!(
                out.metrics.avg_wait().to_bits(),
                base.metrics.avg_wait().to_bits()
            );
            prop_assert_eq!(
                out.metrics.avg_sojourn().to_bits(),
                base.metrics.avg_sojourn().to_bits()
            );
            prop_assert_eq!(
                out.metrics.utilisation().to_bits(),
                base.metrics.utilisation().to_bits()
            );
            prop_assert_eq!(out.metrics.lost(), 0);
            prop_assert_eq!(out.metrics.retries(), 0);
            prop_assert_eq!(out.metrics.failovers(), 0);
        }
    }

    /// Family 6: span accounting never yields a negative span. The
    /// accountant derives idle as `makespan − busy − failed`; on any
    /// seed/rate/policy (fault-free and faulty) that remainder — and
    /// every attributed category — must be ≥ 0 on every drive and arm,
    /// with the budget still closing to 1e-6 and overlap ratios in
    /// `[0, 1]`.
    #[test]
    fn span_accounting_never_negative(
        seed in 0u64..1_000,
        rate_tenths in 5u32..400,
        samples in 5usize..25,
        faulty in any::<bool>(),
    ) {
        use tapesim_obs::SpanKind;
        let spec = ArrivalSpec {
            per_hour: rate_tenths as f64 / 10.0,
            seed,
        };
        for kind in PolicyKind::ALL {
            let (sim, w) = heavy_setup(17);
            let cfg = SchedConfig::new(spec, samples).with_obs(true);
            let out = if faulty {
                let plan = FaultPlan::generate(
                    &FaultSpec::moderate(seed),
                    sim.placement().config(),
                );
                run_scheduled_faulty(
                    &sim,
                    &w,
                    kind.build().as_ref(),
                    &cfg,
                    &plan,
                    &BTreeMap::new(),
                )
            } else {
                run_scheduled(&sim, &w, kind.build().as_ref(), &cfg)
            };
            let budget = out.budget.expect("obs on must yield a budget");
            prop_assert!(
                budget.sum_error() < 1e-6,
                "{}: closure error {:.3e}",
                kind.label(),
                budget.sum_error()
            );
            for r in budget.drives.iter().chain(budget.arms.iter()) {
                for sk in SpanKind::ALL {
                    prop_assert!(
                        r.spans.get(sk) >= 0.0,
                        "{}: negative {sk:?} span {:.3e}",
                        kind.label(),
                        r.spans.get(sk)
                    );
                }
            }
            for o in &budget.overlap {
                let ratio = o.ratio();
                prop_assert!(
                    (0.0..=1.0).contains(&ratio),
                    "{}: overlap ratio {ratio} outside [0, 1] (library {})",
                    kind.label(),
                    o.library
                );
            }
        }
    }
}
