//! Degraded-mode throughput bench: runs a fixed, deterministic faulty
//! scheduling scenario at increasing fault intensity and records
//! wall-clock throughput (scheduler events per second) plus availability
//! and fault counters into `BENCH_faults.json` at the workspace root.
//!
//! A plain `main` (`harness = false`): the point is a machine-readable
//! artifact CI can diff — did the fault path get slower, and did the
//! availability/loss numbers move? Run with
//! `cargo bench -p tapesim-bench --bench faults`.

use serde::Serialize;
use std::time::Instant;
use tapesim_faults::{FaultPlan, FaultSpec};
use tapesim_model::specs::paper_table1;
use tapesim_model::Bytes;
use tapesim_placement::{ParallelBatchPlacement, PlacementPolicy};
use tapesim_sched::{run_scheduled_faulty, PolicyKind, SchedConfig};
use tapesim_sim::Simulator;
use tapesim_workload::{
    replicate_workload, ArrivalSpec, ObjectSizeSpec, ReplicationSpec, RequestSpec, Workload,
    WorkloadSpec,
};

#[derive(Serialize)]
struct IntensityRow {
    intensity: f64,
    served: u64,
    lost: u64,
    retries: u64,
    failovers: u64,
    availability: f64,
    events: u64,
    events_per_sec: f64,
    p99_sojourn_s: f64,
    wall_ms: f64,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    samples: usize,
    rate_per_hour: f64,
    policy: &'static str,
    fault_seed: u64,
    iterations: u32,
    intensities: Vec<IntensityRow>,
}

const SAMPLES: usize = 400;
const RATE_PER_HOUR: f64 = 24.0;
const ITERATIONS: u32 = 5;
const FAULT_SEED: u64 = 0xBE9C;

fn workload() -> Workload {
    WorkloadSpec {
        objects: 4_000,
        sizes: ObjectSizeSpec::default().calibrated(Bytes::mb(1704)),
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

fn main() {
    let system = paper_table1();
    let base = workload();
    let budget = base.total_bytes().scale(0.05);
    let (w, map) = replicate_workload(&base, ReplicationSpec { budget });
    let alternates = map.alternates();
    let placement = ParallelBatchPlacement::with_m(4)
        .place(&w, &system)
        .expect("placement");
    let cfg = SchedConfig::new(
        ArrivalSpec {
            per_hour: RATE_PER_HOUR,
            seed: 0xD15C,
        },
        SAMPLES,
    );
    let kind = PolicyKind::BatchByTape;
    let policy = kind.build();

    let mut rows = Vec::new();
    for intensity in [0.0, 1.0, 2.0, 4.0] {
        let spec = FaultSpec::moderate(FAULT_SEED).scaled(intensity);
        let plan = FaultPlan::generate(&spec, &system);
        // Best-of-N wall time: the scenario is deterministic, so the
        // fastest iteration is the least-noisy estimate.
        let mut best = f64::INFINITY;
        let mut metrics = None;
        for _ in 0..ITERATIONS {
            let mut sim = Simulator::with_natural_policy(placement.clone(), 4);
            let t = Instant::now();
            let out = run_scheduled_faulty(&mut sim, &w, policy.as_ref(), &cfg, &plan, &alternates);
            let secs = t.elapsed().as_secs_f64();
            if secs < best {
                best = secs;
            }
            metrics = Some(out.metrics);
        }
        let m = metrics.expect("at least one iteration");
        let events_per_sec = if best > 0.0 {
            m.events() as f64 / best
        } else {
            0.0
        };
        println!(
            "x{intensity:<4} {:>4} served {:>3} lost  {:>5} retries {:>4} failovers  \
             avail {:.3}  {:>12.0} events/s  wall {:.2}ms",
            m.served(),
            m.lost(),
            m.retries(),
            m.failovers(),
            m.availability(),
            events_per_sec,
            best * 1e3
        );
        rows.push(IntensityRow {
            intensity,
            served: m.served(),
            lost: m.lost(),
            retries: m.retries(),
            failovers: m.failovers(),
            availability: m.availability(),
            events: m.events(),
            events_per_sec,
            p99_sojourn_s: m.sojourn_percentile(99.0),
            wall_ms: best * 1e3,
        });
    }

    let report = Report {
        bench: "faults",
        samples: SAMPLES,
        rate_per_hour: RATE_PER_HOUR,
        policy: kind.label(),
        fault_seed: FAULT_SEED,
        iterations: ITERATIONS,
        intensities: rows,
    };
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_faults.json");
    let pretty = serde_json::to_string_pretty(&report).expect("serialise report");
    std::fs::write(&out, pretty + "\n").expect("write BENCH_faults.json");
    println!("wrote {}", out.display());
}
