//! Scheduler throughput bench: runs a fixed, deterministic scheduling
//! scenario under every policy × seek policy (the greedy sweep and the
//! exact LTSP DP) and records wall-clock throughput (scheduler events
//! per second) plus p50/p99 request sojourn into `BENCH_sched.json` at
//! the workspace root. The greedy rows are the pre-policy rows,
//! metric-bit unchanged; the exact rows measure what optimal in-tape
//! sequencing buys each scheduling policy.
//!
//! Not a Criterion bench: the point is a machine-readable artifact the CI
//! and later sessions can diff, not a statistical report. Run with
//! `cargo bench -p tapesim-bench --bench sched`.

use serde::Serialize;
use std::time::Instant;
use tapesim_model::specs::paper_table1;
use tapesim_model::Bytes;
use tapesim_placement::{ParallelBatchPlacement, PlacementPolicy};
use tapesim_sched::{run_scheduled, PolicyKind, SchedConfig};
use tapesim_sim::{SeekPolicy, Simulator};
use tapesim_workload::{ArrivalSpec, ObjectSizeSpec, RequestSpec, Workload, WorkloadSpec};

#[derive(Serialize)]
struct PolicyRow {
    policy: &'static str,
    /// In-tape service-order planner ("greedy" = pre-policy default).
    seek: &'static str,
    served: u64,
    mounts: u64,
    events: u64,
    events_per_sec: f64,
    p50_sojourn_s: f64,
    p99_sojourn_s: f64,
    p50_wait_s: f64,
    p99_wait_s: f64,
    wall_ms: f64,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    samples: usize,
    rate_per_hour: f64,
    iterations: u32,
    policies: Vec<PolicyRow>,
}

const SAMPLES: usize = 400;
const RATE_PER_HOUR: f64 = 24.0;
const ITERATIONS: u32 = 5;

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
    let w = workload();
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

    let mut rows = Vec::new();
    // Greedy first keeps the pre-policy rows in their historical slots;
    // the exact-DP sweep appends its rows after them.
    for seek in [SeekPolicy::Greedy, SeekPolicy::ExactDp] {
        let cfg = cfg.with_seek(seek);
        for kind in PolicyKind::ALL {
            let policy = kind.build();
            // Best-of-N wall time: the scenario is deterministic, so the
            // fastest iteration is the least-noisy estimate.
            let mut best = f64::INFINITY;
            let mut metrics = None;
            for _ in 0..ITERATIONS {
                let mut sim = Simulator::with_natural_policy(placement.clone(), 4);
                let t = Instant::now();
                let out = run_scheduled(&mut sim, &w, policy.as_ref(), &cfg);
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
                "{:6} {:7}  {:8} requests  {:>12.0} events/s  p50 sojourn {:>9.1}s  p99 {:>9.1}s  wall {:.2}ms",
                kind.label(),
                seek.label(),
                m.served(),
                events_per_sec,
                m.sojourn_percentile(50.0),
                m.sojourn_percentile(99.0),
                best * 1e3
            );
            rows.push(PolicyRow {
                policy: kind.label(),
                seek: seek.label(),
                served: m.served(),
                mounts: m.mounts(),
                events: m.events(),
                events_per_sec,
                p50_sojourn_s: m.sojourn_percentile(50.0),
                p99_sojourn_s: m.sojourn_percentile(99.0),
                p50_wait_s: m.wait_percentile(50.0),
                p99_wait_s: m.wait_percentile(99.0),
                wall_ms: best * 1e3,
            });
        }
    }

    let report = Report {
        bench: "sched",
        samples: SAMPLES,
        rate_per_hour: RATE_PER_HOUR,
        iterations: ITERATIONS,
        policies: rows,
    };
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_sched.json");
    let pretty = serde_json::to_string_pretty(&report).expect("serialise report");
    std::fs::write(&out, pretty + "\n").expect("write BENCH_sched.json");
    println!("wrote {}", out.display());
}
