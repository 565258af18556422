//! Hot-path throughput bench: runs one deterministic scheduling scenario
//! (4,000 objects, 80 request templates, Poisson arrivals at 24/h)
//! through the scheduling engine in every mode — FCFS behind its
//! admission gate, the batching scheduler (with and without span time
//! accounting, so the observability overhead is measured in the same
//! run) and the batching scheduler under a fault plan, then the batching
//! scheduler alone on 1-, 2-, 4- and 8-library systems — and records
//! events/sec, allocation counts and wall time into `BENCH_perf.json` at
//! the workspace root.
//!
//! Flags (after `--`):
//!
//! * `--smoke` — fewer samples and iterations; skips rewriting
//!   `BENCH_perf.json` so CI runs never overwrite the committed baseline.
//! * `--check` — read the committed `BENCH_perf.json` and fail (non-zero
//!   exit) if any engine's events/sec dropped more than 30% below it.
//!
//! A plain `main` (`harness = false`): the point is a machine-readable
//! artifact CI can diff. Run with
//! `cargo bench -p tapesim-bench --bench perf`.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;
use tapesim_faults::{FaultPlan, FaultSpec};
use tapesim_model::specs::{paper_table1, paper_table1_with_libraries};
use tapesim_model::Bytes;
use tapesim_placement::{ParallelBatchPlacement, PlacementPolicy};
use tapesim_sched::{run_scheduled, run_scheduled_faulty, BatchByTape, Fcfs, SchedConfig};
use tapesim_sim::Simulator;
use tapesim_workload::{ArrivalSpec, ObjectSizeSpec, RequestSpec, Workload, WorkloadSpec};

/// A counting wrapper around the system allocator, active in this bench
/// binary only. Counts allocation events and requested bytes; frees are
/// not tracked (throughput benches care about allocator pressure, not
/// live size).
#[allow(unsafe_code)]
mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    struct Counting;

    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static COUNTER: Counting = Counting;

    /// Current (allocation count, requested bytes) totals.
    pub fn snapshot() -> (u64, u64) {
        (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        )
    }
}

#[derive(Serialize, Deserialize)]
struct EngineRow {
    engine: String,
    served: u64,
    events: u64,
    events_per_sec: f64,
    allocs: u64,
    alloc_bytes: u64,
    wall_ms: f64,
}

#[derive(Serialize, Deserialize)]
struct Report {
    bench: String,
    samples: usize,
    rate_per_hour: f64,
    iterations: u32,
    engines: Vec<EngineRow>,
    /// Throughput cost of span time accounting: the median of per-round
    /// `sched_obs`/`sched` wall-time ratios, as a percentage (rounds run
    /// the two engines back to back, so each ratio compares like machine
    /// state). Absent in artifacts written before the observability
    /// layer existed.
    #[serde(default)]
    obs_overhead_pct: f64,
    /// `std::thread::available_parallelism()` on the measuring machine —
    /// the context required to read the rows.
    #[serde(default)]
    threads_available: usize,
}

const RATE_PER_HOUR: f64 = 24.0;

/// The committed `sched` row's allocation count before the pooled event
/// queue and flat catalog build landed — the ceiling the bench check
/// enforces against.
const PRE_POOLING_SCHED_ALLOCS: u64 = 1325;

/// The scenario's workload: 4,000 objects, 80 templates of 20–30 objects.
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

/// One engine under measurement: a named run closure over a fresh
/// simulator, plus the best-of-N accumulators.
struct Probe<'a> {
    engine: String,
    run: Box<dyn FnMut(Simulator) -> (u64, u64) + 'a>,
    best: f64,
    best_allocs: u64,
    best_bytes: u64,
    served: u64,
    events: u64,
    /// Wall seconds of every round, in round order. Cross-engine ratios
    /// are computed per round (adjacent runs share the machine state)
    /// and summarised by their median, which is far more noise-robust
    /// than a ratio of two independently-achieved bests.
    rounds: Vec<f64>,
}

impl<'a> Probe<'a> {
    fn new(engine: impl Into<String>, run: impl FnMut(Simulator) -> (u64, u64) + 'a) -> Probe<'a> {
        Probe {
            engine: engine.into(),
            run: Box::new(run),
            best: f64::INFINITY,
            best_allocs: 0,
            best_bytes: 0,
            served: 0,
            events: 0,
            rounds: Vec::new(),
        }
    }
}

/// Median of the per-round wall-time ratios `num[r] / den[r]`, as a
/// percentage above 1 (`3.0` = the numerator engine is 3% slower).
fn median_ratio_pct(num: &[f64], den: &[f64]) -> f64 {
    let mut ratios: Vec<f64> = num
        .iter()
        .zip(den)
        .filter(|&(_, &d)| d > 0.0)
        .map(|(&n, &d)| n / d)
        .collect();
    if ratios.is_empty() {
        return 0.0;
    }
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    let median = if ratios.len() % 2 == 0 {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    } else {
        ratios[mid]
    };
    100.0 * (median - 1.0)
}

/// Best-of-N wall time per engine, with the iterations *interleaved
/// round-robin* across engines: every round runs each engine once, so
/// slow drift of the machine (frequency scaling, thermal state, noisy
/// neighbours) biases every engine equally instead of penalising
/// whichever one happened to run last. Cross-engine ratios such as the
/// observability overhead are only trustworthy under this schedule.
///
/// Each iteration rebuilds its simulator via `setup` *outside* the timed
/// window, so the measurement covers the engine alone. The scenario is
/// deterministic, so the fastest iteration is the least-noisy estimate
/// and every iteration allocates identically.
fn measure_all(
    probes: &mut [Probe<'_>],
    iterations: u32,
    mut setup: impl FnMut() -> Simulator,
) -> Vec<EngineRow> {
    for _ in 0..iterations {
        for probe in probes.iter_mut() {
            let sim = setup();
            let (a0, b0) = alloc_counter::snapshot();
            let t = Instant::now();
            let (s, e) = (probe.run)(sim);
            let secs = t.elapsed().as_secs_f64();
            let (a1, b1) = alloc_counter::snapshot();
            probe.served = s;
            probe.events = e;
            probe.rounds.push(secs);
            if secs < probe.best {
                probe.best = secs;
                probe.best_allocs = a1 - a0;
                probe.best_bytes = b1 - b0;
            }
        }
    }
    probes
        .iter()
        .map(|p| {
            let events_per_sec = if p.best > 0.0 && p.best.is_finite() {
                p.events as f64 / p.best
            } else {
                0.0
            };
            println!(
                "{:<14}  {:>6} served  {:>10} events  {:>12.0} events/s  {:>10} allocs  {:>12} bytes  wall {:.2}ms",
                p.engine,
                p.served,
                p.events,
                events_per_sec,
                p.best_allocs,
                p.best_bytes,
                p.best * 1e3
            );
            EngineRow {
                engine: p.engine.clone(),
                served: p.served,
                events: p.events,
                events_per_sec,
                allocs: p.best_allocs,
                alloc_bytes: p.best_bytes,
                wall_ms: p.best * 1e3,
            }
        })
        .collect()
}

fn baseline_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_perf.json")
}

/// Fails the process if any engine's events/sec dropped more than 30%
/// below the committed baseline artifact.
fn check_regression(current: &Report) {
    let text = match std::fs::read_to_string(baseline_path()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perf --check: cannot read committed BENCH_perf.json: {e}");
            std::process::exit(1);
        }
    };
    let committed: Report = match serde_json::from_str(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perf --check: cannot parse committed BENCH_perf.json: {e}");
            std::process::exit(1);
        }
    };
    let mut failures = Vec::new();
    // The pooled queue and flat catalog build must keep the scheduler's
    // allocation count strictly below the pre-pooling artifact (1325
    // allocations at 400 requests; smoke runs allocate less still).
    match current.engines.iter().find(|r| r.engine == "sched") {
        Some(row) if row.allocs >= PRE_POOLING_SCHED_ALLOCS => failures.push(format!(
            "sched: {} allocs regressed to the pre-pooling level ({})",
            row.allocs, PRE_POOLING_SCHED_ALLOCS
        )),
        Some(_) => {}
        None => failures.push("engine 'sched' missing from this run".to_string()),
    }
    for old in &committed.engines {
        let Some(new) = current.engines.iter().find(|r| r.engine == old.engine) else {
            failures.push(format!("engine '{}' missing from this run", old.engine));
            continue;
        };
        let floor = old.events_per_sec * 0.7;
        if new.events_per_sec < floor {
            failures.push(format!(
                "{}: {:.0} events/s is more than 30% below the committed {:.0}",
                old.engine, new.events_per_sec, old.events_per_sec
            ));
        }
    }
    if failures.is_empty() {
        println!("perf --check: no engine regressed >30% vs committed baseline");
    } else {
        for f in &failures {
            eprintln!("perf --check FAILED: {f}");
        }
        std::process::exit(1);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    let check = argv.iter().any(|a| a == "--check");
    // The runs are milliseconds each, so best-of-many is cheap; a high
    // iteration count is what makes the best-time estimate stable enough
    // to compare engines (and the obs on/off pair) on a shared machine.
    let (samples, iterations) = if smoke { (120, 5) } else { (400, 25) };

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
        samples,
    );
    let fault_plan = FaultPlan::generate(&FaultSpec::moderate(41), &system);
    let no_alternates: BTreeMap<_, _> = BTreeMap::new();

    let fresh_sim = || Simulator::with_natural_policy(placement.clone(), 4);
    let obs_cfg = cfg.with_obs(true);
    let mut probes = vec![
        Probe::new("queued_fcfs", |sim: Simulator| {
            let out = run_scheduled(&sim, &w, &Fcfs, &cfg);
            (out.metrics.served(), out.metrics.events())
        }),
        Probe::new("sched", |sim: Simulator| {
            let out = run_scheduled(&sim, &w, &BatchByTape, &cfg);
            (out.metrics.served(), out.metrics.events())
        }),
        Probe::new("sched_obs", |sim: Simulator| {
            let out = run_scheduled(&sim, &w, &BatchByTape, &obs_cfg);
            let budget = out.budget.expect("obs on");
            assert!(budget.sum_error() < 1e-6, "budget must close in the bench");
            (out.metrics.served(), out.metrics.events())
        }),
        Probe::new("faults", |sim: Simulator| {
            let out =
                run_scheduled_faulty(&sim, &w, &BatchByTape, &cfg, &fault_plan, &no_alternates);
            (out.metrics.served(), out.metrics.events())
        }),
    ];
    let rows = measure_all(&mut probes, iterations, fresh_sim);
    let sched_rounds = std::mem::take(&mut probes[1].rounds);
    let sched_obs_rounds = std::mem::take(&mut probes[2].rounds);
    drop(probes);
    let [queued, sched, sched_obs, faults]: [EngineRow; 4] = rows
        .try_into()
        .unwrap_or_else(|_| unreachable!("four probes produce four rows"));

    assert_eq!(
        (sched.served, sched.events),
        (sched_obs.served, sched_obs.events),
        "span accounting changed the simulation — the observability tap \
         must be a pure reader"
    );
    let obs_overhead_pct = median_ratio_pct(&sched_obs_rounds, &sched_rounds);
    println!(
        "span-accounting overhead (median per-round sched_obs/sched wall ratio): \
         {obs_overhead_pct:.1}%"
    );

    assert!(
        sched.allocs < PRE_POOLING_SCHED_ALLOCS,
        "sched row allocated {} times — the pooled queue and flat catalog \
         build must stay below the pre-pooling {PRE_POOLING_SCHED_ALLOCS}",
        sched.allocs
    );

    // The batching scheduler alone as the library count grows.
    let threads_available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut engines = vec![queued, sched, sched_obs, faults];
    for nlibs in [1u16, 2, 4, 8] {
        let placement_n = ParallelBatchPlacement::with_m(4)
            .place(&w, &paper_table1_with_libraries(nlibs))
            .expect("placement");
        let mut probes = vec![Probe::new(format!("sched_mono_{nlibs}lib"), |sim| {
            let out = run_scheduled(&sim, &w, &BatchByTape, &cfg);
            (out.metrics.served(), out.metrics.events())
        })];
        engines.extend(measure_all(&mut probes, iterations, || {
            Simulator::with_natural_policy(placement_n.clone(), 4)
        }));
    }
    let report = Report {
        bench: "perf".to_string(),
        samples,
        rate_per_hour: RATE_PER_HOUR,
        iterations,
        engines,
        obs_overhead_pct,
        threads_available,
    };

    if check {
        check_regression(&report);
    }
    if smoke {
        println!("smoke mode: BENCH_perf.json left untouched");
    } else {
        let out = baseline_path();
        let pretty = serde_json::to_string_pretty(&report).expect("serialise report");
        std::fs::write(&out, pretty + "\n").expect("write BENCH_perf.json");
        println!("wrote {}", out.display());
    }
}
