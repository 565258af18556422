//! `paper-figure`: one figure point of the paper's §6 evaluation.
//!
//! The §6 workload (30 000 objects, 300 requests, Zipf α = 0.3) is placed
//! on 3 × L80 libraries under parallel batch placement (`m = 4`), object
//! probability placement and cluster probability placement, and each
//! placement serves popularity-sampled requests one at a time through
//! [`Simulator`]. Clustering and placement dominate set-up here; the
//! scheduler, auditor and serve layers are not on this path.

use crate::layers::{self, Stream};
use crate::spans::Tracer;
use crate::stats::{beyond, median, percentile, share};
use crate::{digest, peak_rss_mb, repeat_units, Outcome, Run, CYCLE};
use tapesim_model::specs::paper_table1;
use tapesim_model::SystemConfig;
use tapesim_placement::{
    ClusterProbabilityPlacement, ObjectProbabilityPlacement, ParallelBatchPlacement,
    PlacementPolicy,
};
use tapesim_sim::{RequestMetrics, RunMetrics, SeekPolicy, Simulator};
use tapesim_workload::{ArrivalSpec, Workload, WorkloadSpec};

/// Switch drives per library (the paper fixes `m = 4` after Figure 5).
const M: u8 = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests each scheme serves per serving unit. The virtual metrics pool
/// [`CYCLE`] units, so PBP's 99.9th response percentile has twenty samples
/// beyond it.
const SAMPLES: usize = 1_000;
/// The open-loop stream the traced run drives through the scheduler and
/// the service on the PBP placement. The §6 requests are ~200 GB each, so
/// the rate is far below the campaign's.
const TRACE_REQUESTS: usize = 3_000;
const TRACE_RATE_PER_HOUR: f64 = 6.0;

const SEED_ARRIVALS: u64 = 3;
const SEED_SAMPLES: u64 = 100;

struct Setup {
    workload: Workload,
    system: SystemConfig,
    /// PBP first, then OPP and CPP.
    sims: Vec<(&'static str, Simulator)>,
    /// Seconds of each set-up stage, by metric name.
    stages: Vec<(String, f64)>,
}

/// Workload generation, the three `place` calls and simulator
/// construction: everything `setup_s` times.
fn setup(tr: &mut Tracer) -> Result<Setup, String> {
    let mut stages = Vec::new();
    // The §6 workload is the paper's fixed input; `--seed` draws the
    // sampled requests.
    let (workload, secs) = tr.time("workload.generate", || WorkloadSpec::default().generate());
    stages.push(("workload.generate_s".to_string(), secs));
    let system = paper_table1();
    let schemes: [(&str, Box<dyn PlacementPolicy>); 3] = [
        ("pbp", Box::new(ParallelBatchPlacement::with_m(M))),
        ("opp", Box::new(ObjectProbabilityPlacement::default())),
        ("cpp", Box::new(ClusterProbabilityPlacement::default())),
    ];
    let mut sims = Vec::new();
    for (name, policy) in schemes {
        let (placement, secs) = tr.time(&format!("placement.place.{name}"), || {
            policy.place(&workload, &system)
        });
        stages.push((format!("placement.place_s.{name}"), secs));
        let placement = placement.map_err(|e| format!("{name} place failed: {e}"))?;
        placement
            .verify_against(&workload)
            .map_err(|e| format!("{name} placement does not match the workload: {e}"))?;
        let (sim, _) = tr.time("sim.new", || {
            Simulator::with_natural_policy(placement, M).with_seek(SeekPolicy::Greedy)
        });
        sims.push((name, sim));
    }
    Ok(Setup {
        workload,
        system,
        sims,
        stages,
    })
}

/// One serving unit: every scheme serves the same sampled request stream
/// from its start-up mount state. Returns each scheme's request metrics
/// and wall seconds.
fn serve(s: &mut Setup, seed: u64, tr: &mut Tracer) -> (Vec<Vec<RequestMetrics>>, Vec<f64>) {
    let mut all = Vec::new();
    let mut walls = Vec::new();
    for (name, sim) in &mut s.sims {
        let (reqs, secs) = tr.time(&format!("sim.sampled.{name}"), || {
            sim.reset();
            sim.run_sampled_detailed(&s.workload, SAMPLES, seed)
        });
        all.push(reqs);
        walls.push(secs);
    }
    (all, walls)
}

/// Requests one serving unit serves.
fn unit_requests(s: &Setup) -> f64 {
    (SAMPLES * s.sims.len()) as f64
}

/// Simulated results pooled over serving units.
#[derive(Default)]
struct Virtual {
    /// Per scheme, PBP first.
    runs: Vec<RunMetrics>,
    /// PBP response time of every request.
    responses: Vec<f64>,
    events: u64,
}

impl Virtual {
    fn add(&mut self, reqs: &[Vec<RequestMetrics>]) {
        self.runs.resize_with(reqs.len(), RunMetrics::new);
        for (run, r) in self.runs.iter_mut().zip(reqs) {
            r.iter().for_each(|m| run.push(m));
        }
        self.responses.extend(reqs[0].iter().map(|m| m.response));
        self.events += reqs.iter().flatten().map(|m| m.n_events).sum::<u64>();
    }

    fn bandwidth(&self) -> Vec<f64> {
        self.runs
            .iter()
            .map(RunMetrics::avg_bandwidth_mbs)
            .collect()
    }

    fn digest(&self) -> u64 {
        let mut values = self.bandwidth();
        values.extend_from_slice(&self.responses);
        values.push(self.runs[0].avg_switches());
        digest(&values, &[self.events])
    }

    /// The paper's headline result: PBP beats both baselines on effective
    /// bandwidth.
    fn check(&self, out: &mut Outcome) {
        let bw = self.bandwidth();
        out.check(bw[0] > bw[1] && bw[0] > bw[2], || {
            format!(
                "PBP bandwidth {:.3} MB/s does not beat OPP {:.3} and CPP {:.3}",
                bw[0], bw[1], bw[2]
            )
        });
    }
}

pub fn run(run: &Run, tr: &mut Tracer) -> Result<Outcome, String> {
    if run.trace {
        return traced(run, tr);
    }
    let mut out = Outcome::default();
    let mut setup_secs = Vec::new();
    let mut s = None;
    for _ in 0..SETUPS {
        drop(s.take()); // one set-up alive at a time
        let (built, secs) = tr.time("setup", || setup(&mut Tracer::new(false)));
        s = Some(built?);
        setup_secs.push(secs);
    }
    let mut s = s.ok_or("no set-up ran")?;

    let mut v = Virtual::default();
    let mut rates = Vec::new();
    let mut wall_total = 0.0;
    let mut rss = Ok(f64::NAN);
    let units = repeat_units(run, |i| {
        let seed = run.seed_for(SEED_SAMPLES + (i % CYCLE) as u64);
        let (reqs, walls) = serve(&mut s, seed, &mut Tracer::new(false));
        rates.push(unit_requests(&s) / walls.iter().sum::<f64>());
        wall_total += walls.iter().sum::<f64>();
        if i < CYCLE {
            v.add(&reqs);
        }
        let mut unit = Virtual::default();
        unit.add(&reqs);
        // Later units repeat the same work, so the peak after the first
        // cycle is the run's; reading it there keeps allocator noise from
        // extra units out of the figure.
        if i + 1 == CYCLE {
            rss = peak_rss_mb();
        }
        Ok(unit.digest())
    })?;
    v.check(&mut out);
    out.attempted = unit_requests(&s) as u64 * units as u64;
    let n = v.responses.len();
    out.check(beyond(n, 99.9) >= 10, || {
        format!("only {} samples beyond p99.9", beyond(n, 99.9))
    });

    let nan = f64::NAN;
    let pbp = &v.runs[0];
    out.push("setup_s", median(&setup_secs).unwrap_or(nan), "s", SETUPS);
    out.push(
        "requests_per_s",
        unit_requests(&s) * units as f64 / wall_total,
        "1/s",
        rates.len(),
    );
    out.notes.push(format!(
        "unit requests/s over {} units: p10 {:.0} median {:.0} p90 {:.0}",
        rates.len(),
        percentile(&rates, 10.0).unwrap_or(nan),
        median(&rates).unwrap_or(nan),
        percentile(&rates, 90.0).unwrap_or(nan)
    ));
    out.push("peak_rss_mb", rss?, "MB", 1);
    out.push("success_rate", 1.0, "share", n);
    out.push("bandwidth_mbs", pbp.avg_bandwidth_mbs(), "MB/s", n);
    out.push("response_s", pbp.avg_response(), "s", n);
    out.push(
        "sojourn_p50_s",
        percentile(&v.responses, 50.0).unwrap_or(nan),
        "s",
        n,
    );
    out.push(
        "sojourn_p999_s",
        percentile(&v.responses, 99.9).unwrap_or(nan),
        "s",
        n,
    );
    out.push("mounts_per_request", pbp.avg_switches(), "count", n);
    let bw = v.bandwidth();
    out.notes.push(format!(
        "virtual-time digest {:#018x}; mean effective bandwidth MB/s: pbp {:.3} opp {:.3} cpp {:.3}",
        v.digest(),
        bw[0],
        bw[1],
        bw[2]
    ));
    Ok(out)
}

fn traced(run: &Run, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let seed = run.seed_for(SEED_SAMPLES);

    // Untraced serving units first: the reference for tracing overhead.
    let mut s = setup(&mut Tracer::new(false))?;
    let rates: Vec<f64> = (0..layers::REPEATS)
        .map(|_| {
            let (_, walls) = serve(&mut s, seed, &mut Tracer::new(false));
            unit_requests(&s) / walls.iter().sum::<f64>()
        })
        .collect();
    drop(s);

    let span = tr.enter("setup");
    let built = setup(tr);
    let setup_secs = tr.exit(span);
    let mut s = built?;
    let place: f64 = s
        .stages
        .iter()
        .filter(|(n, _)| n.starts_with("placement."))
        .map(|(_, t)| t)
        .sum();
    for (name, secs) in &s.stages {
        out.push(name, *secs, "s", 1);
    }
    out.push(
        "setup.placement_share",
        share(place, setup_secs),
        "share",
        1,
    );
    layers::graph_and_sublists(tr, &mut out, &s.workload, &s.system, M);

    let mut per_scheme = vec![Vec::new(); s.sims.len()];
    let mut traced_rates = Vec::new();
    let mut v = Virtual::default();
    for _ in 0..layers::REPEATS {
        let (reqs, walls) = serve(&mut s, seed, tr);
        for (secs, w) in per_scheme.iter_mut().zip(&walls) {
            secs.push(*w);
        }
        traced_rates.push(unit_requests(&s) / walls.iter().sum::<f64>());
        v = Virtual::default();
        v.add(&reqs);
    }
    v.check(&mut out);
    for ((name, _), secs) in s.sims.iter().zip(&per_scheme) {
        out.push(
            &format!("sim.sampled_s.{name}"),
            median(secs).unwrap_or(f64::NAN),
            "s",
            SAMPLES,
        );
    }
    out.push(
        "sim.switches_per_request",
        v.runs[0].avg_switches(),
        "count",
        SAMPLES,
    );
    let overhead = median(&rates).unwrap_or(f64::NAN) - median(&traced_rates).unwrap_or(f64::NAN);
    out.push(
        "trace.overhead_requests_per_s",
        overhead,
        "1/s",
        rates.len(),
    );

    // The fault, scheduler, auditor and serve layers are not on this
    // workload's path; drive them over the PBP placement so every layer
    // reports, and so the campaign's costs can be read against these.
    let (plan, secs) = layers::fault_plan(tr, &s.system, None);
    out.push("faults.plan_s", secs, "s", 1);
    let stream = Stream {
        arrivals: ArrivalSpec {
            per_hour: TRACE_RATE_PER_HOUR,
            seed: run.seed_for(SEED_ARRIVALS),
        },
        requests: TRACE_REQUESTS,
    };
    let (_, pbp) = &mut s.sims[0];
    let jobs = layers::catalog_and_seek(tr, &mut out, pbp, &s.workload);
    layers::staged_engine(tr, &mut out, pbp, &s.workload, &plan, &stream, &jobs)?;
    out.attempted = ((2 * layers::REPEATS) as f64 * unit_requests(&s)) as u64
        + (5 * layers::REPEATS * TRACE_REQUESTS) as u64;
    Ok(out)
}
