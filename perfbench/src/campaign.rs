//! `campaign` and `campaign-faults`: the exchange-heavy serve campaign.
//!
//! The built-in catalog of `tapesim serve --campaign` (4 000 objects at
//! 8 GB calibration, 80 request templates of 20–30 objects, α = 0.3)
//! overflows the drives' initially mounted capacity, so the sustained
//! stream performs real tape exchanges (~3 mounts per request). It is
//! placed under parallel batch placement (`m = 4`) and served by
//! `tapesim_serve::serve_run` with one shard, audit on, `BatchByTape`
//! batching and open-loop Poisson arrivals at 12/h in virtual time. The
//! faulty variant adds media bad-spots and robot jams, but no drive
//! failures, whose queue melt-down would make the tail unsteady.

use crate::layers::{self, Stream, POLICY};
use crate::spans::Tracer;
use crate::stats::{beyond, error_rate, median, percentile, share};
use crate::{digest, peak_rss_mb, repeat_units, Outcome, Run, CYCLE};
use std::collections::BTreeMap;
use tapesim_faults::{FaultPlan, FaultSpec};
use tapesim_model::specs::paper_table1;
use tapesim_model::{Bytes, SystemConfig};
use tapesim_placement::{
    ClusterProbabilityPlacement, ObjectProbabilityPlacement, ParallelBatchPlacement,
    PlacementPolicy,
};
use tapesim_serve::{serve_run, ServeReport};
use tapesim_sim::{SeekPolicy, Simulator};
use tapesim_workload::{
    ArrivalSpec, ObjectSizeSpec, RequestSpec, RequestStream, Workload, WorkloadSpec,
};

const M: u8 = 4;
/// Arrivals per hour of virtual time: the queue stays stable.
const RATE_PER_HOUR: f64 = 12.0;
/// Requests per serving unit; the virtual metrics pool [`CYCLE`] units.
const REQUESTS: usize = 10_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Requests each scheme serves in the traced run's sampled-service layer.
const TRACE_SAMPLES: usize = 2_000;
/// Expected robot jams over one stream's span, summed over libraries.
const JAMS: f64 = 8.0;

/// The catalog and the fault plan are fixed parts of the modelled system
/// (the seeds `serve --campaign` and `serve --chaos` default to); `--seed`
/// draws the request streams, so runs with different seeds differ only in
/// demand.
const CATALOG_SEED: u64 = 5;
const FAULT_SEED: u64 = 23;
const SEED_SAMPLES: u64 = 14;
const SEED_STREAMS: u64 = 100;

/// The `serve --campaign` demand catalog.
fn catalog() -> Workload {
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
        seed: CATALOG_SEED,
    }
    .generate()
}

/// Media bad-spots (0.5 per tape, a quarter of them beyond the retry
/// budget) and robot jams spread over one stream's virtual span; drives
/// never fail.
fn fault_spec(system: &SystemConfig) -> FaultSpec {
    let span_hours = REQUESTS as f64 / RATE_PER_HOUR;
    FaultSpec {
        drive_mtbf_hours: 0.0,
        jams_per_hour: JAMS / span_hours / system.libraries as f64,
        jam_repair_secs: 120.0,
        bad_spots_per_tape: 0.5,
        horizon_hours: span_hours,
        ..FaultSpec::none(FAULT_SEED)
    }
}

struct Setup {
    workload: Workload,
    system: SystemConfig,
    sim: Simulator,
    plan: FaultPlan,
    /// Seconds of each set-up stage, by metric name.
    stages: Vec<(String, f64)>,
}

/// Catalog generation, the PBP `place` call, fault-plan generation and
/// simulator construction: everything `setup_s` times.
fn setup(faults: bool, tr: &mut Tracer) -> Result<Setup, String> {
    let mut stages = Vec::new();
    let (workload, secs) = tr.time("workload.generate", catalog);
    stages.push(("workload.generate_s".to_string(), secs));
    let system = paper_table1();
    let (placement, secs) = tr.time("placement.place.pbp", || {
        ParallelBatchPlacement::with_m(M).place(&workload, &system)
    });
    stages.push(("placement.place_s.pbp".to_string(), secs));
    let placement = placement.map_err(|e| format!("pbp place failed: {e}"))?;
    placement
        .verify_against(&workload)
        .map_err(|e| format!("pbp placement does not match the catalog: {e}"))?;
    let spec = faults.then(|| fault_spec(&system));
    let (plan, secs) = layers::fault_plan(tr, &system, spec);
    stages.push(("faults.plan_s".to_string(), secs));
    let (sim, _) = tr.time("sim.new", || {
        Simulator::with_natural_policy(placement, M).with_seek(SeekPolicy::Greedy)
    });
    Ok(Setup {
        workload,
        system,
        sim,
        plan,
        stages,
    })
}

/// Demand stream `k` of this run.
fn stream(run: &Run, k: usize) -> Stream {
    Stream {
        arrivals: ArrivalSpec {
            per_hour: RATE_PER_HOUR,
            seed: run.seed_for(SEED_STREAMS + k as u64),
        },
        requests: REQUESTS,
    }
}

/// One serving unit: a whole stream through the service.
fn serve(s: &Setup, stream: &Stream, tr: &mut Tracer) -> (ServeReport, f64) {
    let cfg = layers::serve_config(stream);
    tr.time("serve.run", || {
        serve_run(&s.sim, &s.workload, POLICY, &cfg, &s.plan, &BTreeMap::new())
    })
}

/// Simulated results pooled over serving units.
#[derive(Default)]
struct Virtual {
    /// Sum of per-request effective bandwidths, MB/s.
    bandwidth_sum: f64,
    sojourns: Vec<f64>,
    submitted: u64,
    served: u64,
    lost: u64,
    shed: u64,
    rejected: u64,
    mounts: u64,
    events: u64,
    retries: u64,
}

impl Virtual {
    /// Adds one unit's report; `bytes_by_id[i]` is the size of its `i`-th
    /// submitted request.
    fn add(&mut self, r: &ServeReport, bytes_by_id: &[Bytes]) {
        // Effective bandwidth as the paper defines it, bytes over response
        // time, with the response measured from the arrival instant.
        for rec in &r.records {
            self.bandwidth_sum += bytes_by_id[rec.request].get() as f64 / 1e6 / rec.sojourn_secs();
        }
        self.sojourns.extend_from_slice(r.metrics.sojourn_seconds());
        self.submitted += r.submitted;
        self.served += r.served;
        self.lost += r.lost;
        self.shed += r.shed;
        self.rejected += r.rejected;
        self.mounts += r.metrics.mounts();
        self.events += r.metrics.events();
        self.retries += r.metrics.retries();
    }

    fn error_rate(&self) -> f64 {
        error_rate(self.submitted, self.lost, self.shed, self.rejected)
    }

    fn digest(&self) -> u64 {
        let mut values = vec![self.bandwidth_sum];
        values.extend_from_slice(&self.sojourns);
        digest(
            &values,
            &[
                self.submitted,
                self.served,
                self.lost,
                self.shed,
                self.rejected,
                self.mounts,
                self.events,
                self.retries,
            ],
        )
    }
}

/// Request sizes in submission order, from the same stream the service
/// ingests.
fn request_bytes(w: &Workload, stream: &Stream) -> Vec<Bytes> {
    RequestStream::new(stream.arrivals, w)
        .take(stream.requests)
        .map(|(_, rank)| w.request_bytes(&w.requests()[rank]))
        .collect()
}

/// The fault-free campaign loses nothing; the faulty one must lose some
/// requests, or its fault plan is not being exercised.
fn check_failures(out: &mut Outcome, rate: f64, faults: bool) {
    if faults {
        out.check(rate > 0.0, || {
            "the faulty campaign lost no request".to_string()
        });
    } else {
        out.check(rate == 0.0, || {
            format!("the fault-free campaign has error_rate {rate}")
        });
    }
}

pub fn run(run: &Run, tr: &mut Tracer, faults: bool) -> Result<Outcome, String> {
    if run.trace {
        return traced(run, tr, faults);
    }
    let mut out = Outcome::default();
    let mut setup_secs = Vec::new();
    let mut s = None;
    for _ in 0..SETUPS {
        drop(s.take()); // one set-up alive at a time
        let (built, secs) = tr.time("setup", || setup(faults, &mut Tracer::new(false)));
        s = Some(built?);
        setup_secs.push(secs);
    }
    let s = s.ok_or("no set-up ran")?;
    let streams: Vec<Stream> = (0..CYCLE).map(|k| stream(run, k)).collect();
    let bytes: Vec<Vec<Bytes>> = streams
        .iter()
        .map(|st| request_bytes(&s.workload, st))
        .collect();

    let mut v = Virtual::default();
    let mut rates = Vec::new();
    let (mut served_total, mut wall_total) = (0.0, 0.0);
    let mut rss = Ok(f64::NAN);
    let units = repeat_units(run, |i| {
        let k = i % CYCLE;
        let (report, wall) = serve(&s, &streams[k], &mut Tracer::new(false));
        layers::check_report(&mut out, &report);
        let mut unit = Virtual::default();
        unit.add(&report, &bytes[k]);
        if i < CYCLE {
            v.add(&report, &bytes[k]);
        }
        rates.push(report.served as f64 / wall);
        served_total += report.served as f64;
        wall_total += wall;
        out.failed += report.rejected;
        // Later units repeat the same work, so the peak after the first
        // cycle is the run's; reading it there keeps allocator noise from
        // extra units out of the figure.
        if i + 1 == CYCLE {
            rss = peak_rss_mb();
        }
        Ok(unit.digest())
    })?;
    check_failures(&mut out, v.error_rate(), faults);
    out.attempted = (REQUESTS * units) as u64;
    let n = v.sojourns.len();
    out.check(beyond(n, 99.9) >= 10, || {
        format!("only {} samples beyond p99.9", beyond(n, 99.9))
    });

    let nan = f64::NAN;
    let submitted = v.submitted.max(1) as f64;
    out.push("setup_s", median(&setup_secs).unwrap_or(nan), "s", SETUPS);
    out.push(
        "requests_per_s",
        served_total / wall_total,
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
    out.push(
        "success_rate",
        v.served as f64 / submitted,
        "share",
        v.submitted as usize,
    );
    out.push(
        "bandwidth_mbs",
        v.bandwidth_sum / n.max(1) as f64,
        "MB/s",
        n,
    );
    out.push(
        "response_s",
        v.sojourns.iter().sum::<f64>() / n.max(1) as f64,
        "s",
        n,
    );
    out.push(
        "sojourn_p50_s",
        percentile(&v.sojourns, 50.0).unwrap_or(nan),
        "s",
        n,
    );
    out.push(
        "sojourn_p999_s",
        percentile(&v.sojourns, 99.9).unwrap_or(nan),
        "s",
        n,
    );
    out.push(
        "mounts_per_request",
        v.mounts as f64 / submitted,
        "count",
        v.submitted as usize,
    );
    out.notes.push(format!(
        "virtual-time digest {:#018x}; error_rate {:.6} ({} submitted, {} served, {} lost, {} shed, {} rejected)",
        v.digest(),
        v.error_rate(),
        v.submitted,
        v.served,
        v.lost,
        v.shed,
        v.rejected
    ));
    Ok(out)
}

fn traced(run: &Run, tr: &mut Tracer, faults: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let stream = stream(run, 0);

    // Untraced serving units first: the reference for tracing overhead.
    let s = setup(faults, &mut Tracer::new(false))?;
    let rates: Vec<f64> = (0..layers::REPEATS)
        .map(|_| {
            let (report, wall) = serve(&s, &stream, &mut Tracer::new(false));
            report.served as f64 / wall
        })
        .collect();
    drop(s);

    let span = tr.enter("setup");
    let built = setup(faults, tr);
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

    // The baseline schemes are not on this workload's path; place the
    // catalog under them too so the placement and sampled-service layers
    // report on every workload.
    let seed = run.seed_for(SEED_SAMPLES);
    let (pbp, secs) = tr.time("sim.sampled.pbp", || {
        let r = s.sim.run_sampled(&s.workload, TRACE_SAMPLES, seed);
        s.sim.reset();
        r
    });
    out.push("sim.sampled_s.pbp", secs, "s", TRACE_SAMPLES);
    out.push(
        "sim.switches_per_request",
        pbp.avg_switches(),
        "count",
        TRACE_SAMPLES,
    );
    let baselines: [(&str, Box<dyn PlacementPolicy>); 2] = [
        ("opp", Box::new(ObjectProbabilityPlacement::default())),
        ("cpp", Box::new(ClusterProbabilityPlacement::default())),
    ];
    for (name, policy) in baselines {
        let (placement, secs) = tr.time(&format!("placement.place.{name}"), || {
            policy.place(&s.workload, &s.system)
        });
        out.push(&format!("placement.place_s.{name}"), secs, "s", 1);
        let placement = placement.map_err(|e| format!("{name} place failed: {e}"))?;
        let mut sim = Simulator::with_natural_policy(placement, M).with_seek(SeekPolicy::Greedy);
        let (_, secs) = tr.time(&format!("sim.sampled.{name}"), || {
            sim.run_sampled(&s.workload, TRACE_SAMPLES, seed)
        });
        out.push(&format!("sim.sampled_s.{name}"), secs, "s", TRACE_SAMPLES);
    }
    layers::graph_and_sublists(tr, &mut out, &s.workload, &s.system, M);

    let jobs = layers::catalog_and_seek(tr, &mut out, &s.sim, &s.workload);
    let staged = layers::staged_engine(
        tr,
        &mut out,
        &mut s.sim,
        &s.workload,
        &s.plan,
        &stream,
        &jobs,
    )?;
    let r = &staged.report;
    check_failures(
        &mut out,
        error_rate(r.submitted, r.lost, r.shed, r.rejected),
        faults,
    );
    let traced_rate = r.served as f64 / staged.serve_secs;
    let untraced_rate = median(&rates).unwrap_or(f64::NAN);
    out.push(
        "trace.overhead_requests_per_s",
        untraced_rate - traced_rate,
        "1/s",
        rates.len(),
    );
    out.attempted = ((5 + 1) * layers::REPEATS * REQUESTS + 3 * TRACE_SAMPLES) as u64;
    Ok(out)
}
