//! The per-layer breakdown shared by every workload's traced run. Each
//! function wraps the benchmark's own calls into one layer crate's public
//! functions in spans and pushes the layer's metrics.

use std::collections::BTreeMap;

use crate::spans::Tracer;
use crate::stats::{median, share};
use crate::Outcome;
use tapesim_cluster::{average_linkage_clusters, ClusterParams, ClusterSet, CoAccessGraph};
use tapesim_faults::{FaultPlan, FaultSpec};
use tapesim_model::{Bytes, SystemConfig};
use tapesim_placement::density::density_ranked;
use tapesim_placement::sublist::partition_with_clusters;
use tapesim_sched::{
    run_scheduled_faulty_parallel, tape_jobs, ParallelConfig, PolicyKind, SchedConfig, SchedOutcome,
};
use tapesim_serve::{serve_run, ServeConfig, ServeReport};
use tapesim_sim::{seek_order, SeekPolicy, Simulator};
use tapesim_workload::{ArrivalSpec, RequestStream, Workload};

/// An open-loop request stream: Poisson arrivals in virtual time, each
/// request drawn from the workload's templates by popularity.
#[derive(Clone, Copy)]
pub struct Stream {
    pub arrivals: ArrivalSpec,
    pub requests: usize,
}

/// Mount-batching policy of every scheduled run.
pub const POLICY: PolicyKind = PolicyKind::BatchByTape;
/// Worker threads of the parallel engine run: the host has two CPUs.
const PARALLEL_THREADS: usize = 2;
/// Times each traced engine and serve stage runs; the breakdown reports
/// the median.
pub const REPEATS: usize = 3;

/// The service configuration of every serve run: one shard (ingestion
/// thread plus one shard thread), audit on, greedy seek order, eight
/// snapshots. The seek policy is explicit so `TAPESIM_SEEK` is never
/// consulted.
pub fn serve_config(stream: &Stream) -> ServeConfig {
    ServeConfig::new(stream.arrivals, stream.requests)
        .with_shards(1)
        .with_audit(true)
        .with_seek(SeekPolicy::Greedy)
        .with_channel_bound(256)
        .with_snapshot_every((stream.requests / 8).max(1))
}

/// Generates `spec`'s fault plan (the empty plan when `None`).
pub fn fault_plan(
    tr: &mut Tracer,
    system: &SystemConfig,
    spec: Option<FaultSpec>,
) -> (FaultPlan, f64) {
    tr.time("faults.plan", || match spec {
        Some(spec) => FaultPlan::generate(&spec, system),
        None => FaultPlan::zero(system),
    })
}

/// The co-access graph, average linkage, density ranking and sublist
/// partition that parallel batch placement runs inside `place`, called
/// one by one with its parameters (the cluster byte cap aside).
pub fn graph_and_sublists(
    tr: &mut Tracer,
    out: &mut Outcome,
    w: &Workload,
    system: &SystemConfig,
    m: u8,
) {
    let (graph, secs) = tr.time("cluster.graph", || CoAccessGraph::from_workload(w));
    out.push("cluster.graph_s", secs, "s", 1);
    out.push("cluster.graph_edges", graph.n_edges() as f64, "count", 1);

    let threshold = ClusterParams::default().absolute_threshold(w);
    let (clusters, secs) = tr.time("cluster.linkage", || {
        average_linkage_clusters(&graph, threshold)
    });
    out.push("cluster.linkage_s", secs, "s", 1);
    out.push("cluster.clusters", clusters.len() as f64, "count", 1);
    drop(graph);

    let (ranked, secs) = tr.time("placement.density", || density_ranked(w));
    out.push("placement.density_s", secs, "s", 1);

    let membership = ClusterSet::new(clusters, w.objects().len()).membership();
    let (n, d) = (system.libraries as u64, system.library.drives as u64);
    let m = (m as u64).min(d);
    let ct = system.library.tape.capacity.get();
    let first_cap = Bytes(ct * n * (d - m)).scale(0.95);
    let rest_cap = Bytes(ct * n * m).scale(0.95);
    let (sublists, secs) = tr.time("placement.sublist", || {
        partition_with_clusters(&ranked, &membership, first_cap, rest_cap)
    });
    out.push("placement.sublist_s", secs, "s", sublists.len());
}

/// The object index lookup (`tape_jobs`) for every request template, and
/// the in-tape seek plan of each resulting per-tape job from the load
/// point. Returns the job count of each template.
pub fn catalog_and_seek(
    tr: &mut Tracer,
    out: &mut Outcome,
    sim: &Simulator,
    w: &Workload,
) -> Vec<usize> {
    let placement = sim.placement();
    let (catalog, secs) = tr.time("sim.catalog", || {
        w.requests()
            .iter()
            .map(|r| tape_jobs(placement, &r.objects))
            .collect::<Vec<_>>()
    });
    out.push("sim.catalog_s", secs, "s", catalog.len());

    let mut plans = 0usize;
    let mut order = Vec::new();
    let ((), secs) = tr.time("sim.seek_plan", || {
        for job in catalog.iter().flatten() {
            seek_order::plan_with(SeekPolicy::Greedy, Bytes(0), &job.extents, &mut order);
            plans += 1;
        }
    });
    out.push("sim.seek_plans", plans as f64, "count", plans);
    out.push("sim.seek_plan_s", secs, "s", plans);
    catalog.iter().map(Vec::len).collect()
}

/// One engine run of `stream` with an explicit parallel configuration,
/// so `TAPESIM_PARALLEL` and `TAPESIM_THREADS` are never consulted.
fn engine(
    sim: &mut Simulator,
    w: &Workload,
    cfg: &SchedConfig,
    plan: &FaultPlan,
    par: ParallelConfig,
) -> SchedOutcome {
    let policy = POLICY.build();
    run_scheduled_faulty_parallel(sim, w, policy.as_ref(), cfg, plan, &BTreeMap::new(), &par)
}

/// What the staged run hands back to the workload.
pub struct Staged {
    pub report: ServeReport,
    /// Wall seconds of the traced `serve_run`.
    pub serve_secs: f64,
}

/// Draws the stream, runs it through the engine four ways (audit off,
/// audit on, obs on, parallel on) and through `serve_run`, checks that
/// all five agree on served requests, mounts and events, and pushes the
/// `workload.stream`, `sched`, `des`, `obs`, `faults` and `serve` metrics.
pub fn staged_engine(
    tr: &mut Tracer,
    out: &mut Outcome,
    sim: &mut Simulator,
    w: &Workload,
    plan: &FaultPlan,
    stream: &Stream,
    jobs_per_template: &[usize],
) -> Result<Staged, String> {
    let n = stream.requests;
    let (ranks, secs) = tr.time("workload.stream", || {
        let mut s = RequestStream::new(stream.arrivals, w);
        (0..n).map(|_| s.next_request().1).collect::<Vec<_>>()
    });
    out.push("workload.stream_s", secs, "s", n);
    let jobs: usize = ranks.iter().map(|&r| jobs_per_template[r]).sum();

    let base = SchedConfig::new(stream.arrivals, n).with_seek(SeekPolicy::Greedy);
    let variants = [
        ("sched.engine", base, ParallelConfig::off()),
        ("des.audit", base.with_audit(true), ParallelConfig::off()),
        ("obs.accounting", base.with_obs(true), ParallelConfig::off()),
        (
            "des.parallel",
            base,
            ParallelConfig::on().with_threads(PARALLEL_THREADS),
        ),
    ];
    let key = |o: &SchedOutcome| (o.metrics.served(), o.metrics.mounts(), o.metrics.events());
    let mut runs = Vec::new();
    for (name, cfg, par) in variants {
        let mut first: Option<SchedOutcome> = None;
        let mut secs = Vec::new();
        for _ in 0..REPEATS {
            let (o, t) = tr.time(name, || engine(sim, w, &cfg, plan, par));
            secs.push(t);
            let first = first.get_or_insert(o.clone());
            out.check(key(&o) == key(first), || {
                format!("{name} runs of one stream disagree")
            });
        }
        let o = first.ok_or("no engine run")?;
        runs.push((name, o, median(&secs).unwrap_or(f64::NAN)));
    }
    let (_, off, off_secs) = &runs[0];
    for (name, o, _) in &runs[1..] {
        out.check(key(o) == key(off), || {
            format!(
                "{name} run disagrees with the plain engine run: {:?} vs {:?}",
                key(o),
                key(off)
            )
        });
    }
    let audited = &runs[1];
    out.check(
        !audited.1.reports.is_empty() && audited.1.is_clean(),
        || "the audited engine run is not clean".to_string(),
    );
    out.check(runs[2].1.budget.is_some(), || {
        "the obs run returned no time budget".to_string()
    });

    let cfg = serve_config(stream);
    let mut secs = Vec::new();
    let mut report = None;
    for _ in 0..REPEATS {
        let (r, t) = tr.time("serve.run", || {
            serve_run(sim, w, POLICY, &cfg, plan, &BTreeMap::new())
        });
        check_report(out, &r);
        secs.push(t);
        report.get_or_insert(r);
    }
    let report = report.ok_or("no serve run")?;
    let serve_secs = median(&secs).unwrap_or(f64::NAN);
    let served = (
        report.served,
        report.metrics.mounts(),
        report.metrics.events(),
    );
    out.check(served == key(off), || {
        format!(
            "serve_run disagrees with the engine run: {served:?} vs {:?}",
            key(off)
        )
    });

    let m = &off.metrics;
    out.push("sched.engine_s", *off_secs, "s", n);
    out.push("sched.events", m.events() as f64, "count", n);
    out.push("sched.events_per_s", m.events() as f64 / off_secs, "1/s", n);
    out.push("sched.mounts", m.mounts() as f64, "count", n);
    out.push(
        "sched.jobs_per_mount",
        jobs as f64 / m.mounts().max(1) as f64,
        "ratio",
        n,
    );
    out.push("sched.utilisation", m.utilisation(), "share", n);
    out.push("des.audit_s", audited.2 - off_secs, "s", n);
    out.push("des.parallel_speedup", off_secs / runs[3].2, "ratio", n);
    out.push("obs.accounting_s", runs[2].2 - off_secs, "s", n);
    out.push(
        "faults.retries_per_request",
        m.retries() as f64 / n as f64,
        "count",
        n,
    );
    out.push("faults.lost", report.lost as f64, "count", n);
    out.push(
        "faults.read_success_ratio",
        jobs as f64 / (jobs as u64 + m.retries()) as f64,
        "ratio",
        n,
    );
    out.push("serve.run_s", serve_secs, "s", n);
    out.push("serve.overhead_s", serve_secs - audited.2, "s", n);
    out.push("serve.snapshots", report.snapshots.len() as f64, "count", n);
    out.push(
        "serve.engine_share",
        share(*off_secs, serve_secs),
        "share",
        n,
    );
    Ok(Staged { report, serve_secs })
}

/// Every serve run's output checks: each audit is clean, no submission
/// was refused, and every submitted request is served, lost, shed or
/// rejected.
pub fn check_report(out: &mut Outcome, r: &ServeReport) {
    out.check(
        !r.reports.is_empty() && r.reports.iter().all(|a| a.is_clean()),
        || format!("serve run audit is not clean ({} reports)", r.reports.len()),
    );
    out.check(
        r.submitted == r.served + r.lost + r.shed + r.rejected,
        || {
            format!(
                "conservation violated: {} submitted, {} served, {} lost, {} shed, {} rejected",
                r.submitted, r.served, r.lost, r.shed, r.rejected
            )
        },
    );
    out.check(r.rejected == 0, || {
        format!("{} submissions rejected", r.rejected)
    });
}
