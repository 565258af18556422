//! The simulator facade.
//!
//! A [`Simulator`] owns a placement, a switch policy and the persistent
//! mount state, and serves requests one at a time (the §6 operating model:
//! restore requests arrive far apart, so the request queue is always
//! empty). [`Simulator::run_sampled`] reproduces the paper's measurement
//! loop: draw requests from the pre-defined set according to their Zipf
//! popularity and average the metrics (the paper draws 200).

use crate::catalog::{tape_jobs, RequestCatalog, TapeJob};
use crate::engine::{serve_request, MountState};
use crate::metrics::{RequestMetrics, RunMetrics};
use crate::policy::SwitchPolicy;
use crate::seek_order::SeekPolicy;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use tapesim_model::{ObjectId, SystemConfig};
use tapesim_placement::Placement;
use tapesim_workload::Workload;

/// The multiple-tape-library simulator.
pub struct Simulator {
    config: SystemConfig,
    placement: Placement,
    policy: SwitchPolicy,
    seek: SeekPolicy,
    state: MountState,
}

impl Simulator {
    /// Creates a simulator in the startup state (initial mounts applied).
    pub fn new(placement: Placement, policy: SwitchPolicy) -> Simulator {
        let config = *placement.config();
        let state = MountState::new(policy.initial_mounts(&placement, &config));
        Simulator {
            config,
            placement,
            policy,
            seek: SeekPolicy::Greedy,
            state,
        }
    }

    /// Convenience: the natural policy for the placement
    /// ([`SwitchPolicy::for_placement`]) with the given `m`.
    pub fn with_natural_policy(placement: Placement, m: u8) -> Simulator {
        let policy = SwitchPolicy::for_placement(&placement, m);
        Simulator::new(placement, policy)
    }

    /// Builder form of [`Simulator::set_seek`].
    pub fn with_seek(mut self, seek: SeekPolicy) -> Simulator {
        self.seek = seek;
        self
    }

    /// Selects the in-tape service-order planner. The default
    /// ([`SeekPolicy::Greedy`]) reproduces the pre-policy engine bit for
    /// bit; per-tape-local, so switch behaviour and tape selection are
    /// untouched.
    pub fn set_seek(&mut self, seek: SeekPolicy) {
        self.seek = seek;
    }

    /// The active seek policy.
    pub fn seek(&self) -> SeekPolicy {
        self.seek
    }

    /// The placement being simulated.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The active switch policy.
    pub fn policy(&self) -> SwitchPolicy {
        self.policy
    }

    /// Current mount state (for inspection in tests/diagnostics).
    pub fn state(&self) -> &MountState {
        &self.state
    }

    /// Restores the startup mount state.
    pub fn reset(&mut self) {
        self.state = MountState::new(self.policy.initial_mounts(&self.placement, &self.config));
    }

    /// Serves one request for `objects`; mount state persists to the next
    /// call.
    pub fn serve(&mut self, objects: &[ObjectId]) -> RequestMetrics {
        self.serve_jobs(&tape_jobs(&self.placement, objects), false)
            .0
    }

    /// Serves one request and returns the event timeline alongside the
    /// metrics (mounts, exchanges, streams, completions — the
    /// `tapesim serve --trace` view).
    pub fn serve_traced(&mut self, objects: &[ObjectId]) -> (RequestMetrics, tapesim_des::Tracer) {
        self.serve_jobs(&tape_jobs(&self.placement, objects), true)
    }

    /// Serves one request already grouped into tape jobs ([`tape_jobs`]
    /// or a [`RequestCatalog`] over this simulator's placement), with the
    /// event timeline when `trace` is set.
    pub fn serve_jobs(
        &mut self,
        jobs: &[TapeJob],
        trace: bool,
    ) -> (RequestMetrics, tapesim_des::Tracer) {
        serve_request(
            &self.config,
            &self.placement,
            &self.policy,
            &mut self.state,
            jobs,
            trace,
            self.seek,
        )
    }

    /// Serves `samples` requests drawn from `workload`'s pre-defined set by
    /// popularity (deterministic for a given `seed`) and aggregates.
    ///
    /// The sampled runs group each drawn request into tape jobs once per
    /// call (a [`RequestCatalog`]) and serve later draws of the same rank
    /// from it.
    pub fn run_sampled(&mut self, workload: &Workload, samples: usize, seed: u64) -> RunMetrics {
        let mut run = RunMetrics::new();
        for metrics in self.run_sampled_detailed(workload, samples, seed) {
            run.push(&metrics);
        }
        run
    }

    /// Like [`Simulator::run_sampled`], but traces every request and runs
    /// the [`tapesim_des::TraceAuditor`] over each per-request transcript
    /// (the per-request clock restarts at zero, so requests are audited
    /// independently). Returns the aggregate metrics and every audit
    /// report, one per request in service order.
    pub fn run_sampled_audited(
        &mut self,
        workload: &Workload,
        samples: usize,
        seed: u64,
    ) -> (RunMetrics, Vec<tapesim_des::AuditReport>) {
        let sampler = workload.request_sampler();
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut catalog = RequestCatalog::new(workload);
        let auditor = tapesim_des::TraceAuditor::new();
        let mut run = RunMetrics::new();
        let mut reports = Vec::with_capacity(samples);
        for _ in 0..samples {
            let jobs = catalog.jobs(&self.placement, sampler.sample(&mut rng));
            let (metrics, tracer) = self.serve_jobs(jobs, true);
            run.push(&metrics);
            reports.push(auditor.audit(tracer.entries()));
        }
        (run, reports)
    }

    /// Like [`Simulator::run_sampled`], but returns every per-request
    /// measurement — for tail-latency analysis (p95/p99 restore times) and
    /// any custom aggregation.
    pub fn run_sampled_detailed(
        &mut self,
        workload: &Workload,
        samples: usize,
        seed: u64,
    ) -> Vec<RequestMetrics> {
        let sampler = workload.request_sampler();
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut catalog = RequestCatalog::new(workload);
        (0..samples)
            .map(|_| {
                let jobs = catalog.jobs(&self.placement, sampler.sample(&mut rng));
                self.serve_jobs(jobs, false).0
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_model::specs::paper_table1;
    use tapesim_model::Bytes;
    use tapesim_placement::{
        ClusterProbabilityPlacement, ParallelBatchPlacement, PlacementPolicy, Scheme,
    };
    use tapesim_workload::{ObjectSizeSpec, RequestSpec, WorkloadSpec};

    /// A miniature paper-shaped workload that runs fast.
    fn small_workload() -> Workload {
        WorkloadSpec {
            objects: 3_000,
            sizes: ObjectSizeSpec::default().calibrated(Bytes::gb(2)),
            requests: RequestSpec {
                count: 60,
                min_objects: 20,
                max_objects: 30,
                count_shape: 1.0,
                alpha: 0.3,
            },
            seed: 7,
        }
        .generate()
    }

    /// A mid-size paper-shaped workload: 80 request templates, so a run
    /// of a few hundred samples both repeats ranks and leaves some undrawn.
    fn mid_workload() -> Workload {
        WorkloadSpec {
            objects: 6_000,
            sizes: ObjectSizeSpec::default().calibrated(Bytes::gb(2)),
            requests: RequestSpec {
                count: 80,
                min_objects: 20,
                max_objects: 40,
                count_shape: 1.0,
                alpha: 0.3,
            },
            seed: 19,
        }
        .generate()
    }

    fn schemes() -> impl Iterator<Item = (&'static str, Box<dyn PlacementPolicy + Send + Sync>)> {
        Scheme::ALL.into_iter().map(|s| (s.tag(), s.policy(4)))
    }

    const SEEKS: [SeekPolicy; 3] = [SeekPolicy::Greedy, SeekPolicy::ExactDp, SeekPolicy::Approx];

    /// Every field of `m` as raw bits, so a comparison is bit for bit.
    fn bits(m: &RequestMetrics) -> [u64; 9] {
        [
            m.response.to_bits(),
            m.seek.to_bits(),
            m.transfer.to_bits(),
            m.switch.to_bits(),
            m.bytes.get(),
            m.n_tapes as u64,
            m.n_switches as u64,
            m.robot_wait.to_bits(),
            m.n_events,
        ]
    }

    /// The reference for the sampled runs: the same draws, each grouped
    /// afresh and served through [`Simulator::serve_traced`].
    fn serve_each(
        sim: &mut Simulator,
        w: &Workload,
        samples: usize,
        seed: u64,
    ) -> Vec<(RequestMetrics, tapesim_des::Tracer)> {
        let sampler = w.request_sampler();
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        (0..samples)
            .map(|_| sim.serve_traced(&w.requests()[sampler.sample(&mut rng)].objects))
            .collect()
    }

    #[test]
    fn sampled_runs_match_a_per_sample_serve_loop_bit_for_bit() {
        let cfg = paper_table1();
        let w = mid_workload();
        let (samples, seed) = (200, 41);
        for (name, scheme) in schemes() {
            let placement = scheme.place(&w, &cfg).unwrap();
            for seek in SEEKS {
                let fresh = || Simulator::with_natural_policy(placement.clone(), 4).with_seek(seek);
                let mut reference = fresh();
                let expected = serve_each(&mut reference, &w, samples, seed);

                let mut sim = fresh();
                let detailed = sim.run_sampled_detailed(&w, samples, seed);
                assert_eq!(detailed.len(), samples);
                for (i, (got, (want, _))) in detailed.iter().zip(&expected).enumerate() {
                    assert_eq!(bits(got), bits(want), "{name} {seek:?} sample {i}");
                }
                assert_eq!(sim.state(), reference.state(), "{name} {seek:?}");

                let mut audited = fresh();
                let (run, reports) = audited.run_sampled_audited(&w, samples, seed);
                let auditor = tapesim_des::TraceAuditor::new();
                let want_reports: Vec<_> = expected
                    .iter()
                    .map(|(_, tracer)| auditor.audit(tracer.entries()))
                    .collect();
                assert_eq!(reports, want_reports, "{name} {seek:?}");
                let mut want_run = RunMetrics::new();
                expected.iter().for_each(|(m, _)| want_run.push(m));
                for (got, want) in [
                    (run.avg_response(), want_run.avg_response()),
                    (run.avg_bandwidth_mbs(), want_run.avg_bandwidth_mbs()),
                    (run.avg_switches(), want_run.avg_switches()),
                ] {
                    assert_eq!(got.to_bits(), want.to_bits(), "{name} {seek:?}");
                }
                assert_eq!(run.count(), samples as u64);
            }
        }
    }

    #[test]
    fn a_request_listing_an_object_twice_is_served_once_from_the_catalog() {
        let cfg = paper_table1();
        let w = mid_workload();
        // Every request lists its first and last objects a second time.
        let doubled = Workload::new(
            w.objects().to_vec(),
            w.requests()
                .iter()
                .map(|r| {
                    let mut r = r.clone();
                    let (first, last) = (r.objects[0], r.objects[r.objects.len() - 1]);
                    r.objects.insert(1, last);
                    r.objects.push(first);
                    r
                })
                .collect(),
        );
        let (samples, seed) = (150, 8);
        for (name, scheme) in schemes() {
            let placement = scheme.place(&w, &cfg).unwrap();
            let fresh = || Simulator::with_natural_policy(placement.clone(), 4);
            let expected = serve_each(&mut fresh(), &doubled, samples, seed);
            let got = fresh().run_sampled_detailed(&doubled, samples, seed);
            for (i, (got, (want, _))) in got.iter().zip(&expected).enumerate() {
                assert_eq!(bits(got), bits(want), "{name} sample {i}");
            }
            // Duplicates are read once: the doubled stream costs exactly
            // what the plain one does.
            let plain = fresh().run_sampled_detailed(&w, samples, seed);
            for (i, (d, p)) in got.iter().zip(&plain).enumerate() {
                assert_eq!(bits(d), bits(p), "{name} sample {i}");
            }
        }
    }

    #[test]
    fn end_to_end_all_three_schemes() {
        let cfg = paper_table1();
        let w = small_workload();
        for (name, scheme) in schemes() {
            let placement = scheme.place(&w, &cfg).unwrap();
            placement.verify_against(&w).unwrap();
            let mut sim = Simulator::with_natural_policy(placement, 4);
            let run = sim.run_sampled(&w, 40, 99);
            assert_eq!(run.count(), 40, "{name}");
            assert!(run.avg_response() > 0.0, "{name}");
            assert!(run.avg_bandwidth_mbs() > 0.0, "{name}");
            // Sanity: bandwidth cannot exceed the aggregate drive rate.
            let max_mbs = cfg.total_drives() as f64 * 80.0;
            assert!(
                run.avg_bandwidth_mbs() <= max_mbs,
                "{name}: {} > {max_mbs}",
                run.avg_bandwidth_mbs()
            );
            // Decomposition holds on averages.
            assert!(
                (run.avg_switch() + run.avg_seek() + run.avg_transfer() - run.avg_response()).abs()
                    < 1e-6,
                "{name}"
            );
        }
    }

    #[test]
    fn audit_is_clean_for_all_three_schemes() {
        let cfg = paper_table1();
        let w = small_workload();
        for (name, scheme) in schemes() {
            let placement = scheme.place(&w, &cfg).unwrap();
            let mut sim = Simulator::with_natural_policy(placement, 4);
            let (run, reports) = sim.run_sampled_audited(&w, 15, 99);
            assert_eq!(run.count(), 15, "{name}");
            assert_eq!(reports.len(), 15, "{name}");
            for (i, report) in reports.iter().enumerate() {
                assert!(report.is_clean(), "{name} request {i}: {report}");
            }
            assert!(
                reports.iter().any(|r| r.transfers > 0),
                "{name}: audits saw no transfers — tracing is broken"
            );
        }
    }

    #[test]
    fn audit_rejects_a_corrupted_trace() {
        use tapesim_des::{TraceAuditor, TraceEvent, ViolationKind};

        let cfg = paper_table1();
        let w = small_workload();
        let placement = ParallelBatchPlacement::with_m(4).place(&w, &cfg).unwrap();
        let mut sim = Simulator::with_natural_policy(placement, 4);
        let (_, tracer) = sim.serve_traced(&w.requests()[0].objects);
        let mut entries = tracer.entries().to_vec();
        assert!(TraceAuditor::new().audit(&entries).is_clean());

        // Corrupt the trace: duplicate a transfer shifted to start midway
        // through the original window — two overlapping streams on one
        // drive, which no legal schedule can produce.
        let pos = entries
            .iter()
            .position(|e| matches!(e.event, TraceEvent::Transfer { .. }))
            .expect("the request streams at least one transfer");
        let mut forged = entries[pos];
        if let TraceEvent::Transfer { start, finish, .. } = entries[pos].event {
            let midway = start + (finish.saturating_sub(start)) / 2.0;
            forged.time = midway;
            if let TraceEvent::Transfer { start, .. } = &mut forged.event {
                *start = midway;
            }
        }
        entries.insert(pos + 1, forged);

        let report = TraceAuditor::new().audit(&entries);
        assert!(!report.is_clean());
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v.kind, ViolationKind::DriveOverlap { .. })),
            "expected a drive-exclusivity violation: {report}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = paper_table1();
        let w = small_workload();
        let place = || ParallelBatchPlacement::with_m(4).place(&w, &cfg).unwrap();
        let mut sim1 = Simulator::with_natural_policy(place(), 4);
        let mut sim2 = Simulator::with_natural_policy(place(), 4);
        let r1 = sim1.run_sampled(&w, 30, 5);
        let r2 = sim2.run_sampled(&w, 30, 5);
        assert_eq!(r1.avg_response(), r2.avg_response());
        assert_eq!(r1.avg_bandwidth_mbs(), r2.avg_bandwidth_mbs());
    }

    #[test]
    fn reset_restores_startup_state() {
        let cfg = paper_table1();
        let w = small_workload();
        let placement = ParallelBatchPlacement::with_m(4).place(&w, &cfg).unwrap();
        let mut sim = Simulator::with_natural_policy(placement, 4);
        let initial = sim.state().clone();
        sim.run_sampled(&w, 10, 1);
        sim.reset();
        assert_eq!(*sim.state(), initial);
    }

    #[test]
    fn pbp_beats_cpp_on_bandwidth_for_the_default_shape() {
        // The headline qualitative claim on a small instance: parallel
        // batch placement outperforms cluster probability placement, which
        // has no transfer parallelism.
        let cfg = paper_table1();
        let w = small_workload();
        let pbp = ParallelBatchPlacement::with_m(4).place(&w, &cfg).unwrap();
        let cpp = ClusterProbabilityPlacement::default()
            .place(&w, &cfg)
            .unwrap();
        let bw_pbp = Simulator::with_natural_policy(pbp, 4)
            .run_sampled(&w, 60, 3)
            .avg_bandwidth_mbs();
        let bw_cpp = Simulator::with_natural_policy(cpp, 4)
            .run_sampled(&w, 60, 3)
            .avg_bandwidth_mbs();
        assert!(
            bw_pbp > bw_cpp,
            "parallel batch {bw_pbp:.1} MB/s should beat cluster probability {bw_cpp:.1} MB/s"
        );
    }
}
