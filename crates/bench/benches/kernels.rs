//! Microbenchmarks of the hot kernels under the experiment pipeline:
//! the DES event queue, the alias sampler, co-access graph construction,
//! average-linkage clustering, organ-pipe alignment, zig-zag balancing,
//! seek planning, whole-scheme placement and single-request service.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use std::time::Duration;
use tapesim_cluster::{average_linkage_clusters, ClusterParams, CoAccessGraph};
use tapesim_des::{EventQueue, SimTime};
use tapesim_model::specs::paper_table1;
use tapesim_model::tape::Extent;
use tapesim_model::{Bytes, ObjectId};
use tapesim_placement::balance::{zigzag_assign, TapeBin};
use tapesim_placement::density::density_ranked;
use tapesim_placement::organ_pipe::organ_pipe_order;
use tapesim_placement::{ParallelBatchPlacement, PlacementPolicy};
use tapesim_sim::{seek_order, SeekPolicy, Simulator};
use tapesim_workload::{ObjectSizeSpec, RequestSampler, RequestSpec, Workload, WorkloadSpec};

fn small_workload() -> Workload {
    WorkloadSpec {
        objects: 2_000,
        sizes: ObjectSizeSpec::default().calibrated(Bytes::mb(1704)),
        requests: RequestSpec {
            count: 60,
            min_objects: 20,
            max_objects: 30,
            count_shape: 1.0,
            alpha: 0.3,
        },
        seed: 5,
    }
    .generate()
}

fn event_queue(c: &mut Criterion) {
    c.bench_function("des_event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u32 {
                q.push(SimTime::from_secs(((i * 7919) % 10_007) as f64), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum += v as u64;
            }
            black_box(sum)
        })
    });
}

fn sampler(c: &mut Criterion) {
    let weights: Vec<f64> = (1..=300).map(|r| 1.0 / (r as f64).powf(0.3)).collect();
    c.bench_function("alias_sampler_build_300", |b| {
        b.iter(|| black_box(RequestSampler::new(&weights)))
    });
    let s = RequestSampler::new(&weights);
    let mut rng = {
        use rand::SeedableRng;
        rand_chacha::ChaCha12Rng::seed_from_u64(1)
    };
    c.bench_function("alias_sampler_draw_1k", |b| {
        b.iter(|| black_box(s.sample_many(1000, &mut rng)))
    });
}

fn clustering(c: &mut Criterion) {
    let w = small_workload();
    c.bench_function("coaccess_graph_build", |b| {
        b.iter(|| black_box(CoAccessGraph::from_workload(&w)))
    });
    let g = CoAccessGraph::from_workload(&w);
    let threshold = ClusterParams::default().absolute_threshold(&w);
    c.bench_function("average_linkage", |b| {
        b.iter(|| black_box(average_linkage_clusters(&g, threshold)))
    });
}

fn placement_kernels(c: &mut Criterion) {
    let items: Vec<(u32, f64)> = (0..500).map(|i| (i, 1.0 / (i + 1) as f64)).collect();
    c.bench_function("organ_pipe_500", |b| {
        b.iter(|| black_box(organ_pipe_order(&items)))
    });

    let w = small_workload();
    c.bench_function("density_ranking", |b| {
        b.iter(|| black_box(density_ranked(&w)))
    });

    let ranked = density_ranked(&w);
    let cluster: Vec<_> = ranked.iter().take(120).copied().collect();
    c.bench_function("zigzag_balance_120_over_12", |b| {
        b.iter_batched(
            || {
                (0..12u16)
                    .map(|i| {
                        TapeBin::new(
                            tapesim_model::TapeId::new(tapesim_model::LibraryId(i % 3), i / 3),
                            Bytes::gb(400),
                        )
                    })
                    .collect::<Vec<_>>()
            },
            |mut bins| {
                black_box(zigzag_assign(
                    std::slice::from_ref(&cluster),
                    &mut bins,
                    Bytes::gb(8),
                ))
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("parallel_batch_place_2k_objects", |b| {
        let system = paper_table1();
        b.iter(|| {
            black_box(
                ParallelBatchPlacement::with_m(4)
                    .place(&w, &system)
                    .unwrap(),
            )
        })
    });
}

fn seek_planning(c: &mut Criterion) {
    let extents: Vec<Extent> = (0..12)
        .map(|i| Extent {
            object: ObjectId(i),
            offset: Bytes::gb((i as u64 * 37) % 390),
            size: Bytes::gb(2),
        })
        .collect();
    c.bench_function("seek_plan_12_extents", |b| {
        let mut order = Vec::with_capacity(extents.len());
        b.iter(|| {
            seek_order::plan_with(SeekPolicy::Greedy, Bytes::gb(120), &extents, &mut order);
            black_box(&order);
        })
    });
}

fn request_service(c: &mut Criterion) {
    let system = paper_table1();
    let w = small_workload();
    let placement = ParallelBatchPlacement::with_m(4)
        .place(&w, &system)
        .unwrap();
    c.bench_function("simulator_serve_one_request", |b| {
        let mut sim = Simulator::with_natural_policy(placement.clone(), 4);
        let objects = &w.requests()[10].objects;
        b.iter(|| black_box(sim.serve(objects)))
    });
    c.bench_function("simulator_run_50_sampled", |b| {
        b.iter_batched(
            || Simulator::with_natural_policy(placement.clone(), 4),
            |mut sim| black_box(sim.run_sampled(&w, 50, 3)),
            BatchSize::SmallInput,
        )
    });
}

fn extension_kernels(c: &mut Criterion) {
    let w = small_workload();
    c.bench_function("stripe_transform_width4", |b| {
        b.iter(|| {
            black_box(tapesim_workload::stripe_workload(
                &w,
                tapesim_workload::StripeSpec {
                    width: 4,
                    min_object: Bytes::gb(1),
                },
            ))
        })
    });

    let system = paper_table1();
    let placement = ParallelBatchPlacement::with_m(4)
        .place(&w, &system)
        .unwrap();
    c.bench_function("queued_run_30_requests", |b| {
        b.iter_batched(
            || Simulator::with_natural_policy(placement.clone(), 4),
            |mut sim| {
                let cfg = tapesim_sched::SchedConfig::new(
                    tapesim_workload::ArrivalSpec {
                        per_hour: 4.0,
                        seed: 2,
                    },
                    30,
                );
                black_box(tapesim_sched::run_scheduled(
                    &mut sim,
                    &w,
                    &tapesim_sched::Fcfs,
                    &cfg,
                ))
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("incremental_epoch_advance", |b| {
        let next = tapesim_workload::EvolutionSpec {
            growth: 0.05,
            churn: 0.25,
            new_sizes: tapesim_workload::ObjectSizeSpec::default().calibrated(Bytes::mb(1704)),
            new_requests: tapesim_workload::RequestSpec {
                count: 60,
                min_objects: 20,
                max_objects: 30,
                count_shape: 1.0,
                alpha: 0.3,
            },
            seed: 77,
        }
        .advance(&w);
        b.iter_batched(
            || {
                tapesim_placement::IncrementalPlacer::bootstrap(
                    &w,
                    &system,
                    tapesim_placement::ParallelBatchParams::default(),
                )
                .unwrap()
            },
            |mut placer| black_box(placer.advance(&next).unwrap()),
            BatchSize::SmallInput,
        )
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = event_queue, sampler, clustering, placement_kernels, seek_planning, request_service, extension_kernels
}
criterion_main!(benches);
