//! One benchmark per paper artifact.
//!
//! Each benchmark regenerates its table/figure once at the shrunken
//! "quick" scale — printing the same rows/series the paper reports — and
//! then times the figure's representative evaluation point so regressions
//! in the placement/simulation pipeline show up in `cargo bench`.
//! (Full-scale regeneration is `cargo run --release -p
//! tapesim-experiments --bin <figure>`; its outputs are recorded in
//! EXPERIMENTS.md.)

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Duration;
use tapesim_analysis::Table;
use tapesim_experiments::figures::{
    self, ext_ablation, ext_online, ext_queue, ext_replication, ext_robots, ext_scale,
    ext_striping, ext_tail, ext_technology, fig5, fig6, fig7, fig8, fig9, table1,
};
use tapesim_experiments::{evaluate, ExperimentSettings};
use tapesim_placement::Scheme;

/// Tiny settings for the timed inner loop.
fn bench_settings() -> ExperimentSettings {
    let mut s = figures::quick_settings();
    s.samples = 10;
    s
}

/// Print a figure's series once (not inside the timing loop).
fn print_once(id: &str, render: impl FnOnce() -> String) {
    static PRINTED: OnceLock<std::sync::Mutex<std::collections::HashSet<String>>> = OnceLock::new();
    let set = PRINTED.get_or_init(Default::default);
    if set.lock().unwrap().insert(id.to_string()) {
        println!(
            "\n===== {id} (quick-scale regeneration) =====\n{}",
            render()
        );
    }
}

fn bench_point(c: &mut Criterion, name: &str, settings: ExperimentSettings, scheme: Scheme) {
    let system = settings.system();
    let workload = settings.generate_workload();
    c.bench_function(name, |b| {
        b.iter(|| black_box(evaluate(black_box(&settings), &system, &workload, scheme)))
    });
}

fn figure_benches(c: &mut Criterion) {
    let quick = figures::quick_settings();

    print_once("table1", || table1::run().to_markdown());
    c.bench_function("table1_render", |b| b.iter(|| black_box(table1::run())));

    print_once("fig5", || {
        Table::from_result(&fig5::run(&bench_settings())).to_markdown()
    });
    bench_point(
        c,
        "fig5_point_pbp_m4",
        quick.with_m(4),
        Scheme::ParallelBatch,
    );

    print_once("fig6", || {
        Table::from_result(&fig6::run(&bench_settings())).to_markdown()
    });
    bench_point(
        c,
        "fig6_point_pbp_alpha03",
        quick.with_alpha(0.3),
        Scheme::ParallelBatch,
    );

    print_once("fig7", || {
        Table::from_result(&fig7::run(&bench_settings())).to_markdown()
    });
    bench_point(c, "fig7_point_opp", quick, Scheme::ObjectProbability);

    print_once("fig8", || {
        Table::from_result(&fig8::run(&bench_settings())).to_markdown()
    });
    bench_point(
        c,
        "fig8_point_pbp_1lib",
        quick.with_libraries(1).with_tapes_per_library(240),
        Scheme::ParallelBatch,
    );

    print_once("fig9", || {
        Table::from_result(&fig9::run(&bench_settings())).to_markdown()
    });
    bench_point(c, "fig9_point_cpp", quick, Scheme::ClusterProbability);

    print_once("ext_technology", || {
        Table::from_result(&ext_technology::run(&bench_settings())).to_markdown()
    });
    print_once("ext_scale", || {
        Table::from_result(&ext_scale::run(&bench_settings())).to_markdown()
    });
    print_once("ext_ablation", || {
        Table::from_result(&ext_ablation::run(&bench_settings())).to_markdown()
    });
    print_once("ext_striping", || {
        Table::from_result(&ext_striping::run(&bench_settings())).to_markdown()
    });
    print_once("ext_online", || {
        Table::from_result(&ext_online::run(&bench_settings())).to_markdown()
    });
    print_once("ext_queue", || {
        Table::from_result(&ext_queue::run(&bench_settings())).to_markdown()
    });
    print_once("ext_robots", || {
        Table::from_result(&ext_robots::run(&bench_settings())).to_markdown()
    });
    print_once("ext_tail", || {
        Table::from_result(&ext_tail::run(&bench_settings())).to_markdown()
    });
    print_once("ext_replication", || {
        Table::from_result(&ext_replication::run(&bench_settings())).to_markdown()
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
    targets = figure_benches
}
criterion_main!(benches);
