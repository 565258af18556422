//! Qualitative reproduction of the paper's evaluation claims on a
//! moderate-size instance (the full-scale numbers live in EXPERIMENTS.md;
//! these tests pin the *shapes* so regressions are caught by `cargo test`).

use tapesim_experiments::figures::quick_settings;
use tapesim_experiments::{evaluate, ExperimentSettings};
use tapesim_placement::Scheme;

fn settings() -> ExperimentSettings {
    let mut s = quick_settings();
    s.samples = 60;
    s
}

#[test]
fn headline_claim_parallel_batch_wins() {
    // §6: "our scheme consistently provides the best performance out of
    // the three schemes" (at the default α = 0.3 operating point).
    let s = settings();
    let system = s.system();
    let w = s.generate_workload();
    let bw: Vec<f64> = Scheme::ALL
        .iter()
        .map(|&sch| evaluate(&s, &system, &w, sch).avg_bandwidth_mbs())
        .collect();
    assert!(
        bw[0] > bw[1] && bw[0] > bw[2],
        "pbp {:.1} vs opp {:.1} / cpp {:.1}",
        bw[0],
        bw[1],
        bw[2]
    );
}

#[test]
fn figure9_component_profile() {
    // OPP: switch-dominated, best transfer. CPP: transfer-dominated.
    // Seek: minor for everyone.
    let s = settings();
    let system = s.system();
    let w = s.generate_workload();
    let runs: Vec<_> = Scheme::ALL
        .iter()
        .map(|&sch| evaluate(&s, &system, &w, sch))
        .collect();
    let (pbp, opp, cpp) = (&runs[0], &runs[1], &runs[2]);

    assert!(
        opp.avg_switch() > pbp.avg_switch() && opp.avg_switch() > cpp.avg_switch(),
        "OPP switch time must be the worst"
    );
    assert!(
        opp.avg_switch() > opp.avg_transfer(),
        "OPP switch must dominate its own transfer"
    );
    assert!(
        opp.avg_transfer() < pbp.avg_transfer() && opp.avg_transfer() < cpp.avg_transfer(),
        "OPP transfer time must be the best"
    );
    assert!(
        cpp.avg_transfer() > cpp.avg_switch() + cpp.avg_seek(),
        "CPP must be transfer-dominated"
    );
    for r in &runs {
        assert!(
            r.avg_seek() < 0.3 * r.avg_response(),
            "seek must stay minor"
        );
    }
}

#[test]
fn figure5_m_has_an_interior_optimum() {
    let s = settings();
    let system = s.system();
    let w = s.generate_workload();
    let bw: Vec<f64> = (1..8u8)
        .map(|m| {
            let s = s.with_m(m);
            evaluate(&s, &system, &w, Scheme::ParallelBatch).avg_bandwidth_mbs()
        })
        .collect();
    // Some m >= 2 clearly beats m = 1 (single switch drive serialises
    // misses), and the optimum is interior: never the extreme m = d-1,
    // which exhausts the always-mounted capacity.
    let (best, best_val) = bw
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, &v)| (i, v))
        .unwrap();
    assert!(
        best >= 1 && best_val > bw[0] * 1.05,
        "no m clearly beats m=1: {bw:?}"
    );
    assert!(best < 6, "optimum must be interior: {bw:?}");
    assert!(bw[6] < best_val, "no decline at the extreme m: {bw:?}");
}

#[test]
fn figure6_alpha_trends() {
    // Skew helps PBP; CPP stays flat-ish.
    let s = settings();
    let system = s.system();
    let eval = |alpha: f64, sch: Scheme| {
        let s = s.with_alpha(alpha);
        let w = s.generate_workload();
        evaluate(&s, &system, &w, sch).avg_bandwidth_mbs()
    };
    let pbp_lo = eval(0.0, Scheme::ParallelBatch);
    let pbp_hi = eval(1.0, Scheme::ParallelBatch);
    assert!(
        pbp_hi > pbp_lo,
        "PBP must gain from skew: {pbp_lo} → {pbp_hi}"
    );

    let cpp_lo = eval(0.0, Scheme::ClusterProbability);
    let cpp_hi = eval(1.0, Scheme::ClusterProbability);
    let cpp_gain = cpp_hi / cpp_lo;
    let pbp_gain = pbp_hi / pbp_lo;
    assert!(
        pbp_gain > cpp_gain,
        "skew must favour PBP ({pbp_gain:.2}×) over CPP ({cpp_gain:.2}×)"
    );
}

#[test]
fn figure8_library_scaling() {
    let base = settings().with_tapes_per_library(240);
    let eval = |n: u16, sch: Scheme| {
        let s = base.with_libraries(n);
        let system = s.system();
        let w = s.generate_workload();
        evaluate(&s, &system, &w, sch).avg_bandwidth_mbs()
    };
    let pbp1 = eval(1, Scheme::ParallelBatch);
    let pbp4 = eval(4, Scheme::ParallelBatch);
    assert!(
        pbp4 > pbp1 * 1.4,
        "PBP must scale with libraries: {pbp1} → {pbp4}"
    );

    let cpp1 = eval(1, Scheme::ClusterProbability);
    let cpp4 = eval(4, Scheme::ClusterProbability);
    assert!(
        (cpp4 / cpp1) < (pbp4 / pbp1),
        "CPP scaling ({:.2}×) must trail PBP scaling ({:.2}×)",
        cpp4 / cpp1,
        pbp4 / pbp1
    );
}

#[test]
fn extreme_all_mounted_case() {
    // §6: when everything fits the startup-mounted tapes, OPP has the
    // lowest response (pure seek optimisation) and no scheme exchanges a
    // single tape.
    let mut s = settings();
    let system = s.system();
    // Shrink objects until the n×d startup-mounted tapes hold everything.
    let nd_bytes = system.library.tape.capacity.get() * system.total_drives() as u64;
    let per_request = (nd_bytes as f64 * 0.85 / s.workload.objects as f64
        * ((s.workload.requests.min_objects + s.workload.requests.max_objects) as f64 / 2.0))
        as u64;
    s.workload = s
        .workload
        .with_target_request_size(tapesim_model::Bytes(per_request));
    let w = s.generate_workload();
    let runs: Vec<_> = Scheme::ALL
        .iter()
        .map(|&sch| evaluate(&s, &system, &w, sch))
        .collect();
    for (scheme, r) in Scheme::ALL.iter().zip(&runs) {
        assert!(
            r.avg_switches() < 0.5,
            "{}: {} exchanges in the all-mounted case",
            scheme.label(),
            r.avg_switches()
        );
    }
    let (pbp, opp, cpp) = (&runs[0], &runs[1], &runs[2]);
    assert!(
        opp.avg_response() <= pbp.avg_response() && opp.avg_response() <= cpp.avg_response(),
        "OPP must have the lowest all-mounted response: opp {:.1} pbp {:.1} cpp {:.1}",
        opp.avg_response(),
        pbp.avg_response(),
        cpp.avg_response()
    );
    // Transfer share contrast (paper: ≈62% CPP vs ≈19% PBP).
    let share = |r: &tapesim_sim::RunMetrics| r.avg_transfer() / r.avg_response();
    assert!(
        share(cpp) > 1.3 * share(pbp),
        "CPP transfer share {:.2} must dwarf PBP {:.2}",
        share(cpp),
        share(pbp)
    );
}
