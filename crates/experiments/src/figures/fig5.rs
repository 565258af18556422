//! Figure 5 — effective bandwidth vs. the number of switch drives `m`.
//!
//! Paper finding: a jump from `m = 1` to `m = 2` (a single switch drive
//! serialises every miss), a maximum somewhere in `m ∈ [2, 4]` whose exact
//! position depends on α, and a decline beyond 4 (the always-mounted batch
//! shrinks, pushing more traffic through the robot). Based on this curve
//! the paper fixes `m = 4` for the rest of the evaluation.

use crate::harness::{evaluate, sweep};
use crate::settings::ExperimentSettings;
use tapesim_analysis::{ExperimentResult, Series};
use tapesim_placement::Scheme;

/// α curves shown in the figure.
pub fn alphas() -> Vec<f64> {
    vec![0.1, 0.3, 0.6, 0.9]
}

/// Swept `m` values (`1 ..= d−1`).
pub fn ms(base: &ExperimentSettings) -> Vec<u8> {
    let d = base.system().library.drives;
    (1..d).collect()
}

/// Runs the experiment (parallel batch placement only — `m` is its knob).
pub fn run(base: &ExperimentSettings) -> ExperimentResult {
    let alphas = alphas();
    let ms = ms(base);
    let system = base.system();

    // One workload per α, shared by every `m`: the points of one curve
    // place the same workload, so they share its co-access partition.
    let workloads = sweep(alphas.clone(), |&a| base.with_alpha(a).generate_workload());
    let points: Vec<(usize, u8)> = (0..alphas.len())
        .flat_map(|i| ms.iter().map(move |&m| (i, m)))
        .collect();
    let values = sweep(points, |&(i, m)| {
        let settings = base.with_alpha(alphas[i]).with_m(m);
        evaluate(&settings, &system, &workloads[i], Scheme::ParallelBatch).avg_bandwidth_mbs()
    });

    let mut result = ExperimentResult::new(
        "fig5",
        "Bandwidth vs. number of switch drives m",
        "m (switch drives per library)",
        "bandwidth (MB/s)",
        ms.iter().map(|&m| m as f64).collect(),
    );
    for (i, &alpha) in alphas.iter().enumerate() {
        let ys = values[i * ms.len()..(i + 1) * ms.len()].to_vec();
        result.push_series(Series::new(format!("alpha={alpha}"), ys));
    }
    result.push_note(format!(
        "parallel batch placement only; {} samples per point",
        base.samples
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::quick_settings;

    #[test]
    fn m_one_is_poor_and_a_maximum_exists_before_the_end() {
        let mut s = quick_settings();
        s.samples = 40;
        let r = run(&s);
        assert_eq!(r.x.len(), 7);
        // Full scale shows the sharp m=1→2 jump on every curve (see
        // EXPERIMENTS.md). At the shrunken scale requests touch fewer
        // tapes per library, so the single-switch-drive serialisation is
        // milder; the robust shrunken-scale shapes are:
        //   (i)  on most α curves, some m ≥ 2 clearly beats m = 1,
        //   (ii) the maximum is never at m = d−1 (pinned capacity
        //        exhausted), and the largest m trails the peak.
        let mut m1_clearly_beaten = 0;
        for series in &r.series {
            let ys = &series.values;
            let best_val = ys.iter().cloned().fold(f64::MIN, f64::max);
            let best_idx = ys
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            if best_idx > 0 && best_val > ys[0] * 1.05 {
                m1_clearly_beaten += 1;
            }
            assert!(
                best_idx < ys.len() - 1,
                "{}: maximum at the extreme m ({:?})",
                series.label,
                ys
            );
            assert!(
                *ys.last().unwrap() < best_val,
                "{}: no decline at large m ({ys:?})",
                series.label
            );
        }
        assert!(
            m1_clearly_beaten >= 3,
            "m=1 should be clearly suboptimal on most curves"
        );
    }
}
