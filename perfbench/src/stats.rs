//! The benchmark's own arithmetic: order statistics, failure shares and
//! layer shares. Kept apart from the measurement code so the unit tests
//! pin exactly what the reported numbers mean.

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of `values` by linear
/// interpolation between the closest ranks (the "type 7" definition).
/// `None` for an empty sample or a non-finite value.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=100.0).contains(&p) || values.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// How many of `n` samples lie above the rank [`percentile`] interpolates
/// at for `p`: a tail percentile is reported only when at least ten
/// samples lie beyond it.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (p / 100.0 * (n - 1) as f64).floor() as usize;
    n - 1 - rank.min(n - 1)
}

/// The share of submitted requests that did not complete:
/// `(lost + shed + rejected) / submitted`. Zero for an empty run.
pub fn error_rate(submitted: u64, lost: u64, shed: u64, rejected: u64) -> f64 {
    if submitted == 0 {
        0.0
    } else {
        (lost + shed + rejected) as f64 / submitted as f64
    }
}

/// `part / whole`, or zero when `whole` is not positive: a layer's share
/// of an end-to-end time.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_closest_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 50.0), Some(2.5));
        assert_eq!(percentile(&v, 25.0), Some(1.75));
        assert_eq!(percentile(&[7.0], 99.9), Some(7.0));
    }

    #[test]
    fn percentile_rejects_bad_input() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1.0], 101.0), None);
        assert_eq!(percentile(&[1.0, f64::NAN], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }

    #[test]
    fn tail_sample_counts() {
        assert_eq!(beyond(10_000, 99.9), 10);
        assert_eq!(beyond(9_000, 99.9), 9);
        assert_eq!(beyond(100, 50.0), 50);
        assert_eq!(beyond(1, 99.9), 0);
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn error_rate_counts_every_kind_of_miss() {
        assert_eq!(error_rate(0, 0, 0, 0), 0.0);
        assert_eq!(error_rate(100, 0, 0, 0), 0.0);
        assert_eq!(error_rate(100, 2, 1, 1), 0.04);
        assert_eq!(error_rate(4, 4, 0, 0), 1.0);
    }

    #[test]
    fn share_guards_an_empty_whole() {
        assert_eq!(share(1.0, 4.0), 0.25);
        assert_eq!(share(1.0, 0.0), 0.0);
        assert_eq!(share(0.0, -1.0), 0.0);
    }
}
