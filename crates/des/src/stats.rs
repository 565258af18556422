//! Online statistics used by simulations.
//!
//! [`Welford`] provides numerically stable streaming mean/variance;
//! [`TimeWeighted`] tracks the time-weighted average of a piecewise-constant
//! signal (e.g. queue depth or the number of busy drives over time);
//! [`Samples`] retains every observation so percentiles (p50/p99 sojourn
//! and the like) can be extracted after the run.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Welford's online algorithm for mean and variance.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A retained-sample accumulator for percentile extraction.
///
/// Unlike [`Welford`] this keeps every observation, trading memory for the
/// ability to answer order-statistic queries (median, p99 tails) exactly.
/// Simulation runs are bounded (a few hundred to a few hundred thousand
/// requests), so retention is cheap; for unbounded streams use [`Welford`].
///
/// Percentile queries sort lazily, once: the first
/// [`Samples::percentile`] after a mutation sorts a copy and caches it,
/// and later queries (p50 then p99 on the same metric, say) reuse the
/// cache. [`Samples::push`]/[`Samples::merge`] invalidate it.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    /// Lazily sorted copy of `values`; reset whenever `values` changes.
    /// Not part of the serialized form (see the hand-written serde impls
    /// below, which mirror what `derive` produced before this field).
    sorted: std::sync::OnceLock<Vec<f64>>,
}

impl serde::Serialize for Samples {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![(
            String::from("values"),
            serde::Serialize::to_value(&self.values),
        )])
    }
}

impl serde::Deserialize for Samples {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let fields = v
            .as_object()
            .ok_or_else(|| serde::Error::expected("object", "Samples"))?;
        let values = match serde::value::field(fields, "values") {
            Some(x) => serde::Deserialize::from_value(x)?,
            None => return Err(serde::Error::missing("values", "Samples")),
        };
        Ok(Samples {
            values,
            sorted: std::sync::OnceLock::new(),
        })
    }
}

impl Samples {
    /// An empty accumulator.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
        self.sorted.take();
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// The `p`-th percentile (`p` in `[0, 100]`) by linear interpolation
    /// between order statistics; NaN when empty. Sorts lazily on first
    /// call after a mutation; repeat queries hit the cached order.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        let sorted = self.sorted.get_or_init(|| {
            let mut sorted = self.values.clone();
            sorted.sort_by(f64::total_cmp);
            sorted
        });
        let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        let at = |i: usize| sorted.get(i).copied().unwrap_or(f64::NAN);
        at(lo) * (1.0 - frac) + at(hi) * frac
    }

    /// Appends all of `other`'s observations.
    pub fn merge(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted.take();
    }

    /// The raw observations, in insertion order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Time-weighted average of a piecewise-constant signal.
#[derive(Debug, Clone, Copy)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    weighted_sum: f64,
    started: bool,
    start_time: SimTime,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// Creates an accumulator; the signal is undefined until the first
    /// [`TimeWeighted::record`].
    pub fn new() -> Self {
        TimeWeighted {
            last_time: SimTime::ZERO,
            last_value: 0.0,
            weighted_sum: 0.0,
            started: false,
            start_time: SimTime::ZERO,
        }
    }

    /// Records that the signal takes `value` from time `at` onwards.
    ///
    /// # Panics
    ///
    /// Debug-panics if `at` precedes the previous record.
    pub fn record(&mut self, at: SimTime, value: f64) {
        if self.started {
            debug_assert!(at >= self.last_time, "TimeWeighted went backwards");
            self.weighted_sum += self.last_value * (at - self.last_time).as_secs();
        } else {
            self.started = true;
            self.start_time = at;
        }
        self.last_time = at;
        self.last_value = value;
    }

    /// Time-weighted mean of the signal over `[start, until]`.
    pub fn mean_until(&self, until: SimTime) -> f64 {
        if !self.started || until <= self.start_time {
            return 0.0;
        }
        let tail = self.last_value * (until.saturating_sub(self.last_time)).as_secs();
        (self.weighted_sum + tail) / (until - self.start_time).as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Direct unbiased variance: sum((x-5)^2)/7 = 32/7
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn welford_empty_is_safe() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert!(w.min().is_nan());
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn samples_percentiles_interpolate() {
        let mut s = Samples::new();
        // Insert shuffled 1..=5 so sorting matters.
        for x in [3.0, 1.0, 5.0, 2.0, 4.0] {
            s.push(x);
        }
        assert_eq!(s.len(), 5);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(50.0), 3.0);
        assert_eq!(s.percentile(100.0), 5.0);
        // p25 interpolates between the 1st and 2nd order statistics.
        assert!((s.percentile(25.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let mut s = Samples::new();
        for x in [40.0, 10.0, 30.0, 20.0] {
            s.push(x);
        }
        assert_eq!(s.percentile(0.0), 10.0);
        assert_eq!(s.percentile(100.0), 40.0);
        assert!((s.percentile(50.0) - 25.0).abs() < 1e-12);
        // p95 of 4 points: rank 2.85 → 30 + 0.85·10
        assert!((s.percentile(95.0) - 38.5).abs() < 1e-12);
    }

    #[test]
    fn summary_of_known_sample() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        let mut s = Samples::new();
        let mut w = Welford::new();
        for x in xs {
            s.push(x);
            w.push(x);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(w.count(), 5);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert!((w.mean() - 3.0).abs() < 1e-12);
        assert!((s.percentile(50.0) - 3.0).abs() < 1e-12);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 5.0);
        assert_eq!(w.min(), 1.0);
        assert_eq!(w.max(), 5.0);
        // Var = (4+1+0+1+4)/4 = 2.5
        assert!((w.stddev() - 2.5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_value_sample() {
        let mut s = Samples::new();
        s.push(7.0);
        for p in [0.0, 50.0, 95.0, 100.0] {
            assert_eq!(s.percentile(p), 7.0, "p{p}");
        }
        assert_eq!(s.mean(), 7.0);
    }

    #[test]
    fn samples_empty_and_merge() {
        let s = Samples::new();
        assert!(s.is_empty());
        assert!(s.percentile(50.0).is_nan());
        assert_eq!(s.mean(), 0.0);

        let mut a = Samples::new();
        a.push(1.0);
        let mut b = Samples::new();
        b.push(3.0);
        a.merge(&b);
        assert_eq!(a.values(), &[1.0, 3.0]);
        assert!((a.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn samples_percentile_cache_invalidates_on_mutation() {
        let mut s = Samples::new();
        for x in [3.0, 1.0, 2.0] {
            s.push(x);
        }
        assert_eq!(s.percentile(100.0), 3.0);
        // Push after a cached query must re-sort.
        s.push(9.0);
        assert_eq!(s.percentile(100.0), 9.0);
        assert_eq!(s.percentile(0.0), 1.0);
        // Merge must invalidate too.
        let mut other = Samples::new();
        other.push(-5.0);
        s.merge(&other);
        assert_eq!(s.percentile(0.0), -5.0);
        // The raw insertion order is untouched by percentile queries.
        assert_eq!(s.values(), &[3.0, 1.0, 2.0, 9.0, -5.0]);
    }

    #[test]
    fn samples_serde_round_trip_ignores_cache() {
        let mut s = Samples::new();
        s.push(2.0);
        s.push(1.0);
        let _ = s.percentile(50.0); // warm the cache pre-serialization
        let v = serde::Serialize::to_value(&s);
        let back: Samples = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back.values(), s.values());
        assert_eq!(back.percentile(100.0), 2.0);
    }

    #[test]
    fn time_weighted_square_wave() {
        let mut tw = TimeWeighted::new();
        tw.record(SimTime::from_secs(0.0), 0.0);
        tw.record(SimTime::from_secs(10.0), 4.0);
        tw.record(SimTime::from_secs(20.0), 0.0);
        // Signal: 0 for 10s, 4 for 10s, 0 for 10s => mean 4/3 over 30s.
        let m = tw.mean_until(SimTime::from_secs(30.0));
        assert!((m - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_before_start() {
        let mut tw = TimeWeighted::new();
        tw.record(SimTime::from_secs(5.0), 1.0);
        assert_eq!(tw.mean_until(SimTime::from_secs(5.0)), 0.0);
        assert!((tw.mean_until(SimTime::from_secs(6.0)) - 1.0).abs() < 1e-12);
    }
}
