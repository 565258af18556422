//! Poisson arrival processes.
//!
//! The single seeded implementation of the exponential inter-arrival
//! stream shared by every queued/scheduled operating mode: both gears of
//! the scheduler (`tapesim-sched`) and the long-running service
//! (`tapesim-serve`) draw their arrival clocks from [`ArrivalProcess`],
//! so "the same arrival spec" means *the same arrival instants* across
//! operating modes.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// A Poisson arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalSpec {
    /// Mean arrivals per hour.
    pub per_hour: f64,
    /// Seed of the inter-arrival stream.
    pub seed: u64,
}

impl ArrivalSpec {
    /// Draws the next exponential inter-arrival gap, seconds.
    pub fn gap<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        -u.ln() * 3600.0 / self.per_hour
    }

    /// Materialises the arrival-time stream for this spec.
    ///
    /// # Panics
    ///
    /// Panics if the arrival rate is not positive.
    pub fn process(self) -> ArrivalProcess {
        ArrivalProcess::new(self)
    }
}

/// The materialised arrival stream: an infinite iterator of strictly
/// increasing absolute arrival times (seconds from t = 0).
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    spec: ArrivalSpec,
    rng: ChaCha12Rng,
    clock: f64,
}

impl ArrivalProcess {
    /// Creates the stream. The RNG seeding (`seed ^ 0x6A1`) is part of the
    /// contract: results keyed by an [`ArrivalSpec`] stay reproducible
    /// across the crates that share it.
    ///
    /// # Panics
    ///
    /// Panics if the arrival rate is not positive.
    pub fn new(spec: ArrivalSpec) -> ArrivalProcess {
        assert!(spec.per_hour > 0.0, "arrival rate must be positive");
        ArrivalProcess {
            spec,
            rng: ChaCha12Rng::seed_from_u64(spec.seed ^ 0x6A1),
            clock: 0.0,
        }
    }

    /// The spec this stream was built from.
    pub fn spec(&self) -> ArrivalSpec {
        self.spec
    }

    /// Advances to and returns the next absolute arrival time, seconds.
    pub fn next_arrival(&mut self) -> f64 {
        self.clock += self.spec.gap(&mut self.rng);
        self.clock
    }
}

impl Iterator for ArrivalProcess {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        Some(self.next_arrival())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let spec = ArrivalSpec {
            per_hour: 6.0,
            seed: 42,
        };
        let a: Vec<f64> = spec.process().take(20).collect();
        let b: Vec<f64> = spec.process().take(20).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn strictly_increasing() {
        let spec = ArrivalSpec {
            per_hour: 60.0,
            seed: 7,
        };
        let times: Vec<f64> = spec.process().take(200).collect();
        for pair in times.windows(2) {
            assert!(pair[0] < pair[1], "{pair:?}");
        }
    }

    #[test]
    fn mean_gap_matches_rate() {
        let spec = ArrivalSpec {
            per_hour: 12.0, // one every 300 s
            seed: 3,
        };
        let n = 20_000;
        let mut process = spec.process();
        let mut last = 0.0;
        let mut sum = 0.0;
        for _ in 0..n {
            let t = process.next_arrival();
            sum += t - last;
            last = t;
        }
        let mean = sum / n as f64;
        assert!((mean - 300.0).abs() < 10.0, "mean gap {mean}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_rate() {
        let _ = ArrivalSpec {
            per_hour: 0.0,
            seed: 0,
        }
        .process();
    }
}
