//! The canonical streaming demand source.
//!
//! Every queued/scheduled operating mode draws its demand the same way:
//! an arrival instant from the shared [`ArrivalProcess`], then a request
//! rank from the popularity [`RequestSampler`] using the pick RNG
//! (`seed ^ 0x9A3E`). [`RequestStream`] packages that pair-draw order as
//! one seedable iterator so batch runs (`tapesim-sched`) and the
//! long-running service (`tapesim-serve`) provably consume *the same
//! demand stream*: same spec, same `(arrival, rank)` sequence, bit for
//! bit — the precondition for the serve-vs-batch equivalence tests.

use crate::arrivals::{ArrivalProcess, ArrivalSpec};
use crate::sampler::RequestSampler;
use crate::workload::Workload;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Salt of the request-pick RNG — part of the cross-crate
/// reproducibility contract.
pub const PICK_SEED_SALT: u64 = 0x9A3E;

/// An infinite stream of `(arrival_seconds, request_rank)` pairs: the
/// demand one [`ArrivalSpec`] generates against one [`Workload`].
///
/// The draw order per item is fixed — arrival gap first, then rank — so
/// a stream consumed incrementally (a service ingesting one request at a
/// time) yields exactly the sequence a batch run materialises up front.
#[derive(Debug, Clone)]
pub struct RequestStream {
    arrivals: ArrivalProcess,
    sampler: RequestSampler,
    pick_rng: ChaCha12Rng,
}

impl RequestStream {
    /// Creates the stream for `spec` against `workload`'s popularity
    /// profile.
    ///
    /// # Panics
    ///
    /// Panics if the arrival rate is not positive (see
    /// [`ArrivalProcess::new`]).
    pub fn new(spec: ArrivalSpec, workload: &Workload) -> RequestStream {
        RequestStream {
            arrivals: ArrivalProcess::new(spec),
            sampler: workload.request_sampler(),
            pick_rng: ChaCha12Rng::seed_from_u64(spec.seed ^ PICK_SEED_SALT),
        }
    }

    /// Draws the next demand item: absolute arrival time (seconds) and
    /// the sampled request rank. Arrival times are strictly increasing.
    pub fn next_request(&mut self) -> (f64, usize) {
        let at = self.arrivals.next_arrival();
        let rank = self.sampler.sample(&mut self.pick_rng);
        (at, rank)
    }

    /// The arrival spec this stream was built from.
    pub fn spec(&self) -> ArrivalSpec {
        self.arrivals.spec()
    }
}

impl Iterator for RequestStream {
    type Item = (f64, usize);

    fn next(&mut self) -> Option<(f64, usize)> {
        Some(self.next_request())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectSizeSpec;
    use crate::request::RequestSpec;
    use crate::workload::WorkloadSpec;

    fn workload() -> Workload {
        WorkloadSpec {
            objects: 500,
            sizes: ObjectSizeSpec::default(),
            requests: RequestSpec {
                count: 20,
                min_objects: 3,
                max_objects: 6,
                count_shape: 1.0,
                alpha: 0.3,
            },
            seed: 5,
        }
        .generate()
    }

    #[test]
    fn matches_separate_draws_bit_for_bit() {
        // The stream must reproduce the two-stream draw order: arrival
        // from the arrival process, rank from the pick RNG.
        let spec = ArrivalSpec {
            per_hour: 12.0,
            seed: 77,
        };
        let w = workload();
        let mut arrivals = ArrivalProcess::new(spec);
        let sampler = w.request_sampler();
        let mut pick_rng = ChaCha12Rng::seed_from_u64(spec.seed ^ 0x9A3E);

        let mut stream = RequestStream::new(spec, &w);
        for _ in 0..200 {
            let want = (arrivals.next_arrival(), sampler.sample(&mut pick_rng));
            let got = stream.next_request();
            assert_eq!(got.0.to_bits(), want.0.to_bits());
            assert_eq!(got.1, want.1);
        }
    }

    #[test]
    fn strictly_increasing_arrivals() {
        let spec = ArrivalSpec {
            per_hour: 240.0,
            seed: 9,
        };
        let w = workload();
        let mut stream = RequestStream::new(spec, &w);
        let mut last = f64::NEG_INFINITY;
        for _ in 0..1_000 {
            let (at, rank) = stream.next_request();
            assert!(at > last, "{at} after {last}");
            assert!(rank < w.requests().len());
            last = at;
        }
    }
}
