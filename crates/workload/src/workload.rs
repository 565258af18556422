//! The complete workload: objects + requests + derived quantities.
//!
//! A [`Workload`] is what placement schemes and the simulator consume. It
//! owns the object population and the pre-defined request set, and computes
//! the derived quantities the paper's algorithms need:
//!
//! * per-object access probability `P(O_i) = Σ_{R ∋ O_i} P(R)` (§5.3 step 1),
//! * per-object probability **density** `P(O_i)/size(O_i)` (§5.3 step 2),
//! * average request size in bytes (the x-axis of Figures 6–9),
//! * the flat co-access partition (§5.1) every clustering placement
//!   starts from, computed once per workload value.

use crate::average::request_linkage_clusters;
use crate::object::{ObjectRecord, ObjectSizeSpec};
use crate::request::{Request, RequestSpec};
use crate::sampler::RequestSampler;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};
use tapesim_model::{Bytes, ObjectId};

/// The co-access cut threshold as a fraction of the *smallest* request
/// probability. At `0.5`, every request's object set merges (its internal
/// pair weights are at least one request probability) and only chance
/// co-occurrence across requests chains clusters together.
pub const THRESHOLD_FRACTION: f64 = 0.5;

/// Generation parameters for a complete workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Number of objects (paper: 30 000).
    pub objects: u32,
    /// Object size distribution.
    pub sizes: ObjectSizeSpec,
    /// Request-set parameters.
    pub requests: RequestSpec,
    /// Master seed; every derived stream is a fixed function of it.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    /// The paper's §6 settings: 30 000 objects, 300 requests of 100–150
    /// objects, α = 0.3, sizes calibrated to a ≈213 GB average request
    /// (the Figure 6 operating point).
    fn default() -> Self {
        let requests = RequestSpec::default();
        // Average request carries ~125 objects; 213 GB / 125 ≈ 1.7 GB.
        let sizes = ObjectSizeSpec::default().calibrated(Bytes::mb(1704));
        WorkloadSpec {
            objects: 30_000,
            sizes,
            requests,
            seed: 0x5EED_7A9E,
        }
    }
}

impl WorkloadSpec {
    /// Returns a copy with the Zipf skew replaced.
    pub fn with_alpha(mut self, alpha: f64) -> WorkloadSpec {
        self.requests.alpha = alpha;
        self
    }

    /// Returns a copy with object sizes recalibrated so the *average
    /// request* is `target` bytes (mean object count × mean object size).
    pub fn with_target_request_size(mut self, target: Bytes) -> WorkloadSpec {
        let mean_count = crate::dist::BoundedPareto::new(
            self.requests.min_objects as f64,
            self.requests.max_objects as f64,
            self.requests.count_shape,
        )
        .mean();
        let per_object = Bytes((target.get() as f64 / mean_count).round() as u64);
        self.sizes = self.sizes.calibrated(per_object);
        self
    }

    /// Generates the workload deterministically from the spec.
    pub fn generate(&self) -> Workload {
        // Independent, documented sub-streams of the master seed: changing α
        // (stream 2's parameters) must not perturb object sizes (stream 1).
        let mut size_rng = ChaCha12Rng::seed_from_u64(self.seed.wrapping_add(0xA11CE));
        let mut req_rng = ChaCha12Rng::seed_from_u64(self.seed.wrapping_add(0xB0B));
        let objects = self.sizes.generate(self.objects, &mut size_rng);
        let requests = self.requests.generate(self.objects, &mut req_rng);
        Workload::new(objects, requests)
    }
}

/// A generated workload: object population plus pre-defined request set.
#[derive(Clone)]
pub struct Workload {
    objects: Vec<ObjectRecord>,
    requests: Vec<Request>,
    /// Memo of [`Workload::co_access_clusters`], filled by its first call.
    /// It is a function of `objects` and `requests` alone, and those never
    /// change: the fields are private and no method takes `&mut self`. So
    /// a clone may share the memo through the `Arc`, and equality and the
    /// serialized form ignore it.
    partition: Arc<OnceLock<Vec<Vec<ObjectId>>>>,
}

/// Why a set of parts is not a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// Object ids must be dense: the object at `position` has id `id`.
    NonDenseId {
        /// Index of the offending object in the population.
        position: usize,
        /// Its id.
        id: ObjectId,
    },
    /// A request names an object outside the population.
    UnknownObject {
        /// The request's rank.
        request: u32,
        /// The missing object.
        object: ObjectId,
    },
    /// A request probability is negative, NaN or infinite.
    BadProbability {
        /// The request's rank.
        request: u32,
        /// Its probability.
        probability: f64,
    },
    /// A non-empty request set whose probabilities do not sum to a
    /// positive finite total: nothing could be sampled from it.
    ProbabilityMass {
        /// The sum of the request probabilities.
        total: f64,
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::NonDenseId { position, id } => {
                write!(
                    f,
                    "object ids must be dense: position {position} holds {id}"
                )
            }
            WorkloadError::UnknownObject { request, object } => {
                write!(f, "request {request} references unknown object {object}")
            }
            WorkloadError::BadProbability {
                request,
                probability,
            } => write!(
                f,
                "request {request} has probability {probability}: \
                 expected a finite number >= 0"
            ),
            WorkloadError::ProbabilityMass { total } => write!(
                f,
                "request probabilities sum to {total}: expected a positive finite total"
            ),
        }
    }
}

impl std::error::Error for WorkloadError {}

impl PartialEq for Workload {
    fn eq(&self, other: &Workload) -> bool {
        self.objects == other.objects && self.requests == other.requests
    }
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("objects", &self.objects)
            .field("requests", &self.requests)
            .finish_non_exhaustive()
    }
}

impl Serialize for Workload {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            (String::from("objects"), self.objects.to_value()),
            (String::from("requests"), self.requests.to_value()),
        ])
    }
}

impl Deserialize for Workload {
    /// Reads the parts and validates them with [`Workload::try_new`].
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let fields = v
            .as_object()
            .ok_or_else(|| serde::Error::expected("object", "Workload"))?;
        let field = |name| {
            serde::value::field(fields, name).ok_or_else(|| serde::Error::missing(name, "Workload"))
        };
        let objects = Deserialize::from_value(field("objects")?)?;
        let requests = Deserialize::from_value(field("requests")?)?;
        Workload::try_new(objects, requests).map_err(|e| serde::Error(e.to_string()))
    }
}

impl Workload {
    /// Assembles a workload from parts (generated or hand-built in tests).
    ///
    /// # Panics
    ///
    /// Panics on any part [`Workload::try_new`] rejects; that returns
    /// the reason as an error instead.
    pub fn new(objects: Vec<ObjectRecord>, requests: Vec<Request>) -> Workload {
        // Panic with the error's message rather than its `Debug` form.
        Workload::try_new(objects, requests)
            .map_err(|e| e.to_string())
            .expect("invalid workload")
    }

    /// Assembles a workload from parts, rejecting ids that are not dense
    /// `0..objects.len()`, requests that reference a missing object, a
    /// probability that is negative, NaN or infinite, and a non-empty
    /// request set whose probabilities do not sum to a positive finite
    /// total.
    pub fn try_new(
        objects: Vec<ObjectRecord>,
        requests: Vec<Request>,
    ) -> Result<Workload, WorkloadError> {
        if let Some((position, o)) = objects.iter().enumerate().find(|(i, o)| o.id.idx() != *i) {
            return Err(WorkloadError::NonDenseId { position, id: o.id });
        }
        for r in &requests {
            if let Some(&object) = r.objects.iter().find(|o| o.idx() >= objects.len()) {
                return Err(WorkloadError::UnknownObject {
                    request: r.rank,
                    object,
                });
            }
            if !(r.probability.is_finite() && r.probability >= 0.0) {
                return Err(WorkloadError::BadProbability {
                    request: r.rank,
                    probability: r.probability,
                });
            }
        }
        let total: f64 = requests.iter().map(|r| r.probability).sum();
        let sampleable = total.is_finite() && total > 0.0;
        if !requests.is_empty() && !sampleable {
            return Err(WorkloadError::ProbabilityMass { total });
        }
        Ok(Workload {
            objects,
            requests,
            partition: Arc::default(),
        })
    }

    /// The object population.
    pub fn objects(&self) -> &[ObjectRecord] {
        &self.objects
    }

    /// The pre-defined requests, most popular first.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Size of one object.
    pub fn size_of(&self, id: ObjectId) -> Bytes {
        self.objects[id.idx()].size
    }

    /// Total bytes across the population.
    pub fn total_bytes(&self) -> Bytes {
        self.objects.iter().map(|o| o.size).sum()
    }

    /// Bytes requested by one request.
    pub fn request_bytes(&self, request: &Request) -> Bytes {
        request.objects.iter().map(|&o| self.size_of(o)).sum()
    }

    /// Unweighted average request size over the pre-defined set.
    pub fn avg_request_bytes(&self) -> Bytes {
        if self.requests.is_empty() {
            return Bytes::ZERO;
        }
        let total: u64 = self
            .requests
            .iter()
            .map(|r| self.request_bytes(r).get())
            .sum();
        Bytes(total / self.requests.len() as u64)
    }

    /// Per-object access probability `P(O_i) = Σ_{R ∋ O_i} P(R)`
    /// (§5.3 step 1). Objects in no request get probability 0.
    pub fn object_probabilities(&self) -> Vec<f64> {
        let mut p = vec![0.0; self.objects.len()];
        for r in &self.requests {
            for o in &r.objects {
                p[o.idx()] += r.probability;
            }
        }
        p
    }

    /// The absolute co-access cut threshold: [`THRESHOLD_FRACTION`] of the
    /// smallest request probability (0 with no requests).
    pub fn co_access_threshold(&self) -> f64 {
        let min_p = self
            .requests
            .iter()
            .map(|r| r.probability)
            .fold(f64::INFINITY, f64::min);
        if min_p.is_finite() {
            min_p * THRESHOLD_FRACTION
        } else {
            0.0
        }
    }

    /// The flat co-access partition (§5.1):
    /// [`average_linkage_clusters`](crate::average_linkage_clusters) of the
    /// [`CoAccessGraph`](crate::CoAccessGraph) at [`Workload::co_access_threshold`]. Every
    /// object is in exactly one cluster; clusters are ordered by smallest
    /// member, members ascending.
    ///
    /// The first call computes it with the same kernel, but fills the
    /// linkage maps row by row from the requests and never builds the
    /// graph; later calls, on this value or a clone of it, return the same
    /// slice.
    pub fn co_access_clusters(&self) -> &[Vec<ObjectId>] {
        self.partition.get_or_init(|| {
            request_linkage_clusters(
                self.objects.len(),
                &self.requests,
                self.co_access_threshold(),
            )
        })
    }

    /// A sampler over the pre-defined requests weighted by popularity.
    ///
    /// # Panics
    ///
    /// Panics if the workload has no requests.
    pub fn request_sampler(&self) -> RequestSampler {
        let weights: Vec<f64> = self.requests.iter().map(|r| r.probability).collect();
        RequestSampler::new(&weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec {
            objects: 2_000,
            sizes: ObjectSizeSpec::default(),
            requests: RequestSpec {
                count: 50,
                min_objects: 10,
                max_objects: 20,
                count_shape: 1.0,
                alpha: 0.3,
            },
            seed: 42,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_spec().generate();
        let b = small_spec().generate();
        assert_eq!(a, b);
    }

    #[test]
    fn changing_alpha_keeps_object_sizes() {
        let a = small_spec().generate();
        let b = small_spec().with_alpha(0.9).generate();
        assert_eq!(a.objects(), b.objects(), "size stream independent of α");
        assert_ne!(
            a.requests()[5].probability,
            b.requests()[5].probability,
            "popularity changed"
        );
        // Request *membership* is also preserved (same object choices),
        // which makes α sweeps compare placements on identical requests.
        assert_eq!(a.requests()[5].objects, b.requests()[5].objects);
    }

    #[test]
    fn object_probabilities_sum_to_expected_mass() {
        let w = small_spec().generate();
        let p = w.object_probabilities();
        let total: f64 = p.iter().sum();
        // Each request of k objects contributes k × P(R); the sum equals the
        // popularity-weighted mean request cardinality.
        let expected: f64 = w
            .requests()
            .iter()
            .map(|r| r.probability * r.objects.len() as f64)
            .sum();
        assert!((total - expected).abs() < 1e-9);
    }

    #[test]
    fn target_request_size_calibration() {
        let spec = WorkloadSpec::default().with_target_request_size(Bytes::gb(160));
        let w = spec.generate();
        let avg = w.avg_request_bytes();
        let rel = (avg.get() as f64 - 160e9).abs() / 160e9;
        assert!(rel < 0.1, "avg request {avg} vs 160 GB target");
    }

    #[test]
    fn default_spec_matches_paper_operating_point() {
        let w = WorkloadSpec::default().generate();
        assert_eq!(w.objects().len(), 30_000);
        assert_eq!(w.requests().len(), 300);
        let avg = w.avg_request_bytes().as_gb();
        assert!(
            (190.0..=240.0).contains(&avg),
            "average request {avg:.1} GB should sit near the paper's 213 GB"
        );
    }

    #[test]
    fn serde_round_trip() {
        let w = small_spec().generate();
        let json = serde_json::to_string(&w).unwrap();
        let back: Workload = serde_json::from_str(&json).unwrap();
        assert_eq!(w, back);
    }

    #[test]
    fn clone_and_json_round_trip_share_the_partition() {
        let w = small_spec().generate();
        let clone = w.clone();
        let json = serde_json::to_string(&w).unwrap();
        let back: Workload = serde_json::from_str(&json).unwrap();
        assert_eq!(w, clone);
        assert_eq!(w, back);
        assert_eq!(w.co_access_clusters(), back.co_access_clusters());
        // The clone shares the memo the original just filled.
        assert!(std::ptr::eq(
            w.co_access_clusters(),
            clone.co_access_clusters()
        ));
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn try_new_and_json_reject_malformed_parts() {
        let object = |i| ObjectRecord {
            id: ObjectId(i),
            size: Bytes::mb(1),
        };
        let request = |o| Request {
            rank: 2,
            probability: 1.0,
            objects: vec![ObjectId(0), ObjectId(o)],
        };
        assert_eq!(
            Workload::try_new(vec![object(0), object(7)], vec![]),
            Err(WorkloadError::NonDenseId {
                position: 1,
                id: ObjectId(7)
            })
        );
        assert_eq!(
            Workload::try_new(vec![object(0)], vec![request(3)]),
            Err(WorkloadError::UnknownObject {
                request: 2,
                object: ObjectId(3)
            })
        );
        let empty = Workload::try_new(vec![], vec![]).unwrap();
        assert!(empty.co_access_clusters().is_empty());

        let valid = Workload::new(vec![object(0), object(1)], vec![request(1)]);
        let json = serde_json::to_string(&valid).unwrap();
        let dangling = json.replace("\"objects\":[0,1]", "\"objects\":[0,9]");
        assert_ne!(dangling, json);
        let err = serde_json::from_str::<Workload>(&dangling).unwrap_err();
        assert!(
            err.to_string()
                .contains("request 2 references unknown object"),
            "{err}"
        );
    }

    #[test]
    fn try_new_rejects_unsampleable_probabilities() {
        let objects = || {
            (0..3)
                .map(|i| ObjectRecord {
                    id: ObjectId(i),
                    size: Bytes::mb(1),
                })
                .collect::<Vec<_>>()
        };
        let requests = |ps: &[f64]| {
            ps.iter()
                .enumerate()
                .map(|(rank, &probability)| Request {
                    rank: rank as u32,
                    probability,
                    objects: vec![ObjectId(rank as u32)],
                })
                .collect::<Vec<_>>()
        };
        let bad = |request, probability| {
            Err(WorkloadError::BadProbability {
                request,
                probability,
            })
        };
        assert_eq!(
            Workload::try_new(objects(), requests(&[-0.5, 1.5])),
            bad(0, -0.5)
        );
        assert_eq!(
            Workload::try_new(objects(), requests(&[0.5, f64::INFINITY])),
            bad(1, f64::INFINITY)
        );
        let nan = Workload::try_new(objects(), requests(&[f64::NAN]));
        assert!(
            matches!(nan, Err(WorkloadError::BadProbability { request: 0, probability }) if probability.is_nan()),
            "{nan:?}"
        );
        assert_eq!(
            Workload::try_new(objects(), requests(&[0.0, 0.0])),
            Err(WorkloadError::ProbabilityMass { total: 0.0 })
        );
        assert_eq!(
            Workload::try_new(objects(), requests(&[f64::MAX, f64::MAX])),
            Err(WorkloadError::ProbabilityMass {
                total: f64::INFINITY
            })
        );
        // A zero probability beside a positive one samples fine.
        let w = Workload::try_new(objects(), requests(&[0.0, 0.25])).unwrap();
        assert_eq!(w.request_sampler().len(), 2);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn rejects_non_dense_ids() {
        let objects = vec![ObjectRecord {
            id: ObjectId(5),
            size: Bytes::mb(1),
        }];
        let _ = Workload::new(objects, vec![]);
    }

    #[test]
    #[should_panic(expected = "unknown object")]
    fn rejects_dangling_request() {
        let objects = vec![ObjectRecord {
            id: ObjectId(0),
            size: Bytes::mb(1),
        }];
        let requests = vec![Request {
            rank: 0,
            probability: 1.0,
            objects: vec![ObjectId(3)],
        }];
        let _ = Workload::new(objects, requests);
    }
}
