//! # tapesim-placement
//!
//! Object placement schemes for parallel tape storage systems — the primary
//! contribution of *Object Placement in Parallel Tape Storage Systems*
//! (ICPP 2006) plus the two prior schemes it is evaluated against.
//!
//! A *placement* maps every object of a workload onto a tape (and a byte
//! offset on that tape) of a [`tapesim_model::SystemConfig`]. The quality of
//! the mapping decides the three components of tape request response time:
//!
//! * **tape switch time** — co-locating co-accessed objects avoids switches;
//!   spreading them across *libraries* parallelises the switches that remain,
//! * **data seek time** — organ-pipe alignment keeps popular objects near
//!   the middle of the tape,
//! * **data transfer time** — spreading a request across *drives*
//!   parallelises the transfer.
//!
//! ## The three schemes
//!
//! | Scheme | Module | Source |
//! |---|---|---|
//! | [`ObjectProbabilityPlacement`] | [`schemes::object_prob`] | Christodoulakis et al., VLDB'97 |
//! | [`ClusterProbabilityPlacement`] | [`schemes::cluster_prob`] | Li & Prabhakar, MSS'02 |
//! | [`ParallelBatchPlacement`] | [`schemes::parallel_batch`] | **this paper, §5** |
//!
//! All three implement [`PlacementPolicy`] and produce a validated
//! [`Placement`]. The supporting algorithms are public: organ-pipe
//! alignment ([`organ_pipe`]), probability-density ordering ([`density`]),
//! capacity-bounded sublist partitioning ([`sublist`]) and the Figure 3
//! greedy zig-zag load balancer ([`balance`]).

pub mod balance;
pub mod density;
pub mod layout;
pub mod online;
pub mod organ_pipe;
pub mod policy;
pub mod schemes;
pub mod sublist;

pub use layout::{Location, Placement, PlacementBuilder, PlacementError, TapeRole};
pub use online::IncrementalPlacer;
pub use policy::PlacementPolicy;
pub use schemes::cluster_prob::ClusterProbabilityPlacement;
pub use schemes::object_prob::ObjectProbabilityPlacement;
pub use schemes::parallel_batch::{ParallelBatchParams, ParallelBatchPlacement};
pub use schemes::Scheme;
