//! # tapesim-sim
//!
//! The multiple-tape-library simulator (§6 "Simulator" of the ICPP 2006
//! paper), built on the [`tapesim_des`] engine and the [`tapesim_model`]
//! hardware models.
//!
//! Semantics implemented exactly as the paper describes them:
//!
//! * one request in service at a time (restore requests arrive far apart,
//!   so queueing time is zero by assumption); mount state and head
//!   positions persist across requests;
//! * requested objects on mounted tapes are served before those tapes can
//!   be unmounted; tape switches target drives whose mounted tape holds no
//!   outstanding requested objects;
//! * one robot per library (FCFS); robots across libraries and all drives
//!   work independently, without forced synchronisation;
//! * object seek / tape rewind use the linear positioning model; objects on
//!   a tape are served in a seek-optimised order; transfers stream at the
//!   drive's native rate;
//! * the response time of a request is the largest per-drive service time;
//!   the request's seek and transfer times are those of the last-finishing
//!   drive, and its switch time is the residual
//!   `response − (seek + transfer)`;
//! * the effective data retrieval bandwidth of a request is
//!   `requested bytes / response time`.
//!
//! The entry point is [`Simulator`]; switch behaviour (which drives may
//! swap tapes, which mounted tape to evict) is a [`SwitchPolicy`].

pub mod bays;
pub mod catalog;
pub mod engine;
pub mod metrics;
pub mod policy;
pub mod seek_order;
pub mod simulator;

pub use bays::BaySet;
pub use metrics::{RequestMetrics, RunMetrics};
pub use policy::SwitchPolicy;
pub use seek_order::SeekPolicy;
pub use simulator::Simulator;
