//! # tapesim-des
//!
//! A small, deterministic discrete-event simulation (DES) engine.
//!
//! This crate is the execution substrate for the multiple-tape-library
//! simulator used to reproduce *Object Placement in Parallel Tape Storage
//! Systems* (ICPP 2006). It is intentionally generic: nothing in here knows
//! about tapes, drives or robots. The engine provides
//!
//! * [`SimTime`] — a total-ordered, finite simulation clock value,
//! * [`EventQueue`] — a stable priority queue of timestamped events, one
//!   flat heap with each entry's ordering key inline,
//! * [`Scheduler`] / [`World`] — the execution model: a world handles one
//!   event at a time and may schedule further events,
//! * [`Resource`] — a calendar-based FCFS server (used for robot arms),
//! * [`stats`] — lightweight online statistics used by simulations,
//! * [`trace`] / [`audit`] — a typed event transcript ([`Tracer`]) and an
//!   invariant checker over it ([`TraceAuditor`]).
//!
//! ## Determinism
//!
//! Two runs of the same simulation with the same inputs produce identical
//! event orders: ties in time are broken first by an explicit priority and
//! then by insertion order (a monotone sequence number). No wall-clock or
//! ambient randomness is consulted anywhere.
//!
//! ## Example
//!
//! ```
//! use tapesim_des::{Scheduler, SimTime, World};
//!
//! struct Counter {
//!     fired: Vec<(SimTime, u32)>,
//! }
//!
//! impl World for Counter {
//!     type Event = u32;
//!     fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
//!         self.fired.push((now, ev));
//!         if ev < 3 {
//!             sched.schedule_in(SimTime::from_secs(1.0), ev + 1);
//!         }
//!     }
//! }
//!
//! let mut world = Counter { fired: Vec::new() };
//! let mut sched = Scheduler::new();
//! sched.schedule_at(SimTime::ZERO, 0);
//! let end = sched.run(&mut world);
//! assert_eq!(end, SimTime::from_secs(3.0));
//! assert_eq!(world.fired.len(), 4);
//! ```

pub mod audit;
pub mod parallel;
pub mod queue;
pub mod resource;
pub mod scheduler;
pub mod stats;
pub mod time;
pub mod trace;

pub use audit::{AuditReport, AuditStream, TraceAuditor, Violation, ViolationKind};
pub use parallel::{run_windowed, window_barriers, WindowPartition, WindowTrace};
pub use queue::EventQueue;
pub use resource::Resource;
pub use scheduler::{RunOutcome, Scheduler, World};
pub use time::SimTime;
pub use trace::{DriveKey, TapeKey, TraceEntry, TraceEvent, Tracer};
