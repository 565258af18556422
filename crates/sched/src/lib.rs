//! # tapesim-sched
//!
//! A concurrent request-scheduling subsystem for the parallel tape
//! storage simulator: the layer between the workload's arrival stream and
//! the drive-level service engine.
//!
//! The source paper assumes restore requests arrive one by one with long
//! gaps between them (§6), so its simulator serves a single request at a
//! time. Under sustained load that assumption collapses: requests queue,
//! and *which* queued request a freed drive serves next — and whether
//! requests for the same tape share one mount — dominates latency. This
//! crate models that regime:
//!
//! * an **admission queue** holding every outstanding restore request,
//!   decomposed into per-tape jobs by the simulator's catalog;
//! * **per-tape batching** — all queued jobs for a tape ride one mount,
//!   ordered within the tape by the `seek_order` planner;
//! * a **pluggable [`SchedPolicy`]** deciding which tape a freed drive
//!   fetches next: [`Fcfs`] (the paper's one-request-at-a-time model,
//!   an admission gate with a FIFO behind it), [`BatchByTape`] (coalescing,
//!   longest-waiting tape first) and [`SltfTape`]
//!   (shortest-locate/service-time-first);
//! * **per-request metrics with percentiles** ([`SchedMetrics`]) and
//!   optional online trace auditing through `tapesim-des`'s
//!   [`TraceAuditor`] extended invariants for batched service;
//! * **degraded-mode operation** ([`run_scheduled_faulty`]) under a
//!   `tapesim-faults` fault plan: drive failures, robot jams and media
//!   bad-spots with retry, replica failover and availability metrics;
//! * **span time accounting** (`SchedConfig::with_obs`): every run can
//!   carry a `tapesim-obs` [`TimeBudget`] splitting the makespan of each
//!   drive and robot arm into exclusive spans, at zero cost when off.
//!
//! [`TraceAuditor`]: tapesim_des::audit::TraceAuditor

pub mod engine;
pub mod metrics;
pub mod parallel;
pub mod policy;
mod tap;

pub use engine::{
    run_scheduled, run_scheduled_faulty, EngineCheckpoint, MergeOps, OpKey, SchedConfig,
    SchedOutcome, ShardEngine, ShardReport,
};
pub use metrics::{RequestRecord, SchedMetrics};
pub use parallel::{run_scheduled_faulty_parallel, ParallelConfig};
pub use policy::{BatchByTape, Fcfs, PolicyKind, SchedPolicy, SltfTape, TapeCandidate};
pub use tapesim_obs::TimeBudget;
pub use tapesim_sim::catalog::{tape_jobs, TapeJob};
