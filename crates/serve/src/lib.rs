//! # tapesim-serve
//!
//! A long-running, sharded scheduling service over the batch simulator:
//! the substrate for sustained-traffic experiments (TALICS³-style
//! multi-library archival serving) that the one-shot `tapesim sched`
//! runs cannot express.
//!
//! The workspace is offline and shim-only — no async runtime — so the
//! service is a hand-rolled actor system on std threads and bounded
//! mpsc channels:
//!
//! * an **ingestion stage** drawing the canonical seeded demand stream
//!   ([`tapesim_workload::RequestStream`]) and fanning each request out
//!   to the library shards holding its tapes, with explicit
//!   backpressure (bounded `sync_channel`: a slow shard stalls
//!   ingestion, nothing is ever dropped);
//! * **N library shards**, each a thread owning the libraries
//!   `lib % N == shard` and running its own virtual-time event loop — a
//!   [`tapesim_sched::ShardEngine`] over the shard's slice of the job
//!   catalog and of the (globally generated, per-shard restricted)
//!   fault plan;
//! * **snapshot barriers** assembling periodic
//!   [`tapesim_obs::RegistrySnapshot`]s: ingestion broadcasts a tick
//!   every `snapshot_every` submissions, every shard answers with its
//!   registry state at that tick, and the ingestion thread waits for
//!   the round and merges it in shard order — so the snapshot
//!   *sequence* is deterministic, not just the final state;
//! * **clean shutdown**: ingestion closes the shard channels, shards
//!   drain in-flight work ([`ShardEngine::close`] → `finish`), and the
//!   main thread joins everything into one [`ServeReport`].
//!
//! # Supervision ([`supervisor_run`])
//!
//! There is one runtime, and it is supervised; [`serve_run`] is
//! [`supervisor_run`] with an empty chaos plan and no admission
//! control. The ingestion thread is the supervisor: it owns every
//! shard's submission channel and accepted-submission log, injects
//! seeded [`tapesim_faults::ChaosPlan`] kills/stalls as
//! in-band poison messages, detects death via channel disconnect and
//! liveness-tick acknowledgements, and restarts dead shards from a
//! [`tapesim_sched::EngineCheckpoint`] replay after capped-exponential
//! backoff. A [`HealthPolicy`] over the deterministic snapshot stream
//! (`Healthy → Degraded → Overloaded`) sheds at admission when the
//! service is queue-unstable — every shed counted, conservation
//! generalized to `submitted = served + lost + shed + rejected`.
//!
//! # Determinism
//!
//! A single-shard run reproduces the equivalent `tapesim sched` batch
//! run bit for bit (same records, same metric bits), and a multi-shard
//! run is a pure function of `(seed, shard_count)`: same inputs, same
//! merged canonical registry, same snapshot sequence, same joined
//! records. A run with an empty chaos plan reproduces pinned registry,
//! snapshot and record bits, and a chaotic one replays identically
//! from `(seed, shards, chaos-seed)`. All pinned by tests in this
//! crate.
//!
//! [`ShardEngine::close`]: tapesim_sched::ShardEngine::close

pub mod health;
pub mod runtime;
pub mod supervisor;

pub use health::{Health, HealthPolicy};
pub use runtime::{serve_run, FailureReason, ServeConfig, ServeReport, ShardFailure, ShardStats};
pub use supervisor::{supervisor_run, SuperviseConfig};
