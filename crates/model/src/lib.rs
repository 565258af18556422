//! # tapesim-model
//!
//! Physical models of the hardware a parallel tape storage system is built
//! from: tape cartridges, tape drives, robot arms and tape libraries, plus
//! named specification presets matching the hardware the ICPP 2006 paper
//! simulates (IBM LTO Gen 3 drives in StorageTek L80 libraries, Table 1).
//!
//! The models are *kinematic*, not mechanical: each component answers "how
//! long does operation X take from state S" using the same cost models the
//! paper uses —
//!
//! * constant robot cell↔drive move time,
//! * constant load/thread and unload times,
//! * a **linear positioning model** (Johnson & Miller, VLDB'98) for seeks and
//!   rewinds: head travel time is proportional to travelled tape length,
//! * streaming transfer at the drive's native rate once positioned.
//!
//! Nothing in this crate schedules anything; the simulator crate composes
//! these costs into an event-driven simulation.

pub mod drive;
pub mod ids;
pub mod library;
pub mod robot;
pub mod specs;
pub mod tape;
pub mod units;

pub use drive::DriveSpec;
pub use ids::{DriveId, LibraryId, ObjectId, TapeId};
pub use library::{LibrarySpec, SystemConfig};
pub use robot::RobotSpec;
pub use tape::{TapeLayout, TapeSpec};
pub use units::{Bytes, BytesPerSec};
