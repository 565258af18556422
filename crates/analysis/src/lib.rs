//! # tapesim-analysis
//!
//! Presentation-layer utilities for the experiment harness: markdown/CSV
//! result tables ([`table`]), labelled series with JSON round-trips
//! ([`series`]) and terminal line charts ([`plot`]) so every paper figure
//! can be eyeballed straight from `cargo run`.

pub mod plot;
pub mod series;
pub mod table;

pub use plot::ascii_chart;
pub use series::{ExperimentResult, Series};
pub use table::Table;
