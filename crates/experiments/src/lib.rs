//! # tapesim-experiments
//!
//! Drivers reproducing every table and figure of the ICPP 2006 evaluation
//! (§6), plus the extension experiments the paper describes in prose. Each
//! driver builds the paper's workload, places it once per scheme of
//! [`tapesim_placement::Scheme`], runs the placements through the
//! simulator and emits an [`tapesim_analysis::ExperimentResult`] (JSON
//! under `results/`, a markdown table and an ASCII chart on stdout).
//!
//! | Driver | Paper artifact |
//! |---|---|
//! | [`figures::table1`] | Table 1 — drive/library specifications |
//! | [`figures::fig5`] | Figure 5 — bandwidth vs. number of switch drives `m` |
//! | [`figures::fig6`] | Figure 6 — bandwidth vs. Zipf α |
//! | [`figures::fig7`] | Figure 7 — bandwidth vs. average request size (+ the all-mounted extreme case) |
//! | [`figures::fig8`] | Figure 8 — bandwidth vs. number of libraries |
//! | [`figures::fig9`] | Figure 9 — response-time component comparison |
//! | [`figures::ext_technology`] | §6 close — LTO generation sweep |
//! | [`figures::ext_scale`] | §6 close — workload-scale invariance |
//! | [`figures::ext_ablation`] | §5 design-choice ablations |
//!
//! Every driver is one entry of [`figures::DRIVERS`]. Run them all with
//! `cargo run --release -p tapesim-experiments --bin all`, or some by id
//! with `--bin all -- [--quick] fig6 ext_tail`.

pub mod figures;
pub mod harness;
pub mod settings;

pub use harness::{evaluate, evaluate_placement};
pub use settings::ExperimentSettings;
