//! Experiment harness regenerating the ASAP paper's figures.
//!
//! The evaluation matrix is 6 algorithms (flooding, random walk, GSA,
//! ASAP(FLD), ASAP(RW), ASAP(GSA)) × 3 overlays (random, power-law,
//! crawled). Figures 4–6 and 8–9 are cells of that matrix; Fig. 7 is the
//! ASAP(RW) load breakdown and Fig. 10 the per-second load series, both on
//! the crawled overlay; Figs. 2–3 describe the workload itself.
//!
//! Run `cargo run --release -p asap-bench --bin experiments -- all` (add
//! `--scale paper` for the full 10,000-peer configuration — hours of CPU).

// This crate IS the CLI: its tables and progress lines go to stdout by
// design, so the workspace-wide print_stdout deny does not apply here.
#![allow(clippy::print_stdout)]

pub mod adversary;
pub mod algo;
pub mod args;
pub mod faults;
pub mod figures;
pub mod harness;
pub mod runner;
pub mod scale;
pub mod scenario;
pub mod table;

pub use adversary::AdversaryProfile;
pub use algo::AlgoKind;
pub use faults::FaultProfile;
pub use harness::{replay_cell, replay_matrix, ReplayRecord};
pub use runner::{CellReport, RunSummary};
pub use scale::Scale;
pub use scenario::ScenarioPack;
