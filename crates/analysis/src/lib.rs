//! # ibp-analysis — experiment drivers for every table and figure
//!
//! Reproduction harness for the paper's evaluation. Every exhibit is an
//! entry of the [`registry`], run by `ibpower exhibits <name>` (or all
//! of them, plus `summary.txt`, by `ibpower exhibits all`):
//!
//! | exhibit | registry name | computed by |
//! |---|---|---|
//! | Table I (idle-interval distribution) | `table1` | [`exhibits::table1`] |
//! | Table II (simulation parameters) | `params` | `ibp_network::SimParams::paper` |
//! | Table III (chosen GT + hit rate) | `table3` | [`exhibits::table3`], [`gt_select`] |
//! | Table IV (PPA overheads) | `table4` | [`exhibits::table4`] |
//! | Figs. 7–9 (savings + slowdown per displacement) | `fig7`–`fig9` | [`exhibits::figure`] |
//! | Fig. 10 (GT sweep) | `fig10` | [`exhibits::fig10`], [`gt_select`] |
//! | Generation × sleep-depth frontier | `generation_frontier` | [`generation`] |
//! | Policy ablation, deep sleep, weak scaling, robustness, fault tolerance | `ablation`, `deepsleep`, `weak_scaling`, `robustness`, `fault_tolerance` | [`extensions`] |
//!
//! [`paper_ref`] holds the published values so every exhibit prints
//! ours-vs-paper columns, and `EXPERIMENTS.md` is assembled from the same
//! data. The `calibrate` tuning probe, which prints the model next to the
//! paper's numbers, lives with the examples (`examples/calibrate.rs`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exhibits;
pub mod experiment;
pub mod extensions;
pub mod generation;
pub mod gt_select;
pub mod output;
pub mod paper_ref;
pub mod registry;
pub mod report;
pub mod svg;
pub mod sweep;

pub use exhibits::{fig10, figure, table1, table3, table4, ExhibitGrid};
pub use experiment::{
    make_trace, run_on_trace, run_runtime_only, run_with_baseline, RunConfig, RunResult,
};
pub use generation::{
    generation_frontier, render_generation_frontier, GenerationFrontierRow, FRONTIER_GENERATIONS,
};
pub use gt_select::{select, sweep, GtPoint, GT_GRID_US};
pub use output::OutputDir;
pub use registry::{Exhibit, EXHIBITS};
pub use report::Table;
pub use sweep::{CellCtx, CellKey, SweepEngine, SweepOptions, SweepStats};
