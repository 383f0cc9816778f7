//! # cobra-sim
//!
//! Monte-Carlo simulation engine for the cobra-walk experiments:
//!
//! * [`seeds`] — deterministic per-trial seed derivation (SplitMix64), so
//!   every experiment is exactly reproducible from one master seed and
//!   trials are independent across rayon workers;
//! * [`runner`] — parallel trial execution for cover/hitting
//!   measurements: one trial-stream body behind eight short runners,
//!   routing small-graph cover cells to the bit-sliced 64-lane engine
//!   ([`runner::run_cover_trials_lanes_probed`]) and everything else to
//!   the per-trial scratch engine;
//! * [`stats`] — online summary statistics (Welford) with quantiles and
//!   normal-approximation confidence intervals;
//! * [`sweep`] — sweep cells, result rows and tables (the orchestrator in
//!   cobra-bench runs every sweep cell by cell);
//! * [`table`] — CSV and aligned-Markdown writers for result tables
//!   (hand-rolled: no serde needed);
//! * [`convergence`] — run-until-CI-tight sequential stopping: the
//!   [`convergence::StopRule`] and [`convergence::AdaptivePlan`] behind
//!   the resumable adaptive runners in [`runner`];
//! * [`fsio`] — atomic (temp + fsync + rename) artifact writes, so an
//!   interrupted run never leaves a truncated CSV/manifest/checkpoint.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod convergence;
pub mod fsio;
pub mod runner;
pub mod seeds;
pub mod stats;
pub mod sweep;
pub mod table;

pub use convergence::{run_until_precise, AdaptivePlan, StopRule};
pub use fsio::{write_atomic, write_atomic_str};
pub use runner::{
    lane_cover_applies, replay_outcomes, run_cover_trials_adaptive_auto_resumable,
    run_cover_trials_implicit, run_cover_trials_implicit_probed, run_cover_trials_lanes_probed,
    run_cover_trials_typed, run_cover_trials_typed_probed, run_hitting_trials_adaptive_resumable,
    run_hitting_trials_typed, AdaptiveOutcome, BatchControl, ResumableOutcome, TrialOutcome,
    TrialPlan, LANE_MAX_N,
};
pub use seeds::SeedSequence;
pub use stats::{ks_distance, quantile_sorted, z_for_level, EmptySummary, Summary};
pub use sweep::{cell_seed, SweepCell, SweepRow, SweepTable};
pub use table::{render_csv, render_markdown};
