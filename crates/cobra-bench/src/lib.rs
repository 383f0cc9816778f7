//! # cobra-bench
//!
//! Experiment harness for the cobra-walk reproduction. Each empirically
//! checkable claim of the paper has a binary (`e0_smoke`, `e1_grid_cover`
//! … `e16_fault_degradation`); shared sweep/reporting plumbing lives
//! here.
//!
//! Every binary supports:
//!
//! * default mode — CI-friendly sizes (seconds to a few minutes);
//! * `--full` — paper-scale sweeps;
//! * `--quick` — smoke mode (CI-scale sweeps, minimal adaptive trial
//!   envelope — what the CI bench-smoke job runs);
//! * `--seed <u64>` — override the master seed;
//! * `--csv <dir>` — also write each table as CSV;
//! * `--manifest <path>` — write the per-run JSON manifest (per-cell
//!   trials used, censoring, achieved CI half-width, precision flag);
//! * `--resume <manifest>` — continue an interrupted run bit-identically
//!   from its checkpoint (written atomically next to the manifest at
//!   every batch boundary);
//! * `--halt-after-checkpoints <n>` — deterministic fault injection:
//!   stop with exit code 3 after the n-th checkpoint write (used by the
//!   kill-and-resume tests and the CI resume-smoke step);
//! * `--trace <path>` — write the run's span timeline (one JSONL span
//!   per cell attempt, batch boundary, and retry backoff; schema
//!   `cobra-obs/trace-v1`) for the `trace_view` binary to validate and
//!   render.
//!
//! Sweep-style binaries run through the adaptive orchestrator
//! ([`orchestrator::Orchestrator`]), the only sweep path: per-cell trial
//! counts follow a sequential stopping rule instead of a fixed plan, so
//! easy cells stop early and hard cells keep sampling until their CI is
//! tight.
//!
//! Each binary's module docs name the claim it checks; its `[PASS]` /
//! `[FAIL]` verdict lines and the run manifest record the results.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod cli;
pub mod families;
pub mod json;
pub mod orchestrator;
pub mod report;
pub mod stages;

pub use checkpoint::{checkpoint_path_for, CellCheckpoint, CellStatus, Checkpoint};
pub use cli::ExpConfig;
pub use families::Family;
pub use json::Json;
pub use orchestrator::{CellOutcome, ExperimentSpec, Interrupted, Orchestrator};
pub use stages::{stage_seed, stage_sequence, StageBlock};
