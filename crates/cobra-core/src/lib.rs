//! # cobra-core
//!
//! The stochastic processes of *Better Bounds for Coalescing-Branching
//! Random Walks* (Mitzenmacher, Rajaraman, Roche, SPAA 2016), plus every
//! process the paper compares against or uses inside its proofs:
//!
//! * [`CobraWalk`] — the paper's central object: the `k`-cobra walk
//!   (§2). Each active vertex sends `k` independent uniformly random
//!   pebbles to neighbors; pebbles landing on the same vertex coalesce.
//! * [`WaltProcess`] — the **Walt** coupling process of §4: a fixed
//!   population of totally ordered pebbles with a three-pebble coalescence
//!   threshold, whose cover time stochastically dominates the cobra walk's
//!   (Lemma 10) and is analyzable through the directed tensor chain
//!   D(G×G) (Lemma 11).
//! * [`SimpleWalk`] — classic baseline (Feige's Θ(log n)…O(n³)
//!   cover-time range, §1.2).
//! * [`ParallelWalks`] — `k` independent walks (Alon et al., §1.2).
//! * [`PushGossip`] — push rumor spreading (Feige et al.), the
//!   O(n log n) process cobra walks are conjectured to match.
//! * [`BiasedWalk`] — the paper's **inverse-degree-biased walk** (§5.1),
//!   steered by the shortest-path [`TowardTarget`] controller, whose
//!   hitting time upper-bounds the cobra walk's (Lemma 14); plus the
//!   Metropolis walk of Lemma 16 ([`MetropolisWalk`]).
//! * [`queueing`] — the multi-dimensional drift chain from the proof of
//!   Theorem 3 (§3), a.k.a. the paper's "discrete time queueing system".
//!
//! Every process implements [`TypedProcess`]; measurement (the
//! [`CoverDriver`], h_max estimation and the Matthews-bound check of
//! Theorem 1) lives in [`measure`] and runs any of them with no virtual
//! dispatch. Every per-trial run — cover and hitting runs of the driver
//! (a hitting time of `v` is the cover time of `{v}`), the giant
//! [`run_cover_succinct`] and [`record_trajectory`] — goes through one
//! loop over one [`SuccinctCoverage`] bitmap. That loop also stops a
//! trial whose process has died out ([`StateView::is_extinct`]). The
//! bit-sliced 64-lane engine in [`lanes`] is the one separate engine.
//!
//! ## Example: cover a hypercube with a 2-cobra walk
//!
//! ```
//! use cobra_core::{CobraWalk, CoverDriver};
//! use cobra_graph::generators::hypercube::hypercube;
//! use rand::SeedableRng;
//!
//! let g = hypercube(6);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(3);
//! let res = CoverDriver::new(&g)
//!     .run_typed(&CobraWalk::new(2), 0, 50_000, &mut rng)
//!     .expect("cover within budget");
//! assert_eq!(res.covered, 64);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod biased;
pub mod cobra;
pub mod coverage;
pub mod fault;
pub mod frontier;
pub mod gossip;
pub mod lanes;
pub mod measure;
pub mod parallel_walks;
pub mod process;
pub mod queueing;
pub mod schedule;
pub mod scratch;
pub mod simple;
pub mod trajectory;
pub mod walt;

pub use biased::{BiasedWalk, MetropolisWalk, TowardTarget};
pub use cobra::CobraWalk;
pub use coverage::SuccinctCoverage;
pub use fault::{DeletionWave, FaultPlan, FaultyCobraState, FaultyCobraWalk, VertexOutage};
pub use frontier::Frontier;
pub use gossip::PushGossip;
pub use lanes::{run_lane_cover, run_lane_cover_probed, LaneOutcome, LaneScratch, LANE_WIDTH};
pub use measure::{run_cover_succinct, CoverDriver, CoverResult, HittingResult};
pub use parallel_walks::ParallelWalks;
pub use process::{
    Active, BoundDraw, ImplicitDraw, NeighborDraw, Process, StateView, TypedProcess, TypedState,
};
pub use queueing::DriftChain;
pub use schedule::{BranchingSchedule, ScheduledCobraWalk};
pub use scratch::TrialScratch;
pub use simple::SimpleWalk;
pub use trajectory::{record_trajectory, Trajectory};
pub use walt::WaltProcess;
