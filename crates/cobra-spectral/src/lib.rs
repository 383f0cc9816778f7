//! # cobra-spectral
//!
//! Sparse spectral toolkit for the cobra-walk reproduction. Provides the
//! machinery the paper's proofs lean on, so the experiment harness can
//! parameterize and cross-check the bounds:
//!
//! * [`CsrMatrix`] — compressed sparse row matrices with (optionally
//!   rayon-parallel) matvec;
//! * [`walk_matrix`] — the simple walk's transition matrix and exact
//!   distribution evolution (used to validate Monte-Carlo estimates);
//! * [`power`] — power iteration and deflation for dominant/second
//!   eigenvalues;
//! * [`laplacian`] — normalized-Laplacian spectral gap and the two-sided
//!   Cheeger inequality, connecting the measured gap to the conductance
//!   `Φ_G` of Theorem 8;
//! * [`tensor`] — the directed tensor-product chain **D(G×G)** of
//!   Lemma 11, with its exact Eulerian stationary distribution
//!   (`2/(n²+n)` on the diagonal, `1/(n²+n)` off it) and collision
//!   probabilities;
//! * [`exact`] — exact hitting times of the simple walk via linear solves
//!   (ground truth for the simulation tests).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod exact;
pub mod laplacian;
pub mod matrix;
pub mod power;
pub mod tensor;
pub mod walk_matrix;

pub use laplacian::{cheeger_bounds, spectral_gap};
pub use matrix::CsrMatrix;
pub use tensor::TensorChain;
pub use walk_matrix::{evolve, stationary_distribution, transition_matrix, tv_distance};
