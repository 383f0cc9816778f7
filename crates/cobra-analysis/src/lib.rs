//! # cobra-analysis
//!
//! Statistical analysis for asymptotic-shape verification.
//!
//! The paper proves bounds like "cover time = O(n) on `[0,n]^d`" or
//! "O(Φ⁻² log² n)". A simulation cannot verify a proof, but it can verify
//! the *shape*: fitted growth exponents, boundedness of normalized ratios,
//! and who-beats-whom orderings. This crate provides:
//!
//! * [`fit`] — ordinary least squares and log–log power-law fits with R²;
//! * [`bootstrap`] — bootstrap confidence intervals for fitted exponents;
//! * [`compare`] — ratio flatness tests;
//! * [`growth`] — classification of a curve against candidate shapes
//!   (`log n`, `log² n`, `√n`, `n`, `n log n`, `n^α`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bootstrap;
pub mod compare;
pub mod fit;
pub mod growth;

pub use bootstrap::bootstrap_exponent_ci;
pub use compare::ratio_flatness;
pub use fit::{linear_fit, power_law_fit, FitResult};
pub use growth::{classify_growth, GrowthShape};
