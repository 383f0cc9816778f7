//! # cobra-repro
//!
//! Umbrella crate for the reproduction of *Better Bounds for
//! Coalescing-Branching Random Walks* (Mitzenmacher, Rajaraman, Roche,
//! SPAA 2016).
//!
//! This crate re-exports the workspace members under stable module names so
//! downstream users (and the `examples/`) can depend on a single crate:
//!
//! * [`graph`] — CSR graphs, generators, metrics ([`cobra_graph`]);
//! * [`spectral`] — Laplacians, power iteration, the directed tensor chain
//!   D(G×G) ([`cobra_spectral`]);
//! * [`walks`] — cobra walks and every comparison process
//!   ([`cobra_core`]);
//! * [`sim`] — Monte-Carlo engine and statistics ([`cobra_sim`]);
//! * [`analysis`] — growth-shape fitting ([`cobra_analysis`]);
//! * [`obs`] — the zero-cost probe seam and deterministic run telemetry
//!   ([`cobra_obs`]).
//!
//! ## Quickstart
//!
//! ```
//! use cobra_repro::graph::generators::hypercube;
//! use cobra_repro::walks::{CobraWalk, CoverDriver};
//! use rand::SeedableRng;
//!
//! let g = hypercube::hypercube(6); // 64 vertices
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let walk = CobraWalk::new(2);
//! let result = CoverDriver::new(&g).run_typed(&walk, 0, 100_000, &mut rng).unwrap();
//! assert_eq!(result.covered, g.num_vertices());
//! ```

pub use cobra_analysis as analysis;
pub use cobra_core as walks;
pub use cobra_graph as graph;
pub use cobra_obs as obs;
pub use cobra_sim as sim;
pub use cobra_spectral as spectral;
