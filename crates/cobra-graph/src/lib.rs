//! # cobra-graph
//!
//! Static graph substrate for the reproduction of *Better Bounds for
//! Coalescing-Branching Random Walks* (Mitzenmacher, Rajaraman, Roche,
//! SPAA 2016).
//!
//! The paper studies cobra walks on a zoo of graph families: `d`-dimensional
//! grids `[0,n]^d`, `d`-regular expanders, hypercubes, power-law graphs,
//! random geometric graphs, `k`-ary trees, the star graph, and the
//! worst-case families for simple random walks (lollipop). This crate
//! provides:
//!
//! * [`Graph`] — an immutable, cache-friendly CSR (compressed sparse row)
//!   undirected graph with `u32` vertex ids and zero-allocation neighbor
//!   access, the representation every walk kernel in `cobra-core` runs on;
//! * [`GraphBuilder`] — edge-list accumulation with symmetrization,
//!   deduplication, and validation;
//! * [`generators`] — deterministic and random constructions for every
//!   family the paper mentions;
//! * [`metrics`] — structural measurements (BFS distances, diameter,
//!   connected components, conductance) used both by tests and by
//!   the experiment harness to parameterize the paper's bounds (e.g. the
//!   `Φ_G^{-2} log² n` bound of Theorem 8 needs the conductance `Φ_G`);
//! * [`sampler`] — a per-graph [`NeighborSampler`] table that makes the
//!   kernels' uniform-neighbor draws table-driven (precomputed Lemire
//!   thresholds, regular-graph fast path) while consuming the exact same
//!   RNG stream as the recompute-per-draw route.
//!
//! ## Example
//!
//! ```
//! use cobra_graph::generators::grid;
//! use cobra_graph::metrics;
//!
//! // The paper's Section 3 object: the 2-dimensional grid [0,8]^2.
//! let g = grid::grid(&[8, 8]);
//! assert_eq!(g.num_vertices(), 81);
//! assert!(metrics::is_connected(&g));
//! // Corner vertices have degree 2.
//! assert_eq!(g.degree(0), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
mod csr;
mod error;
pub mod generators;
pub mod implicit;
pub mod metrics;
pub mod sampler;

pub use builder::GraphBuilder;
pub use csr::{Graph, NeighborIter, Vertex};
pub use error::{check_vertex_count, GraphError, Result};
pub use implicit::{
    ImplicitComplete, ImplicitGraph, ImplicitGrid, ImplicitHypercube, ImplicitKaryTree,
    ImplicitTorus, Neighborhood,
};
pub use sampler::{BoundSample, NeighborSampler};
