//! Structural graph metrics used by tests and by the experiment harness.
//!
//! * [`bfs`] — single-source distances, eccentricity, diameter;
//! * [`components`] — connectivity and largest-component extraction;
//! * [`conductance`] — exact (small-n) and sweep-estimated conductance,
//!   the `Φ_G` parameter of the paper's Theorem 8.

pub mod bfs;
pub mod components;
pub mod conductance;

pub use bfs::{bfs_distances, diameter, eccentricity, farthest_vertex};
pub use components::{connected_components, is_connected, largest_component};
pub use conductance::{conductance_exact, conductance_of_set, sweep_conductance};
