//! `d`-dimensional grids `[0,n]^d` and tori — the objects of the paper's §3.
//!
//! The paper works over `[0, n]^d`, i.e. each coordinate ranges over the
//! `n + 1` integers `0..=n`, so the 2-dimensional grid `[0,8]^2` has 81
//! vertices. [`grid`] follows that convention: `extents[i]` is the **maximum
//! coordinate** in dimension `i`.

use crate::builder::GraphBuilder;
use crate::csr::{Graph, Vertex};
use crate::error::{GraphError, Result};

/// Mixed-radix coordinate addressing for grid-like graphs.
///
/// Vertices are numbered row-major: coordinate `(c_0, .., c_{d-1})` maps to
/// `Σ c_i · stride_i` where `stride_{d-1} = 1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GridShape {
    /// Number of points per dimension (extent + 1).
    points: Vec<usize>,
    strides: Vec<usize>,
}

impl GridShape {
    /// Shape of `[0, extents[i]]` per dimension. Errors on empty dims or
    /// overflow of the `u32` id space.
    pub fn new(extents: &[usize]) -> Result<Self> {
        if extents.is_empty() {
            return Err(GraphError::InvalidParameter {
                reason: "grid must have at least one dimension".into(),
            });
        }
        let mut points = Vec::with_capacity(extents.len());
        let mut total: u64 = 1;
        for &e in extents {
            let p = e.checked_add(1).ok_or(GraphError::TooManyVertices {
                requested: u64::MAX,
            })?;
            total = total.saturating_mul(p as u64);
            points.push(p);
        }
        crate::error::check_vertex_count(total)?;
        let d = points.len();
        let mut strides = vec![1usize; d];
        for i in (0..d - 1).rev() {
            strides[i] = strides[i + 1] * points[i + 1];
        }
        Ok(GridShape { points, strides })
    }

    /// Number of dimensions `d`.
    pub fn dims(&self) -> usize {
        self.points.len()
    }

    /// Total number of vertices `Π (extents[i] + 1)`.
    pub fn num_vertices(&self) -> usize {
        self.points.iter().product()
    }

    /// Number of points (extent + 1) in dimension `i`.
    pub fn points_in_dim(&self, i: usize) -> usize {
        self.points[i]
    }

    /// Row-major stride of dimension `i`: moving one point along dimension
    /// `i` changes the vertex id by exactly this amount.
    pub fn stride_in_dim(&self, i: usize) -> usize {
        self.strides[i]
    }

    /// Map coordinates to a vertex id. Panics if out of range in debug.
    pub fn index_of(&self, coords: &[usize]) -> Vertex {
        debug_assert_eq!(coords.len(), self.dims());
        let mut idx = 0usize;
        for (i, &c) in coords.iter().enumerate() {
            debug_assert!(c < self.points[i], "coordinate out of range");
            idx += c * self.strides[i];
        }
        idx as Vertex
    }

    /// Map a vertex id back to coordinates.
    pub fn coords_of(&self, v: Vertex) -> Vec<usize> {
        let mut rem = v as usize;
        self.strides
            .iter()
            .map(|&s| {
                let c = rem / s;
                rem %= s;
                c
            })
            .collect()
    }
}

/// The `d`-dimensional grid `[0, extents[0]] × … × [0, extents[d-1]]`.
///
/// `grid(&[n; d])` is exactly the paper's `[0,n]^d`. Vertices are connected
/// when they differ by 1 in exactly one coordinate.
///
/// ```
/// let g = cobra_graph::generators::grid(&[4, 4]);
/// assert_eq!(g.num_vertices(), 25);
/// assert_eq!(g.degree(0), 2);      // corner
/// assert_eq!(g.degree(12), 4);     // interior
/// ```
pub fn grid(extents: &[usize]) -> Graph {
    try_grid(extents).expect("valid grid parameters")
}

/// Fallible version of [`grid`].
pub fn try_grid(extents: &[usize]) -> Result<Graph> {
    let shape = GridShape::new(extents)?;
    let n = shape.num_vertices();
    let d = shape.dims();
    // Each vertex links "forward" in each dimension when not at the boundary.
    let mut b = GraphBuilder::with_capacity(n, n * d);
    let mut coords = vec![0usize; d];
    for v in 0..n {
        for (i, &c) in coords.iter().enumerate() {
            if c + 1 < shape.points_in_dim(i) {
                let u = v + shape.strides[i];
                b.add_edge(v as Vertex, u as Vertex)?;
            }
        }
        // Increment mixed-radix counter (last dimension fastest).
        for i in (0..d).rev() {
            coords[i] += 1;
            if coords[i] < shape.points_in_dim(i) {
                break;
            }
            coords[i] = 0;
        }
    }
    b.build()
}

/// The `d`-dimensional torus with `extents[i] + 1` points per dimension
/// (wrap-around grid). Regular of degree `2d`, which makes it a convenient
/// `d`-regular family for Theorem 8 experiments with conductance
/// `Θ(1/side)`.
///
/// Requires at least 3 points per dimension (wrap edges would duplicate
/// grid edges otherwise).
pub fn torus(extents: &[usize]) -> Graph {
    try_torus(extents).expect("valid torus parameters")
}

/// Fallible version of [`torus`].
pub fn try_torus(extents: &[usize]) -> Result<Graph> {
    let shape = GridShape::new(extents)?;
    for i in 0..shape.dims() {
        if shape.points_in_dim(i) < 3 {
            return Err(GraphError::InvalidParameter {
                reason: format!(
                    "torus dimension {i} has {} points; need >= 3",
                    shape.points_in_dim(i)
                ),
            });
        }
    }
    let n = shape.num_vertices();
    let d = shape.dims();
    let mut b = GraphBuilder::with_capacity(n, n * d);
    let mut coords = vec![0usize; d];
    for v in 0..n {
        for (i, &c) in coords.iter().enumerate() {
            let pts = shape.points_in_dim(i);
            let next_c = (c + 1) % pts;
            let u = v - c * shape.strides[i] + next_c * shape.strides[i];
            b.add_edge(v as Vertex, u as Vertex)?;
        }
        for i in (0..d).rev() {
            coords[i] += 1;
            if coords[i] < shape.points_in_dim(i) {
                break;
            }
            coords[i] = 0;
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn shape_roundtrip() {
        let s = GridShape::new(&[3, 4, 5]).unwrap();
        assert_eq!(s.num_vertices(), 4 * 5 * 6);
        for v in 0..s.num_vertices() as u32 {
            let c = s.coords_of(v);
            assert_eq!(s.index_of(&c), v);
        }
    }

    #[test]
    fn shape_rejects_empty_and_huge() {
        assert!(GridShape::new(&[]).is_err());
        assert!(GridShape::new(&[1 << 20, 1 << 20]).is_err());
        // An extent whose point count overflows usize.
        let overflow = GraphError::TooManyVertices {
            requested: u64::MAX,
        };
        assert_eq!(GridShape::new(&[usize::MAX]).unwrap_err(), overflow);
        assert_eq!(try_grid(&[usize::MAX, 3]).unwrap_err(), overflow);
    }

    #[test]
    fn path_is_one_dimensional_grid() {
        let g = grid(&[9]);
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 9);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(5), 2);
    }

    #[test]
    fn grid_2d_structure() {
        // [0,2]^2: 3x3 grid.
        let g = grid(&[2, 2]);
        assert_eq!(g.num_vertices(), 9);
        assert_eq!(g.num_edges(), 12);
        // center vertex (1,1) = index 4 has degree 4
        assert_eq!(g.degree(4), 4);
        // corners have degree 2
        for &c in &[0u32, 2, 6, 8] {
            assert_eq!(g.degree(c), 2);
        }
        assert!(metrics::is_connected(&g));
    }

    #[test]
    fn grid_3d_degrees() {
        let g = grid(&[2, 2, 2]);
        assert_eq!(g.num_vertices(), 27);
        // interior vertex (1,1,1): degree 6
        let s = GridShape::new(&[2, 2, 2]).unwrap();
        assert_eq!(g.degree(s.index_of(&[1, 1, 1])), 6);
        assert_eq!(g.degree(s.index_of(&[0, 0, 0])), 3);
        assert!(metrics::is_connected(&g));
    }

    #[test]
    fn grid_edge_count_formula() {
        // d-dim grid with p_i points: edges = Σ_i (p_i - 1) * Π_{j≠i} p_j
        let g = grid(&[3, 4]);
        let expected = 3 * 5 + 4 * 4; // (4-1)*5 + (5-1)*4
        assert_eq!(g.num_edges(), expected);
    }

    #[test]
    fn torus_is_regular() {
        let g = torus(&[3, 3]); // 4x4 torus
        assert_eq!(g.num_vertices(), 16);
        assert_eq!(g.regularity(), Some(4));
        assert!(metrics::is_connected(&g));
    }

    #[test]
    fn torus_3d_regularity() {
        let g = torus(&[2, 2, 2]); // 3^3 torus
        assert_eq!(g.num_vertices(), 27);
        assert_eq!(g.regularity(), Some(6));
    }

    #[test]
    fn torus_rejects_tiny_dimensions() {
        assert!(try_torus(&[1, 3]).is_err());
        assert!(try_torus(&[3, 1]).is_err());
    }

    #[test]
    fn cycle_is_one_dimensional_torus() {
        let g = torus(&[5]); // 6-cycle
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.regularity(), Some(2));
    }

    #[test]
    fn grid_neighbors_differ_in_one_coordinate() {
        let s = GridShape::new(&[3, 3]).unwrap();
        let g = grid(&[3, 3]);
        for v in g.vertices() {
            let cv = s.coords_of(v);
            for u in g.neighbor_iter(v) {
                let cu = s.coords_of(u);
                let diffs: Vec<_> = cv.iter().zip(&cu).filter(|(a, b)| a != b).collect();
                assert_eq!(diffs.len(), 1);
                let (a, b) = diffs[0];
                assert_eq!(a.abs_diff(*b), 1);
            }
        }
    }
}
