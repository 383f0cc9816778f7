//! Immutable CSR (compressed sparse row) graph representation.
//!
//! Every walk kernel in the reproduction is a tight loop of the form
//! "pick a uniformly random neighbor of `v`", so the representation is
//! optimized for exactly that: `neighbors(v)` is a contiguous `&[u32]`
//! slice, obtained with two loads and no branching beyond a bounds check.

use crate::error::{GraphError, Result};

/// Dense vertex identifier. Graphs in this reproduction comfortably fit in
/// the `u32` id space (the paper's experiments are `n ≤ 10^6`-scale).
pub type Vertex = u32;

/// An immutable undirected graph in CSR form.
///
/// Invariants (enforced by [`crate::GraphBuilder`] and checked by
/// `debug_assert`s):
///
/// * `offsets.len() == n + 1`, `offsets[0] == 0`, non-decreasing;
/// * `neighbors[offsets[v]..offsets[v+1]]` lists the neighbors of `v` in
///   ascending order;
/// * the adjacency is symmetric: `u ∈ N(v) ⇔ v ∈ N(u)`;
/// * no self-loops and no duplicate edges (simple graph), matching the
///   paper's setting.
#[derive(Clone, Debug)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for vertex `v`.
    offsets: Vec<usize>,
    /// Concatenated, per-vertex-sorted adjacency lists.
    neighbors: Vec<Vertex>,
}

impl Graph {
    /// Construct directly from CSR arrays. Used by the builder; validates
    /// structural invariants and returns an error on malformed input.
    pub(crate) fn from_csr(offsets: Vec<usize>, neighbors: Vec<Vertex>) -> Result<Self> {
        if offsets.is_empty() || offsets[0] != 0 {
            return Err(GraphError::InvalidParameter {
                reason: "CSR offsets must start with 0".into(),
            });
        }
        let last = *offsets
            .last()
            .expect("offsets verified non-empty by the check above");
        if last != neighbors.len() {
            return Err(GraphError::InvalidParameter {
                reason: "CSR offsets must end at neighbors.len()".into(),
            });
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::InvalidParameter {
                reason: "CSR offsets must be non-decreasing".into(),
            });
        }
        let n = offsets.len() - 1;
        crate::error::check_vertex_count(n as u64)?;
        for &u in &neighbors {
            if (u as usize) >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: u as u64,
                    num_vertices: n,
                });
            }
        }
        Ok(Graph { offsets, neighbors })
    }

    /// The empty graph on `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m` (each stored twice internally).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Neighbors of `v` as a sorted slice. This is the hot accessor for all
    /// walk kernels: no allocation, contiguous memory.
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The `i`-th neighbor of `v` (unchecked in release builds beyond slice
    /// bounds). Walk kernels use `neighbors(v)[i]` with `i` drawn uniformly.
    #[inline]
    pub fn neighbor(&self, v: Vertex, i: usize) -> Vertex {
        self.neighbors(v)[i]
    }

    /// Whether edge `(u, v)` exists. O(log deg(u)) via binary search on the
    /// sorted adjacency slice.
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all vertices `0..n`. Counts in `u64` so the
    /// boundary graph on `n = 2³²` vertices (max id `u32::MAX`) yields
    /// every id instead of truncating the cast to an empty range.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        (0..self.num_vertices() as u64).map(|v| v as Vertex)
    }

    /// Iterator over each undirected edge exactly once, as `(u, v)` with
    /// `u < v`, in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Iterator over the neighbors of `v` (by value).
    pub fn neighbor_iter(&self, v: Vertex) -> NeighborIter<'_> {
        NeighborIter {
            inner: self.neighbors(v).iter(),
        }
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Minimum degree over all vertices (0 for the empty graph).
    pub fn min_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// Whether every vertex has the same degree (the paper's Theorems 8 and
    /// 15 are stated for `d`-regular graphs). Returns that degree if so.
    pub fn regularity(&self) -> Option<usize> {
        let n = self.num_vertices();
        if n == 0 {
            return Some(0);
        }
        let d = self.degree(0);
        if self.vertices().all(|v| self.degree(v) == d) {
            Some(d)
        } else {
            None
        }
    }

    /// Sum of degrees (`2m`), i.e. the volume of the whole vertex set.
    #[inline]
    pub fn total_degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Volume of a vertex subset: `vol(S) = Σ_{u∈S} deg(u)` (paper, §2).
    pub fn volume<I: IntoIterator<Item = Vertex>>(&self, set: I) -> usize {
        set.into_iter().map(|v| self.degree(v)).sum()
    }
}

/// Iterator over the neighbors of a vertex, yielded by value.
pub struct NeighborIter<'a> {
    inner: std::slice::Iter<'a, Vertex>,
}

impl Iterator for NeighborIter<'_> {
    type Item = Vertex;

    #[inline]
    fn next(&mut self) -> Option<Vertex> {
        self.inner.next().copied()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for NeighborIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(0, 2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.min_degree(), 0);
        assert_eq!(g.regularity(), Some(0));
        for v in g.vertices() {
            assert_eq!(g.degree(v), 0);
            assert!(g.neighbors(v).is_empty());
        }
    }

    #[test]
    fn zero_vertex_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.vertices().count(), 0);
        assert_eq!(g.edges().count(), 0);
        assert_eq!(g.regularity(), Some(0));
    }

    #[test]
    fn triangle_structure() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.regularity(), Some(2));
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn neighbor_iter_matches_slice() {
        let g = triangle();
        let via_iter: Vec<_> = g.neighbor_iter(1).collect();
        assert_eq!(via_iter, g.neighbors(1).to_vec());
        assert_eq!(g.neighbor_iter(1).len(), 2);
    }

    #[test]
    fn volume_of_subsets() {
        let g = triangle();
        assert_eq!(g.volume([0]), 2);
        assert_eq!(g.volume([0, 1, 2]), 6);
        assert_eq!(g.total_degree(), 6);
    }

    #[test]
    fn from_csr_rejects_malformed() {
        // offsets not starting at 0
        assert!(Graph::from_csr(vec![1, 2], vec![0]).is_err());
        // offsets not matching neighbors length
        assert!(Graph::from_csr(vec![0, 2], vec![0]).is_err());
        // decreasing offsets
        assert!(Graph::from_csr(vec![0, 2, 1, 3], vec![1, 2, 0]).is_err());
        // out-of-range neighbor
        assert!(Graph::from_csr(vec![0, 1], vec![5]).is_err());
        // empty offsets
        assert!(Graph::from_csr(vec![], vec![]).is_err());
    }

    #[test]
    fn from_csr_accepts_valid() {
        // path 0-1-2
        let g = Graph::from_csr(vec![0, 1, 3, 4], vec![1, 0, 2, 1]).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbor(1, 0), 0);
        assert_eq!(g.neighbor(1, 1), 2);
    }

    #[test]
    fn regularity_detects_irregular() {
        // path 0-1-2: degrees 1,2,1
        let g = Graph::from_csr(vec![0, 1, 3, 4], vec![1, 0, 2, 1]).unwrap();
        assert_eq!(g.regularity(), None);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 1);
    }
}
