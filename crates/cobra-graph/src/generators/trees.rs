//! Complete `k`-ary trees.
//!
//! The paper's §3 closes with a remark that the multi-step drift analysis of
//! Lemma 2 shows 2-cobra walks on `k`-ary trees have cover time proportional
//! to the tree's diameter for `k ∈ {2, 3}`, and conjectures this for every
//! constant `k`. Experiment E10 tests exactly that, sweeping depth for
//! `k ∈ {2, 3, 4, 5}`.

use crate::builder::GraphBuilder;
use crate::csr::{Graph, Vertex};
use crate::error::{GraphError, Result};

/// Number of vertices of the complete `k`-ary tree of the given `depth`
/// (a single root is depth 0): `(k^{depth+1} - 1) / (k - 1)` for `k ≥ 2`,
/// `depth + 1` for `k = 1`. Counting stops once the total passes `2³²`,
/// the size of the id space, so a tree too large to build is reported as
/// some count above `2³²` without walking all its levels.
pub fn kary_tree_size(k: usize, depth: u32) -> u64 {
    if k == 1 {
        depth as u64 + 1
    } else {
        let mut total: u64 = 0;
        let mut level: u64 = 1;
        for _ in 0..=depth {
            total = total.saturating_add(level);
            if total > 1 << 32 {
                break;
            }
            level = level.saturating_mul(k as u64);
        }
        total
    }
}

/// The complete `k`-ary tree of the given `depth`.
///
/// Vertices are numbered level by level: the root is 0 and the children of
/// `v` are `k·v + 1, …, k·v + k`. The diameter is `2·depth`.
///
/// ```
/// let t = cobra_graph::generators::kary_tree(2, 3).unwrap();
/// assert_eq!(t.num_vertices(), 15);
/// assert_eq!(t.degree(0), 2);   // root
/// assert_eq!(t.degree(14), 1);  // leaf
/// ```
pub fn kary_tree(k: usize, depth: u32) -> Result<Graph> {
    if k == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "k-ary tree needs k >= 1".into(),
        });
    }
    let n64 = kary_tree_size(k, depth);
    crate::error::check_vertex_count(n64)?;
    let n = n64 as usize;
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for v in 0..n {
        for c in 1..=k {
            let child = v * k + c;
            if child < n {
                b.add_edge(v as Vertex, child as Vertex)?;
            } else {
                break;
            }
        }
    }
    b.build()
}

/// Parent of vertex `v` in the level-order numbering of a `k`-ary tree
/// (`None` for the root).
pub fn kary_parent(k: usize, v: Vertex) -> Option<Vertex> {
    if v == 0 {
        None
    } else {
        Some(((v as usize - 1) / k) as Vertex)
    }
}

/// Depth of vertex `v` in a complete `k`-ary tree (root has depth 0).
pub fn kary_depth(k: usize, mut v: Vertex) -> u32 {
    let mut d = 0;
    while let Some(p) = kary_parent(k, v) {
        v = p;
        d += 1;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn sizes() {
        assert_eq!(kary_tree_size(2, 0), 1);
        assert_eq!(kary_tree_size(2, 1), 3);
        assert_eq!(kary_tree_size(2, 3), 15);
        assert_eq!(kary_tree_size(3, 2), 13);
        assert_eq!(kary_tree_size(1, 5), 6);
    }

    #[test]
    fn binary_tree_depth3() {
        let t = kary_tree(2, 3).unwrap();
        assert_eq!(t.num_vertices(), 15);
        assert_eq!(t.num_edges(), 14);
        assert!(metrics::is_connected(&t));
        assert_eq!(t.degree(0), 2);
        // internal non-root: degree 3
        assert_eq!(t.degree(1), 3);
        // leaves: degree 1
        for v in 7..15u32 {
            assert_eq!(t.degree(v), 1);
        }
    }

    #[test]
    fn unary_tree_is_path() {
        let t = kary_tree(1, 4).unwrap();
        assert_eq!(t.num_vertices(), 5);
        assert_eq!(t.num_edges(), 4);
        assert_eq!(t.degree(0), 1);
        assert_eq!(t.degree(2), 2);
    }

    #[test]
    fn singleton_tree() {
        let t = kary_tree(3, 0).unwrap();
        assert_eq!(t.num_vertices(), 1);
        assert_eq!(t.num_edges(), 0);
    }

    #[test]
    fn parent_child_consistency() {
        let k = 3;
        let t = kary_tree(k, 3).unwrap();
        for v in t.vertices().skip(1) {
            let p = kary_parent(k, v).unwrap();
            assert!(t.has_edge(v, p), "vertex {v} should link to parent {p}");
        }
    }

    #[test]
    fn depth_function() {
        assert_eq!(kary_depth(2, 0), 0);
        assert_eq!(kary_depth(2, 1), 1);
        assert_eq!(kary_depth(2, 2), 1);
        assert_eq!(kary_depth(2, 3), 2);
        assert_eq!(kary_depth(2, 14), 3);
    }

    #[test]
    fn diameter_is_twice_depth() {
        for (k, depth) in [(2usize, 3u32), (3, 2), (4, 2)] {
            let t = kary_tree(k, depth).unwrap();
            let diam = metrics::diameter(&t).unwrap();
            assert_eq!(diam, 2 * depth as usize);
        }
    }

    #[test]
    fn rejects_k_zero() {
        assert!(kary_tree(0, 2).is_err());
    }

    #[test]
    fn rejects_an_oversized_depth_without_walking_it() {
        assert_eq!(kary_tree_size(2, 31), u32::MAX as u64);
        assert!(kary_tree_size(2, 32) > 1 << 32);
        assert!(matches!(
            kary_tree(2, u32::MAX),
            Err(GraphError::TooManyVertices { .. })
        ));
        assert!(matches!(
            crate::ImplicitKaryTree::new(2, u32::MAX),
            Err(GraphError::TooManyVertices { .. })
        ));
    }
}
