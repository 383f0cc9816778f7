//! The transition matrix of the simple random walk, and exact
//! distribution evolution.
//!
//! The experiment harness cross-checks Monte-Carlo walk estimates against
//! these exact computations on small graphs, and the tensor chain of
//! Lemma 11 evolves its distributions with them.

use crate::matrix::CsrMatrix;
use cobra_graph::Graph;

/// The row-stochastic transition matrix `P` of the simple random walk:
/// `P[v][u] = 1/d(v)` for `u ∈ N(v)`.
pub fn transition_matrix(g: &Graph) -> CsrMatrix {
    let rows: Vec<Vec<(u32, f64)>> = g
        .vertices()
        .map(|v| {
            let d = g.degree(v) as f64;
            g.neighbors(v).iter().map(|&u| (u, 1.0 / d)).collect()
        })
        .collect();
    CsrMatrix::from_rows(g.num_vertices(), rows)
}

/// The stationary distribution of the simple walk on a connected graph:
/// `π(v) = d(v) / 2m`.
pub fn stationary_distribution(g: &Graph) -> Vec<f64> {
    let total = g.total_degree() as f64;
    assert!(total > 0.0, "graph with no edges has no stationary walk");
    g.vertices().map(|v| g.degree(v) as f64 / total).collect()
}

/// Evolve a row-vector distribution `steps` times: `π ← π P`.
pub fn evolve(p: &CsrMatrix, dist: &[f64], steps: usize) -> Vec<f64> {
    assert_eq!(p.n_rows(), p.n_cols(), "square transition matrix");
    let mut cur = dist.to_vec();
    let mut next = vec![0.0; dist.len()];
    for _ in 0..steps {
        p.matvec_transpose(&cur, &mut next);
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// Total-variation distance `½‖p − q‖₁`.
pub fn tv_distance(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len());
    0.5 * p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>()
}

/// The point-mass distribution at `v`.
pub fn delta(n: usize, v: usize) -> Vec<f64> {
    let mut d = vec![0.0; n];
    d[v] = 1.0;
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators::classic;

    #[test]
    fn transition_matrix_is_stochastic() {
        let g = classic::star(6).unwrap();
        let p = transition_matrix(&g);
        assert!(p.is_row_stochastic(1e-12));
        assert_eq!(p.get(1, 0), 1.0); // leaf -> hub with certainty
        assert!((p.get(0, 3) - 0.2).abs() < 1e-12); // hub -> each leaf 1/5
    }

    #[test]
    fn stationary_is_degree_proportional() {
        let g = classic::star(5).unwrap();
        let pi = stationary_distribution(&g);
        assert!((pi[0] - 0.5).abs() < 1e-12); // hub holds half the mass
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stationary_is_fixed_point() {
        let g = classic::complete(6).unwrap();
        let p = transition_matrix(&g);
        let pi = stationary_distribution(&g);
        let evolved = evolve(&p, &pi, 3);
        assert!(tv_distance(&pi, &evolved) < 1e-12);
    }

    #[test]
    fn evolution_converges_on_non_bipartite_graph() {
        let g = classic::complete(5).unwrap();
        let p = transition_matrix(&g);
        let start = delta(5, 0);
        let evolved = evolve(&p, &start, 50);
        let pi = stationary_distribution(&g);
        assert!(tv_distance(&evolved, &pi) < 1e-6);
    }

    #[test]
    fn bipartite_graph_oscillates_without_laziness() {
        // Even cycle is bipartite: the parity of the walker is
        // deterministic, so TV distance to stationary stays 1/2.
        let g = classic::cycle(4).unwrap();
        let p = transition_matrix(&g);
        let evolved = evolve(&p, &delta(4, 0), 101);
        let pi = stationary_distribution(&g);
        assert!(tv_distance(&evolved, &pi) > 0.4);
    }

    #[test]
    fn tv_distance_properties() {
        let p = [0.5, 0.5, 0.0];
        let q = [0.0, 0.5, 0.5];
        assert!((tv_distance(&p, &q) - 0.5).abs() < 1e-12);
        assert_eq!(tv_distance(&p, &p), 0.0);
    }

    #[test]
    fn evolve_zero_steps_is_identity() {
        let g = classic::cycle(5).unwrap();
        let p = transition_matrix(&g);
        let d = delta(5, 2);
        assert_eq!(evolve(&p, &d, 0), d);
    }
}
