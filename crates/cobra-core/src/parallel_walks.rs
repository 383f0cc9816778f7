//! `k` independent parallel random walks (Alon et al., Elsässer–Sauerwald;
//! paper §1.2 related work).
//!
//! Unlike the cobra walk, the number of walkers is a fixed parameter and
//! walkers neither branch nor coalesce. The tensor-product machinery that
//! makes parallel walks analyzable is exactly what breaks for cobra walks
//! (§1.2), which is why the paper treats them as a distinct baseline.

use crate::process::{random_neighbor, Process, StateView, TypedProcess, TypedState};
use cobra_graph::{Graph, Vertex};
use rand::Rng;

/// Specification of `k` independent simple random walks, all starting at
/// the same vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelWalks {
    walkers: usize,
}

impl ParallelWalks {
    /// `walkers ≥ 1` independent walkers.
    pub fn new(walkers: usize) -> Self {
        assert!(walkers >= 1, "need at least one walker");
        ParallelWalks { walkers }
    }

    /// Number of walkers.
    pub fn walkers(&self) -> usize {
        self.walkers
    }
}

impl Process for ParallelWalks {
    fn name(&self) -> String {
        format!("parallel-rw(k={})", self.walkers)
    }
}

impl TypedProcess for ParallelWalks {
    type State = ParallelState;

    fn spawn_typed(&self, g: &Graph, start: Vertex) -> ParallelState {
        assert!((start as usize) < g.num_vertices(), "start vertex in range");
        ParallelState {
            positions: vec![start; self.walkers],
        }
    }
}

/// Mutable state of `k` parallel walks: one position per walker.
pub struct ParallelState {
    positions: Vec<Vertex>,
}

impl TypedState for ParallelState {
    fn step<R: Rng + ?Sized>(&mut self, g: &Graph, rng: &mut R) {
        for pos in &mut self.positions {
            *pos = random_neighbor(g, *pos, rng);
        }
    }
}

impl StateView for ParallelState {
    fn occupied(&self) -> &[Vertex] {
        &self.positions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators::classic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn walker_count_is_invariant() {
        let g = classic::cycle(11).unwrap();
        let spec = ParallelWalks::new(6);
        assert_eq!(spec.walkers(), 6);
        let mut st = spec.spawn_typed(&g, 0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            st.step(&g, &mut rng);
            assert_eq!(st.occupied().len(), 6);
        }
    }

    #[test]
    fn walkers_move_along_edges() {
        let g = classic::path(8).unwrap();
        let spec = ParallelWalks::new(3);
        let mut st = spec.spawn_typed(&g, 4);
        let mut rng = StdRng::seed_from_u64(2);
        let mut prev = st.occupied().to_vec();
        for _ in 0..50 {
            st.step(&g, &mut rng);
            for (i, &cur) in st.occupied().iter().enumerate() {
                assert!(g.has_edge(prev[i], cur));
            }
            prev = st.occupied().to_vec();
        }
    }

    #[test]
    fn walkers_eventually_diverge() {
        let g = classic::complete(10).unwrap();
        let spec = ParallelWalks::new(4);
        let mut st = spec.spawn_typed(&g, 0);
        let mut rng = StdRng::seed_from_u64(3);
        st.step(&g, &mut rng);
        let distinct: std::collections::HashSet<_> = st.occupied().iter().collect();
        assert!(distinct.len() > 1, "4 walkers on K10 should scatter");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_zero_walkers() {
        ParallelWalks::new(0);
    }

    #[test]
    fn name_contains_count() {
        assert_eq!(ParallelWalks::new(5).name(), "parallel-rw(k=5)");
    }
}
