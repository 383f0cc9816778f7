//! The simple random walk — the baseline process.
//!
//! Feige's classical bounds put the cover time of the simple walk between
//! Θ(n log n) and Θ(n³) (§1.2); every experiment that claims a cobra-walk
//! speedup measures against this process.

use crate::process::{Active, NeighborDraw, Process, StateView, TypedProcess, TypedState};
use cobra_graph::{ImplicitGraph, Vertex};
use rand::Rng;

/// Specification of the simple random walk: each round the pebble moves
/// to a uniformly random neighbor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimpleWalk;

impl SimpleWalk {
    /// The simple random walk.
    pub fn new() -> Self {
        SimpleWalk
    }
}

impl Process for SimpleWalk {
    fn name(&self) -> String {
        "simple-rw".to_string()
    }
}

impl<G: ImplicitGraph + ?Sized> TypedProcess<G> for SimpleWalk {
    type State = SimpleState;

    fn spawn_typed(&self, g: &G, start: Vertex) -> SimpleState {
        assert!((start as usize) < g.num_vertices(), "start vertex in range");
        SimpleState { pos: [start] }
    }

    fn lane_branching(&self) -> Option<u32> {
        // The simple walk is the 1-cobra walk.
        Some(1)
    }
}

/// Mutable state of a running simple walk: one pebble position.
pub struct SimpleState {
    pos: [Vertex; 1],
}

impl StateView for SimpleState {
    fn active(&self) -> Active<'_> {
        Active::Pebbles(&self.pos)
    }
}

impl<G: ImplicitGraph + ?Sized> TypedState<G> for SimpleState {
    fn step_probed<D: NeighborDraw<G>, R: Rng + ?Sized, Pb: cobra_obs::Probe>(
        &mut self,
        g: &G,
        draw: &D,
        rng: &mut R,
        _probe: &mut Pb,
    ) {
        self.pos[0] = draw.draw_one(g, self.pos[0], rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators::classic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn names() {
        assert_eq!(SimpleWalk::new().name(), "simple-rw");
    }

    #[test]
    fn walk_moves_along_edges() {
        let g = classic::cycle(7).unwrap();
        let spec = SimpleWalk::new();
        let mut st = spec.spawn_typed(&g, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let mut prev = 3;
        for _ in 0..100 {
            st.step(&g, &mut rng);
            let cur = st.active().to_vec()[0];
            assert!(g.has_edge(prev, cur), "{prev} -> {cur} not an edge");
            prev = cur;
        }
    }

    #[test]
    fn non_lazy_walk_never_holds_on_triangle_free_graph() {
        let g = classic::cycle(8).unwrap();
        let spec = SimpleWalk::new();
        let mut st = spec.spawn_typed(&g, 0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut prev = 0;
        for _ in 0..100 {
            st.step(&g, &mut rng);
            let cur = st.active().to_vec()[0];
            assert_ne!(cur, prev);
            prev = cur;
        }
    }

    #[test]
    fn support_is_always_one() {
        let g = classic::star(6).unwrap();
        let spec = SimpleWalk::new();
        let mut st = spec.spawn_typed(&g, 0);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            st.step(&g, &mut rng);
            assert_eq!(st.support_size(), 1);
        }
    }
}
