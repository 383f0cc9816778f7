//! Simple (and lazy) random walks — the baseline process.
//!
//! Feige's classical bounds put the cover time of the simple walk between
//! Θ(n log n) and Θ(n³) (§1.2); every experiment that claims a cobra-walk
//! speedup measures against this process.

use crate::process::{
    bernoulli, Active, NeighborDraw, Process, StateView, TypedProcess, TypedState,
};
use cobra_graph::{ImplicitGraph, Vertex};
use rand::Rng;

/// Specification of a simple random walk, optionally lazy.
///
/// A lazy walk stays put with probability `laziness` each round and
/// otherwise moves to a uniformly random neighbor. `laziness = 0` is the
/// standard simple random walk.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimpleWalk {
    laziness: f64,
}

impl SimpleWalk {
    /// The standard (non-lazy) simple random walk.
    pub fn new() -> Self {
        SimpleWalk { laziness: 0.0 }
    }

    /// A lazy walk holding with probability `laziness ∈ [0, 1)`.
    pub fn lazy(laziness: f64) -> Self {
        assert!((0.0..1.0).contains(&laziness), "laziness must be in [0, 1)");
        SimpleWalk { laziness }
    }

    /// The hold probability.
    pub fn laziness(&self) -> f64 {
        self.laziness
    }
}

impl Default for SimpleWalk {
    fn default() -> Self {
        SimpleWalk::new()
    }
}

impl Process for SimpleWalk {
    fn name(&self) -> String {
        if self.laziness == 0.0 {
            "simple-rw".to_string()
        } else {
            format!("lazy-rw({})", self.laziness)
        }
    }
}

impl<G: ImplicitGraph + ?Sized> TypedProcess<G> for SimpleWalk {
    type State = SimpleState;

    fn spawn_typed(&self, g: &G, start: Vertex) -> SimpleState {
        assert!((start as usize) < g.num_vertices(), "start vertex in range");
        SimpleState {
            laziness: self.laziness,
            pos: [start],
        }
    }

    fn lane_branching(&self) -> Option<u32> {
        // The non-lazy walk is the 1-cobra walk; a lazy walk's hold coin
        // has no lane-parallel form, so it stays on the per-trial engines.
        (self.laziness == 0.0).then_some(1)
    }
}

/// Mutable state of a running simple walk: one pebble position.
pub struct SimpleState {
    laziness: f64,
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
        if self.laziness > 0.0 && bernoulli(self.laziness, rng) {
            return;
        }
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
        assert_eq!(SimpleWalk::lazy(0.5).name(), "lazy-rw(0.5)");
        assert_eq!(SimpleWalk::default(), SimpleWalk::new());
    }

    #[test]
    #[should_panic(expected = "laziness")]
    fn rejects_laziness_one() {
        SimpleWalk::lazy(1.0);
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
    fn lazy_walk_sometimes_holds() {
        let g = classic::cycle(7).unwrap();
        let spec = SimpleWalk::lazy(0.5);
        let mut st = spec.spawn_typed(&g, 0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut holds = 0;
        let mut prev = 0;
        let steps = 400;
        for _ in 0..steps {
            st.step(&g, &mut rng);
            let cur = st.active().to_vec()[0];
            if cur == prev {
                holds += 1;
            }
            prev = cur;
        }
        let frac = holds as f64 / steps as f64;
        assert!((frac - 0.5).abs() < 0.1, "hold fraction {frac}");
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
