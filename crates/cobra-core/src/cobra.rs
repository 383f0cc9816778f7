//! The `k`-cobra walk — the paper's central process (§2).
//!
//! > "It starts at time t = 0 at an arbitrary vertex v, at which a pebble
//! > is placed. In the next and every subsequent time step, every pebble
//! > in G clones itself k − 1 times […]. Each pebble then independently
//! > selects a neighbor of its current vertex uniformly at random and
//! > moves to it. Once all pebbles have made their moves, the coalescing
//! > phase begins: if two or more pebbles are at the same vertex they
//! > coalesce into a single pebble."
//!
//! Equivalently: the active set `S_{t+1}` is the union of `k` independent
//! uniformly-random out-choices from each vertex of `S_t`. With `k = 1`
//! this is exactly the simple random walk; the paper's results are for
//! `k = 2`.

use crate::frontier::Frontier;
use crate::process::{ImplicitDraw, NeighborDraw, Process, StateView, TypedProcess, TypedState};
use cobra_graph::{ImplicitGraph, Vertex};
use rand::Rng;

/// Specification of a `k`-cobra walk.
///
/// `branching_factor = 1` degenerates to the simple random walk; the
/// paper's headline results use 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CobraWalk {
    branching_factor: u32,
}

impl CobraWalk {
    /// A cobra walk with the given branching factor `k ≥ 1`.
    pub fn new(branching_factor: u32) -> Self {
        assert!(branching_factor >= 1, "branching factor must be >= 1");
        CobraWalk { branching_factor }
    }

    /// The paper's default: the 2-cobra walk.
    pub fn standard() -> Self {
        CobraWalk::new(2)
    }

    /// The branching factor `k`.
    pub fn branching_factor(&self) -> u32 {
        self.branching_factor
    }
}

impl Process for CobraWalk {
    fn name(&self) -> String {
        format!("cobra(k={})", self.branching_factor)
    }
}

impl<G: ImplicitGraph + ?Sized> TypedProcess<G> for CobraWalk {
    type State = CobraState;

    fn spawn_typed(&self, g: &G, start: Vertex) -> CobraState {
        assert!((start as usize) < g.num_vertices(), "start vertex in range");
        let mut cur = Frontier::new(g.num_vertices());
        cur.insert(start);
        CobraState {
            k: self.branching_factor,
            cur,
            next: Frontier::new(g.num_vertices()),
            occ: vec![start],
        }
    }

    fn lane_branching(&self) -> Option<u32> {
        // One cobra round IS k iid uniform out-draws per frontier vertex.
        Some(self.branching_factor)
    }

    fn respawn_typed(&self, g: &G, start: Vertex, state: &mut CobraState) {
        let n = g.num_vertices();
        if state.cur.capacity() != n {
            *state = self.spawn_typed(g, start);
            return;
        }
        assert!((start as usize) < n, "start vertex in range");
        state.k = self.branching_factor;
        crate::frontier::reinit_frontier_run(
            &mut state.cur,
            &mut state.next,
            &mut state.occ,
            start,
        );
    }
}

/// Mutable state of a running cobra walk: the active set as a hybrid
/// sparse/dense [`Frontier`].
///
/// The step iterates the frontier in its native order — insertion order
/// while sparse, ascending vertex order once dense (which streams the CSR
/// adjacency arrays sequentially instead of hopping around them). The
/// order is deterministic, and every step method shares this one body,
/// so they consume identical RNG streams. `occ` is a materialized copy of
/// the active set kept for [`StateView::occupied`]; the fast-path
/// [`TypedState::step_fast`] skips maintaining it because the drivers
/// read the frontier directly. No per-step allocation once warmed up.
pub struct CobraState {
    k: u32,
    cur: Frontier,
    next: Frontier,
    occ: Vec<Vertex>,
}

impl CobraState {
    /// One round of the cobra dynamics: `k` uniform out-choices per active
    /// vertex (through a [`NeighborDraw`] strategy — all strategies are
    /// stream-compatible, so every route makes the same draws),
    /// deduplicated into the next frontier through the branch-free
    /// quiet-insert path. `MAINTAIN_OCC` is compile-time so
    /// [`TypedState::step`] rematerializes its `occupied()` slice after the
    /// round while the fast route drops that bookkeeping entirely — same
    /// draws either way.
    #[inline]
    fn advance<const MAINTAIN_OCC: bool, G: ?Sized, D: NeighborDraw<G>, R: Rng + ?Sized>(
        &mut self,
        g: &G,
        draw: &D,
        rng: &mut R,
    ) {
        let CobraState { k, cur, next, occ } = self;
        next.clear();
        cur.for_each(|v| {
            draw.draw_many(g, v, *k, rng, |u| next.insert_quiet(u));
        });
        next.finalize_len();
        if MAINTAIN_OCC {
            occ.clear();
            next.for_each(|v| occ.push(v));
        }
        std::mem::swap(cur, next);
    }
}

impl StateView for CobraState {
    fn occupied(&self) -> &[Vertex] {
        &self.occ
    }

    fn support_size(&self) -> usize {
        self.cur.len()
    }

    fn frontier(&self) -> Option<&Frontier> {
        Some(&self.cur)
    }
}

impl<G: ImplicitGraph + ?Sized> TypedState<G> for CobraState {
    fn step<R: Rng + ?Sized>(&mut self, g: &G, rng: &mut R) {
        self.advance::<true, G, _, R>(g, &ImplicitDraw, rng);
    }

    fn step_fast<R: Rng + ?Sized>(&mut self, g: &G, rng: &mut R) {
        self.advance::<false, G, _, R>(g, &ImplicitDraw, rng);
    }

    fn step_sampled<D: NeighborDraw<G>, R: Rng + ?Sized>(&mut self, g: &G, draw: &D, rng: &mut R) {
        self.advance::<false, G, D, R>(g, draw, rng);
    }

    fn step_probed<D: NeighborDraw<G>, R: Rng + ?Sized, Pb: cobra_obs::Probe>(
        &mut self,
        g: &G,
        draw: &D,
        rng: &mut R,
        probe: &mut Pb,
    ) {
        // Draw accounting costs two frontier-length reads (O(1) field
        // loads), never a kernel change: every active vertex makes
        // exactly k draws, and a draw "merged" iff it failed to open a
        // new slot in the next frontier. Under `NoopProbe` both reads
        // and the hook are dead code and the optimizer restores the
        // exact `step_sampled` body.
        let senders = self.cur.len() as u64;
        self.advance::<false, G, D, R>(g, draw, rng);
        let draws = senders * u64::from(self.k);
        probe.on_draws(draws, draws - self.cur.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators::{classic, grid, hypercube};
    use cobra_graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_steps(
        spec: &CobraWalk,
        g: &Graph,
        start: Vertex,
        steps: usize,
        seed: u64,
    ) -> CobraState {
        let mut st = spec.spawn_typed(g, start);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..steps {
            st.step(g, &mut rng);
        }
        st
    }

    #[test]
    #[should_panic(expected = "branching factor")]
    fn rejects_zero_branching() {
        CobraWalk::new(0);
    }

    #[test]
    fn name_includes_k() {
        assert_eq!(CobraWalk::new(3).name(), "cobra(k=3)");
        assert_eq!(CobraWalk::standard().branching_factor(), 2);
    }

    #[test]
    fn initial_state_is_start_vertex() {
        let g = classic::cycle(5).unwrap();
        let st = CobraWalk::standard().spawn_typed(&g, 2);
        assert_eq!(st.occupied(), &[2]);
        assert_eq!(st.support_size(), 1);
    }

    #[test]
    fn active_set_never_empty_and_in_range() {
        let g = grid::grid(&[5, 5]);
        let st = run_steps(&CobraWalk::standard(), &g, 0, 200, 7);
        assert!(!st.occupied().is_empty());
        for &v in st.occupied() {
            assert!((v as usize) < g.num_vertices());
        }
    }

    #[test]
    fn active_set_has_no_duplicates() {
        let g = hypercube::hypercube(5);
        let spec = CobraWalk::new(3);
        let mut st = spec.spawn_typed(&g, 0);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            st.step(&g, &mut rng);
            let mut seen = std::collections::HashSet::new();
            for &v in st.occupied() {
                assert!(seen.insert(v), "duplicate vertex {v} in active set");
            }
        }
    }

    #[test]
    fn growth_is_bounded_by_k() {
        let g = hypercube::hypercube(7);
        let spec = CobraWalk::new(2);
        let mut st = spec.spawn_typed(&g, 0);
        let mut rng = StdRng::seed_from_u64(13);
        let mut prev = st.occupied().len();
        for _ in 0..60 {
            st.step(&g, &mut rng);
            let cur = st.occupied().len();
            assert!(
                cur <= 2 * prev,
                "|S_{{t+1}}| = {cur} > 2|S_t| = {}",
                2 * prev
            );
            assert!(cur >= 1);
            prev = cur;
        }
    }

    #[test]
    fn k1_is_a_single_walk() {
        let g = classic::cycle(8).unwrap();
        let spec = CobraWalk::new(1);
        let mut st = spec.spawn_typed(&g, 0);
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..40 {
            st.step(&g, &mut rng);
            assert_eq!(st.occupied().len(), 1);
        }
    }

    #[test]
    fn steps_stay_on_neighbors() {
        // On a path, a single step from the active set must land on
        // adjacent vertices only.
        let g = classic::path(10).unwrap();
        let spec = CobraWalk::standard();
        let mut st = spec.spawn_typed(&g, 5);
        let mut rng = StdRng::seed_from_u64(19);
        st.step(&g, &mut rng);
        for &v in st.occupied() {
            assert!(g.has_edge(5, v));
        }
    }

    #[test]
    fn complete_graph_active_set_expands_quickly() {
        let g = classic::complete(64).unwrap();
        let spec = CobraWalk::standard();
        let mut st = spec.spawn_typed(&g, 0);
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..10 {
            st.step(&g, &mut rng);
        }
        // After 10 doubling-ish rounds on K_64 the active set should be
        // well beyond a handful of vertices.
        assert!(st.occupied().len() > 8);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = grid::grid(&[6, 6]);
        let a = run_steps(&CobraWalk::standard(), &g, 0, 30, 99);
        let b = run_steps(&CobraWalk::standard(), &g, 0, 30, 99);
        let mut av: Vec<_> = a.occupied().to_vec();
        let mut bv: Vec<_> = b.occupied().to_vec();
        av.sort_unstable();
        bv.sort_unstable();
        assert_eq!(av, bv);
    }
}
