//! Push rumor spreading (Feige, Peleg, Raghavan, Upfal; paper §1.2).
//!
//! The push process completes on every undirected graph in O(n log n)
//! rounds w.h.p., and the paper notes this bound has been *conjectured*
//! for cobra walks (§1.2, §6). Experiment E11 compares both on the star
//! graph, where the conjectured Ω(n log n) lower bound for cobra walks is
//! attained.
//!
//! Unlike walks, gossip states are monotone: an informed vertex stays
//! informed. `active()` reports only the vertices informed in the last
//! round (plus the source initially), so the driver's union-over-time
//! coverage matches the usual "all vertices informed" completion time.

use crate::process::{Active, NeighborDraw, StateView, TypedProcess, TypedState};
use cobra_graph::{Graph, Vertex};
use rand::Rng;

/// Push gossip: each informed vertex sends the rumor to a uniformly random
/// neighbor each round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PushGossip;

impl TypedProcess for PushGossip {
    type State = GossipState;

    fn spawn_typed(&self, g: &Graph, start: Vertex) -> GossipState {
        GossipState::new(g, start)
    }

    fn respawn_typed(&self, g: &Graph, start: Vertex, state: &mut GossipState) {
        state.reinit(g, start);
    }
}

/// Mutable state of a running push-gossip process.
pub struct GossipState {
    /// Whether each vertex knows the rumor.
    informed: Vec<bool>,
    /// All informed vertices, in discovery order. `fresh_from` indexes the
    /// suffix informed by the most recent round.
    informed_list: Vec<Vertex>,
    fresh_from: usize,
}

impl GossipState {
    fn new(g: &Graph, start: Vertex) -> Self {
        assert!((start as usize) < g.num_vertices(), "start vertex in range");
        let mut informed = vec![false; g.num_vertices()];
        informed[start as usize] = true;
        GossipState {
            informed,
            informed_list: vec![start],
            fresh_from: 0,
        }
    }

    /// Reinitialize for a new run: un-inform exactly the vertices that
    /// were informed (O(dirty), no reallocation, no O(n) refill), then
    /// re-seed `start`.
    fn reinit(&mut self, g: &Graph, start: Vertex) {
        if self.informed.len() != g.num_vertices() {
            *self = GossipState::new(g, start);
            return;
        }
        assert!((start as usize) < g.num_vertices(), "start vertex in range");
        for &v in &self.informed_list {
            self.informed[v as usize] = false;
        }
        self.informed_list.clear();
        self.informed[start as usize] = true;
        self.informed_list.push(start);
        self.fresh_from = 0;
    }
}

impl TypedState for GossipState {
    fn step_probed<D: NeighborDraw, R: Rng + ?Sized, Pb: cobra_obs::Probe>(
        &mut self,
        g: &Graph,
        draw: &D,
        rng: &mut R,
        _probe: &mut Pb,
    ) {
        let already = self.informed_list.len();
        self.fresh_from = already;
        // Every vertex informed *before* this round pushes once.
        for i in 0..already {
            let u = draw.draw_one(g, self.informed_list[i], rng);
            if !self.informed[u as usize] {
                self.informed[u as usize] = true;
                self.informed_list.push(u);
            }
        }
    }
}

impl StateView for GossipState {
    fn active(&self) -> Active<'_> {
        Active::Pebbles(&self.informed_list[self.fresh_from..])
    }

    fn support_size(&self) -> usize {
        self.informed_list.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators::classic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn initial_state() {
        let g = classic::complete(5).unwrap();
        let st = PushGossip.spawn_typed(&g, 0);
        assert_eq!(st.active().to_vec(), [0]);
        assert_eq!(st.support_size(), 1);
    }

    #[test]
    fn informed_set_is_monotone() {
        let g = classic::cycle(12).unwrap();
        let mut st = PushGossip.spawn_typed(&g, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut prev = 1;
        for _ in 0..100 {
            st.step(&g, &mut rng);
            let cur = st.support_size();
            assert!(cur >= prev);
            prev = cur;
        }
        assert_eq!(prev, 12, "cycle must be fully informed eventually");
    }

    #[test]
    fn push_at_most_doubles() {
        let g = classic::complete(64).unwrap();
        let mut st = PushGossip.spawn_typed(&g, 0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut prev = 1;
        for _ in 0..30 {
            st.step(&g, &mut rng);
            let cur = st.support_size();
            assert!(cur <= 2 * prev, "push informed {cur} > 2×{prev}");
            prev = cur;
        }
    }

    #[test]
    fn occupied_reports_only_fresh_vertices() {
        let g = classic::complete(32).unwrap();
        let mut st = PushGossip.spawn_typed(&g, 0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        seen.insert(0u32);
        for _ in 0..40 {
            st.step(&g, &mut rng);
            for v in st.active().to_vec() {
                assert!(seen.insert(v), "vertex {v} reported fresh twice");
            }
        }
        assert_eq!(seen.len(), 32);
    }
}
