//! Push / pull / push-pull rumor spreading (Feige, Peleg, Raghavan, Upfal;
//! paper §1.2).
//!
//! The push process completes on every undirected graph in O(n log n)
//! rounds w.h.p., and the paper notes this bound has been *conjectured*
//! for cobra walks (§1.2, §6). Experiment E11 compares both on the star
//! graph, where the conjectured Ω(n log n) lower bound for cobra walks is
//! attained.
//!
//! Unlike walks, gossip states are monotone: an informed vertex stays
//! informed. `occupied()` reports only the vertices informed in the last
//! round (plus the source initially), so the driver's union-over-time
//! coverage matches the usual "all vertices informed" completion time.

use crate::process::{random_neighbor, Process, TypedProcess, TypedState};
use cobra_graph::{Graph, Vertex};
use rand::Rng;

/// Which gossip exchange directions are active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Push,
    Pull,
    PushPull,
}

/// Push gossip: each informed vertex sends the rumor to a uniformly random
/// neighbor each round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PushGossip;

/// Pull gossip: each uninformed vertex polls a uniformly random neighbor
/// and becomes informed if that neighbor knows the rumor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PullGossip;

/// Push–pull gossip: both exchanges every round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PushPullGossip;

impl Process for PushGossip {
    fn name(&self) -> String {
        "gossip-push".into()
    }
}

impl TypedProcess for PushGossip {
    type State = GossipState;

    fn spawn_typed(&self, g: &Graph, start: Vertex) -> GossipState {
        GossipState::new(g, start, Mode::Push)
    }

    fn respawn_typed(&self, g: &Graph, start: Vertex, state: &mut GossipState) {
        state.reinit(g, start, Mode::Push);
    }
}

impl Process for PullGossip {
    fn name(&self) -> String {
        "gossip-pull".into()
    }
}

impl TypedProcess for PullGossip {
    type State = GossipState;

    fn spawn_typed(&self, g: &Graph, start: Vertex) -> GossipState {
        GossipState::new(g, start, Mode::Pull)
    }

    fn respawn_typed(&self, g: &Graph, start: Vertex, state: &mut GossipState) {
        state.reinit(g, start, Mode::Pull);
    }
}

impl Process for PushPullGossip {
    fn name(&self) -> String {
        "gossip-pushpull".into()
    }
}

impl TypedProcess for PushPullGossip {
    type State = GossipState;

    fn spawn_typed(&self, g: &Graph, start: Vertex) -> GossipState {
        GossipState::new(g, start, Mode::PushPull)
    }

    fn respawn_typed(&self, g: &Graph, start: Vertex, state: &mut GossipState) {
        state.reinit(g, start, Mode::PushPull);
    }
}

const NEVER: u32 = u32::MAX;

/// Mutable state of a running gossip process (any exchange mode).
pub struct GossipState {
    mode: Mode,
    /// Round at which each vertex became informed (`NEVER` if uninformed).
    informed_at: Vec<u32>,
    /// All informed vertices, in discovery order. `fresh_from` indexes the
    /// suffix informed by the most recent round.
    informed_list: Vec<Vertex>,
    fresh_from: usize,
    round: u32,
}

impl GossipState {
    fn new(g: &Graph, start: Vertex, mode: Mode) -> Self {
        assert!((start as usize) < g.num_vertices(), "start vertex in range");
        let mut informed_at = vec![NEVER; g.num_vertices()];
        informed_at[start as usize] = 0;
        GossipState {
            mode,
            informed_at,
            informed_list: vec![start],
            fresh_from: 0,
            round: 0,
        }
    }

    /// Reinitialize for a new run: un-inform exactly the vertices that
    /// were informed (O(dirty), no reallocation, no O(n) refill), then
    /// re-seed `start`. Shared by the three gossip modes' `respawn_typed`.
    fn reinit(&mut self, g: &Graph, start: Vertex, mode: Mode) {
        if self.informed_at.len() != g.num_vertices() {
            *self = GossipState::new(g, start, mode);
            return;
        }
        assert!((start as usize) < g.num_vertices(), "start vertex in range");
        for &v in &self.informed_list {
            self.informed_at[v as usize] = NEVER;
        }
        self.informed_list.clear();
        self.informed_at[start as usize] = 0;
        self.informed_list.push(start);
        self.mode = mode;
        self.fresh_from = 0;
        self.round = 0;
    }

    /// Number of informed vertices.
    fn informed_count(&self) -> usize {
        self.informed_list.len()
    }
}

impl TypedState for GossipState {
    fn step<R: Rng + ?Sized>(&mut self, g: &Graph, rng: &mut R) {
        let already = self.informed_list.len();
        self.fresh_from = already;
        self.round += 1;
        let round = self.round;

        if matches!(self.mode, Mode::Push | Mode::PushPull) {
            // Every vertex informed *before* this round pushes once.
            for i in 0..already {
                let v = self.informed_list[i];
                let u = random_neighbor(g, v, rng);
                if self.informed_at[u as usize] == NEVER {
                    self.informed_at[u as usize] = round;
                    self.informed_list.push(u);
                }
            }
        }
        if matches!(self.mode, Mode::Pull | Mode::PushPull) {
            // Every currently-uninformed vertex pulls; informs itself if the
            // polled neighbor was informed before this round. (Standard
            // synchronous semantics: exchanges use the pre-round state.)
            let n = g.num_vertices();
            for v in 0..n as u32 {
                if self.informed_at[v as usize] != NEVER {
                    continue;
                }
                let u = random_neighbor(g, v, rng);
                if self.informed_at[u as usize] < round {
                    self.informed_at[v as usize] = round;
                    self.informed_list.push(v);
                }
            }
        }
    }
}

impl crate::process::StateView for GossipState {
    fn occupied(&self) -> &[Vertex] {
        &self.informed_list[self.fresh_from..]
    }

    fn support_size(&self) -> usize {
        self.informed_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::StateView;
    use cobra_graph::generators::classic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn informed_after<P: TypedProcess>(proc_: &P, g: &Graph, steps: usize, seed: u64) -> usize {
        let mut st = proc_.spawn_typed(g, 0);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..steps {
            st.step(g, &mut rng);
        }
        st.support_size()
    }

    #[test]
    fn initial_state() {
        let g = classic::complete(5).unwrap();
        let st = PushGossip.spawn_typed(&g, 0);
        assert_eq!(st.occupied(), &[0]);
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
            for &v in st.occupied() {
                assert!(seen.insert(v), "vertex {v} reported fresh twice");
            }
        }
        assert_eq!(seen.len(), 32);
    }

    #[test]
    fn pull_works_on_complete_graph() {
        let g = classic::complete(32).unwrap();
        let informed = informed_after(&PullGossip, &g, 40, 4);
        assert_eq!(informed, 32);
    }

    #[test]
    fn pushpull_is_at_least_as_fast_as_push_on_star() {
        // On the star, push from the hub informs one leaf per round, but
        // pull lets every leaf grab the rumor in one round.
        let g = classic::star(50).unwrap();
        let pp = informed_after(&PushPullGossip, &g, 2, 5);
        assert_eq!(pp, 50, "push-pull on a star finishes in 2 rounds");
        let p = informed_after(&PushGossip, &g, 2, 5);
        assert!(p < 50, "push alone cannot finish a 50-star in 2 rounds");
    }

    #[test]
    fn names() {
        assert_eq!(PushGossip.name(), "gossip-push");
        assert_eq!(PullGossip.name(), "gossip-pull");
        assert_eq!(PushPullGossip.name(), "gossip-pushpull");
    }
}
