//! A non-idealized SIS epidemic process.
//!
//! The paper motivates cobra walks as "an idealized process within the
//! Susceptible-Infected-Susceptible model" where transmission is certain.
//! This module provides the non-idealized version: each infected vertex
//! contacts `k` random neighbors per round and each contact transmits
//! independently with probability `p ≤ 1`; the vertex then recovers
//! (and can be reinfected immediately, as in the paper's description).
//!
//! * `p = 1` recovers exactly the `k`-cobra walk;
//! * `p·k ≤ 1` puts the branching factor at/below critical, so the
//!   infection can **die out** — `occupied()` may become empty, and
//!   drivers report never-completed coverage. This boundary is exercised
//!   by tests and gives the epidemic example its subcritical regime.

use crate::frontier::Frontier;
use crate::process::{
    bernoulli, BoundDraw, ImplicitDraw, NeighborDraw, Process, StateView, TypedProcess, TypedState,
};
use cobra_graph::{Graph, Vertex};
use rand::Rng;

/// Specification of the SIS process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SisProcess {
    contacts: u32,
    transmit_prob: f64,
}

impl SisProcess {
    /// `contacts ≥ 1` contacts per round, each transmitting with
    /// probability `transmit_prob ∈ [0, 1]`.
    pub fn new(contacts: u32, transmit_prob: f64) -> Self {
        assert!(contacts >= 1, "need at least one contact per round");
        assert!(
            (0.0..=1.0).contains(&transmit_prob),
            "transmission probability in [0, 1]"
        );
        SisProcess {
            contacts,
            transmit_prob,
        }
    }

    /// Basic reproduction number proxy `R₀ = contacts · transmit_prob`
    /// (ignoring coalescence and graph structure).
    pub fn r0(&self) -> f64 {
        self.contacts as f64 * self.transmit_prob
    }
}

impl Process for SisProcess {
    fn name(&self) -> String {
        format!("sis(k={},p={})", self.contacts, self.transmit_prob)
    }
}

impl TypedProcess for SisProcess {
    type State = SisState;

    fn spawn_typed(&self, g: &Graph, start: Vertex) -> SisState {
        assert!((start as usize) < g.num_vertices(), "start vertex in range");
        let mut cur = Frontier::new(g.num_vertices());
        cur.insert(start);
        SisState {
            contacts: self.contacts,
            transmit_prob: self.transmit_prob,
            cur,
            next: Frontier::new(g.num_vertices()),
            occ: vec![start],
        }
    }

    fn respawn_typed(&self, g: &Graph, start: Vertex, state: &mut SisState) {
        let n = g.num_vertices();
        if state.cur.capacity() != n {
            *state = self.spawn_typed(g, start);
            return;
        }
        assert!((start as usize) < n, "start vertex in range");
        state.contacts = self.contacts;
        state.transmit_prob = self.transmit_prob;
        crate::frontier::reinit_frontier_run(
            &mut state.cur,
            &mut state.next,
            &mut state.occ,
            start,
        );
    }
}

/// Mutable state of a running SIS epidemic: the infected set as a hybrid
/// sparse/dense [`Frontier`], stepped in the frontier's native
/// (deterministic) order exactly like [`crate::cobra::CobraState`] — so
/// `p = 1` reproduces the cobra walk draw-for-draw.
pub struct SisState {
    contacts: u32,
    transmit_prob: f64,
    cur: Frontier,
    next: Frontier,
    occ: Vec<Vertex>,
}

impl SisState {
    #[inline]
    fn advance<const MAINTAIN_OCC: bool, D: NeighborDraw, R: Rng + ?Sized>(
        &mut self,
        g: &Graph,
        draw: &D,
        rng: &mut R,
    ) {
        let SisState {
            contacts,
            transmit_prob,
            cur,
            next,
            occ,
        } = self;
        next.clear();
        cur.for_each(|v| {
            // Per-vertex draw state resolved once; the transmission coins
            // interleave with the draws without re-resolving it.
            let bound = draw.bind(g, v);
            for _ in 0..*contacts {
                if *transmit_prob < 1.0 && !bernoulli(*transmit_prob, rng) {
                    continue;
                }
                next.insert_quiet(bound.draw(rng));
            }
        });
        next.finalize_len();
        if MAINTAIN_OCC {
            occ.clear();
            next.for_each(|v| occ.push(v));
        }
        std::mem::swap(cur, next);
    }
}

impl TypedState for SisState {
    fn step<R: Rng + ?Sized>(&mut self, g: &Graph, rng: &mut R) {
        self.advance::<true, _, R>(g, &ImplicitDraw, rng);
    }

    fn step_sampled<D: NeighborDraw, R: Rng + ?Sized>(&mut self, g: &Graph, draw: &D, rng: &mut R) {
        self.advance::<false, D, R>(g, draw, rng);
    }
}

impl StateView for SisState {
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

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators::classic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Step a fresh infection from vertex 0 until it dies out or
    /// `horizon` rounds pass; returns whether it died.
    fn dies_out(g: &Graph, sis: &SisProcess, horizon: usize, rng: &mut StdRng) -> bool {
        let mut st = sis.spawn_typed(g, 0);
        (0..horizon).any(|_| {
            st.step(g, rng);
            st.occupied().is_empty()
        })
    }

    #[test]
    fn p_one_matches_cobra_walk_trajectory() {
        let g = classic::cycle(12).unwrap();
        let sis = SisProcess::new(2, 1.0);
        let cobra = crate::CobraWalk::new(2);
        let mut a = sis.spawn_typed(&g, 0);
        let mut b = cobra.spawn_typed(&g, 0);
        let mut ra = StdRng::seed_from_u64(3);
        let mut rb = StdRng::seed_from_u64(3);
        for _ in 0..25 {
            a.step(&g, &mut ra);
            b.step(&g, &mut rb);
            assert_eq!(a.occupied(), b.occupied());
        }
    }

    #[test]
    fn subcritical_infection_dies_out() {
        // R0 = 2 * 0.3 = 0.6 < 1: extinction is near-certain quickly.
        let g = classic::complete(50).unwrap();
        let sis = SisProcess::new(2, 0.3);
        assert!((sis.r0() - 0.6).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(4);
        let mut extinctions = 0;
        for _ in 0..50 {
            if dies_out(&g, &sis, 10_000, &mut rng) {
                extinctions += 1;
            }
        }
        assert!(
            extinctions >= 48,
            "only {extinctions}/50 subcritical runs died"
        );
    }

    #[test]
    fn supercritical_infection_usually_survives() {
        // R0 = 2 * 0.9 = 1.8 > 1 on a dense graph: most runs persist.
        let g = classic::complete(50).unwrap();
        let sis = SisProcess::new(2, 0.9);
        let mut rng = StdRng::seed_from_u64(5);
        let mut survivals = 0;
        for _ in 0..50 {
            if !dies_out(&g, &sis, 500, &mut rng) {
                survivals += 1;
            }
        }
        assert!(
            survivals >= 30,
            "only {survivals}/50 supercritical runs survived"
        );
    }

    #[test]
    fn empty_state_is_absorbing() {
        let g = classic::cycle(6).unwrap();
        let sis = SisProcess::new(1, 0.0); // never transmits
        let mut st = sis.spawn_typed(&g, 0);
        let mut rng = StdRng::seed_from_u64(6);
        st.step(&g, &mut rng);
        assert!(st.occupied().is_empty());
        // Further steps are harmless no-ops.
        st.step(&g, &mut rng);
        assert!(st.occupied().is_empty());
        assert_eq!(st.support_size(), 0);
    }

    #[test]
    #[should_panic(expected = "transmission probability")]
    fn rejects_bad_probability() {
        SisProcess::new(2, 1.2);
    }

    #[test]
    fn name_and_r0() {
        let s = SisProcess::new(3, 0.5);
        assert_eq!(s.name(), "sis(k=3,p=0.5)");
        assert_eq!(s.r0(), 1.5);
    }
}
