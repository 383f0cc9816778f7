//! Cobra walks with non-constant branching — the paper's §1 closing
//! remark: *"One could further study variations where the branching
//! varied based on the vertex or the time step, or was governed by a
//! random distribution; we do not do that here."*
//!
//! This module does study them. A [`BranchingSchedule`] decides, per
//! (round, vertex, randomness), how many pebbles an active vertex emits;
//! [`ScheduledCobraWalk`] is the cobra walk driven by a schedule.
//! Experiment E14 compares schedules with equal *mean* branching to ask
//! whether E\[k\] is the quantity that matters.

use crate::frontier::{for_each_member, Frontier};
use crate::process::{
    bernoulli, Active, BoundDraw, NeighborDraw, StateView, TypedProcess, TypedState,
};
use cobra_graph::{Graph, Vertex};
use rand::Rng;

/// How many pebbles each active vertex emits in a given round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BranchingSchedule {
    /// The classic `k`-cobra walk.
    Fixed(u32),
    /// Alternate deterministically by round parity: `even` on even
    /// rounds, `odd` on odd rounds (time-varying branching).
    Alternating {
        /// Branching factor on even rounds.
        even: u32,
        /// Branching factor on odd rounds.
        odd: u32,
    },
    /// Random branching: `base + Bernoulli(extra_prob)` per active vertex
    /// per round (mean `base + extra_prob`).
    Bernoulli {
        /// Guaranteed branches per round.
        base: u32,
        /// Probability of one extra branch.
        extra_prob: f64,
    },
    /// Degree-proportional: high-degree vertices branch more —
    /// `min(max_k, 1 + degree/divisor)` (vertex-dependent branching).
    DegreeScaled {
        /// Degree units per extra branch.
        divisor: u32,
        /// Cap on the branching factor.
        max_k: u32,
    },
}

impl BranchingSchedule {
    /// Branching factor for an active vertex `v` in round `t`.
    pub fn branches<R: Rng + ?Sized>(&self, t: usize, g: &Graph, v: Vertex, rng: &mut R) -> u32 {
        match *self {
            BranchingSchedule::Fixed(k) => k,
            BranchingSchedule::Alternating { even, odd } => {
                if t.is_multiple_of(2) {
                    even
                } else {
                    odd
                }
            }
            BranchingSchedule::Bernoulli { base, extra_prob } => {
                base + u32::from(extra_prob > 0.0 && bernoulli(extra_prob, rng))
            }
            BranchingSchedule::DegreeScaled { divisor, max_k } => {
                (1 + g.degree(v) as u32 / divisor.max(1)).min(max_k)
            }
        }
    }

    /// Mean branching factor over rounds/randomness (for a vertex of
    /// degree `deg` where relevant).
    pub fn mean_branching(&self, deg: usize) -> f64 {
        match *self {
            BranchingSchedule::Fixed(k) => k as f64,
            BranchingSchedule::Alternating { even, odd } => (even + odd) as f64 / 2.0,
            BranchingSchedule::Bernoulli { base, extra_prob } => base as f64 + extra_prob,
            BranchingSchedule::DegreeScaled { divisor, max_k } => {
                ((1 + deg as u32 / divisor.max(1)).min(max_k)) as f64
            }
        }
    }

    /// Short display name.
    pub fn name(&self) -> String {
        match *self {
            BranchingSchedule::Fixed(k) => format!("fixed({k})"),
            BranchingSchedule::Alternating { even, odd } => format!("alt({even},{odd})"),
            BranchingSchedule::Bernoulli { base, extra_prob } => {
                format!("bern({base}+{extra_prob})")
            }
            BranchingSchedule::DegreeScaled { divisor, max_k } => {
                format!("deg(/{divisor},≤{max_k})")
            }
        }
    }

    fn validate(&self) {
        match *self {
            BranchingSchedule::Fixed(k) => assert!(k >= 1, "fixed branching must be >= 1"),
            BranchingSchedule::Alternating { even, odd } => {
                assert!(even >= 1 && odd >= 1, "alternating branches must be >= 1")
            }
            BranchingSchedule::Bernoulli { base, extra_prob } => {
                assert!(base >= 1, "base branching must be >= 1");
                assert!((0.0..=1.0).contains(&extra_prob), "extra_prob in [0,1]");
            }
            BranchingSchedule::DegreeScaled { max_k, .. } => {
                assert!(max_k >= 1, "max_k must be >= 1")
            }
        }
    }
}

/// A cobra walk whose branching factor follows a [`BranchingSchedule`].
///
/// `ScheduledCobraWalk::new(BranchingSchedule::Fixed(k))` is behaviorally
/// identical to [`crate::CobraWalk`] with branching `k`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScheduledCobraWalk {
    schedule: BranchingSchedule,
}

impl ScheduledCobraWalk {
    /// Cobra walk driven by `schedule`.
    pub fn new(schedule: BranchingSchedule) -> Self {
        schedule.validate();
        ScheduledCobraWalk { schedule }
    }
}

impl TypedProcess for ScheduledCobraWalk {
    type State = ScheduledState;

    fn spawn_typed(&self, g: &Graph, start: Vertex) -> ScheduledState {
        assert!((start as usize) < g.num_vertices(), "start vertex in range");
        let mut cur = Frontier::new(g.num_vertices());
        cur.insert(start);
        ScheduledState {
            schedule: self.schedule,
            round: 0,
            cur,
            next: Frontier::new(g.num_vertices()),
        }
    }

    fn respawn_typed(&self, g: &Graph, start: Vertex, state: &mut ScheduledState) {
        let n = g.num_vertices();
        if state.cur.capacity() != n {
            *state = self.spawn_typed(g, start);
            return;
        }
        assert!((start as usize) < n, "start vertex in range");
        state.schedule = self.schedule;
        state.round = 0;
        crate::frontier::reinit_frontier_run(&mut state.cur, &mut state.next, start);
    }
}

/// Mutable state of a scheduled cobra walk, stepped through the hybrid
/// [`Frontier`] exactly like [`crate::cobra::CobraState`] — so a
/// `Fixed(k)` schedule reproduces the plain `k`-cobra walk draw-for-draw,
/// and reports the same draw accounting.
pub struct ScheduledState {
    schedule: BranchingSchedule,
    round: usize,
    cur: Frontier,
    next: Frontier,
}

impl TypedState for ScheduledState {
    /// One round: each active vertex draws its scheduled number of
    /// uniform neighbors into the next frontier, its schedule's coin (if
    /// any) first. The body runs inside `for_each_member!`, as the cobra
    /// round's does, so no closure call sits between the traversal and
    /// the draws. Reports the round's draws (the sum of the senders'
    /// branching factors) and merges (draws that opened no new slot in
    /// the next frontier).
    fn step_probed<D: NeighborDraw, R: Rng + ?Sized, Pb: cobra_obs::Probe>(
        &mut self,
        g: &Graph,
        draw: &D,
        rng: &mut R,
        probe: &mut Pb,
    ) {
        let ScheduledState {
            schedule,
            round,
            cur,
            next,
        } = self;
        let mut draws = 0u64;
        next.clear();
        for_each_member!(v in cur => {
            debug_assert!(g.degree(v) > 0, "cobra walk requires min degree >= 1");
            let k = schedule.branches(*round, g, v, rng);
            draws += u64::from(k);
            let bound = draw.bind(g, v);
            for _ in 0..k {
                next.insert_quiet(bound.draw(rng));
            }
        });
        next.finalize_len();
        *round += 1;
        std::mem::swap(cur, next);
        probe.on_draws(draws, draws - cur.len() as u64);
    }
}

impl StateView for ScheduledState {
    fn active(&self) -> Active<'_> {
        Active::Set(&self.cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators::classic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_schedule_matches_cobra_walk_distribution() {
        // Same seed ⇒ identical trajectories (same sampling order).
        let g = classic::cycle(16).unwrap();
        let spec_s = ScheduledCobraWalk::new(BranchingSchedule::Fixed(2));
        let spec_c = crate::CobraWalk::new(2);
        let mut a = spec_s.spawn_typed(&g, 0);
        let mut b = spec_c.spawn_typed(&g, 0);
        let mut ra = StdRng::seed_from_u64(5);
        let mut rb = StdRng::seed_from_u64(5);
        for _ in 0..30 {
            a.step(&g, &mut ra);
            b.step(&g, &mut rb);
            assert_eq!(a.active().to_vec(), b.active().to_vec());
        }
    }

    #[test]
    fn alternating_schedule_switches_by_round() {
        let g = classic::complete(10).unwrap();
        let s = BranchingSchedule::Alternating { even: 1, odd: 3 };
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(s.branches(0, &g, 0, &mut rng), 1);
        assert_eq!(s.branches(1, &g, 0, &mut rng), 3);
        assert_eq!(s.branches(2, &g, 0, &mut rng), 1);
        assert_eq!(s.mean_branching(9), 2.0);
    }

    #[test]
    fn bernoulli_schedule_hits_its_mean() {
        let g = classic::complete(4).unwrap();
        let s = BranchingSchedule::Bernoulli {
            base: 1,
            extra_prob: 0.37,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 50_000;
        let total: u64 = (0..trials)
            .map(|t| s.branches(t, &g, 0, &mut rng) as u64)
            .sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 1.37).abs() < 0.01, "mean {mean}");
        assert_eq!(s.mean_branching(3), 1.37);
    }

    #[test]
    fn degree_scaled_branches_more_at_hubs() {
        let g = classic::star(10).unwrap();
        let s = BranchingSchedule::DegreeScaled {
            divisor: 3,
            max_k: 4,
        };
        let mut rng = StdRng::seed_from_u64(3);
        // Hub degree 9: 1 + 9/3 = 4.
        assert_eq!(s.branches(0, &g, 0, &mut rng), 4);
        // Leaf degree 1: 1 + 0 = 1.
        assert_eq!(s.branches(0, &g, 3, &mut rng), 1);
        assert_eq!(s.mean_branching(9), 4.0);
        assert_eq!(s.mean_branching(1), 1.0);
    }

    #[test]
    fn active_set_growth_respects_max_branching() {
        let g = classic::complete(64).unwrap();
        let spec = ScheduledCobraWalk::new(BranchingSchedule::Alternating { even: 3, odd: 1 });
        let mut st = spec.spawn_typed(&g, 0);
        let mut rng = StdRng::seed_from_u64(4);
        let mut prev = 1usize;
        for t in 0..30 {
            st.step(&g, &mut rng);
            let cur = st.active().len();
            let cap = if t % 2 == 0 { 3 * prev } else { prev };
            assert!(cur <= cap, "round {t}: {cur} > {cap}");
            assert!(cur >= 1);
            prev = cur;
        }
    }

    #[test]
    fn names() {
        assert!(BranchingSchedule::Bernoulli {
            base: 1,
            extra_prob: 0.5
        }
        .name()
        .contains("bern"));
    }

    #[test]
    #[should_panic(expected = "extra_prob")]
    fn rejects_bad_probability() {
        ScheduledCobraWalk::new(BranchingSchedule::Bernoulli {
            base: 1,
            extra_prob: 1.5,
        });
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn rejects_zero_fixed() {
        ScheduledCobraWalk::new(BranchingSchedule::Fixed(0));
    }
}
