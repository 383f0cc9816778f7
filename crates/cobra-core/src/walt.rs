//! The **Walt** process (paper §4) — the structured coupling process whose
//! cover time stochastically dominates the cobra walk's (Lemma 10).
//!
//! Walt maintains a *fixed* population of totally ordered pebbles (no
//! splitting, no coalescing). Per round:
//!
//! 1. If one or two pebbles sit at a vertex, each independently moves to a
//!    uniformly random neighbor.
//! 2. If **three or more** pebbles sit at `v`, the two lowest-order pebbles
//!    pick independent uniform neighbors `u`, `w`; every remaining pebble
//!    at `v` flips a fair coin and moves to `u` or `w`.
//!
//! The paper additionally makes Walt *lazy*: each round, with probability
//! 1/2 all pebbles hold. Both the laziness and the three-pebble threshold
//! are configurable here so experiment E13 can ablate them.

use crate::process::{coin, Active, BoundDraw, NeighborDraw, StateView, TypedProcess, TypedState};
use cobra_graph::{Graph, Vertex};
use rand::Rng;
use std::cell::Cell;

/// How many pebbles a [`WaltProcess`] starts with.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PebblePopulation {
    /// An explicit pebble count.
    Count(usize),
    /// `⌈δ·n⌉` pebbles; the paper uses δ ≤ 1/2.
    Fraction(f64),
}

/// Specification of a Walt process.
///
/// [`TypedProcess::spawn_typed`] places all pebbles at the start vertex,
/// matching the paper's Theorem 8 analysis ("all δn pebbles begin at the
/// same vertex"). Use [`WaltProcess::spawn_at_positions`] for arbitrary
/// placements (as in Lemma 10's statement).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WaltProcess {
    population: PebblePopulation,
    lazy: bool,
    /// Minimum co-located pebble count at which the follow-the-leaders rule
    /// kicks in. The paper fixes this to 3.
    threshold: usize,
}

impl WaltProcess {
    /// The paper's configuration: `⌈δ·n⌉` pebbles, lazy, threshold 3.
    pub fn standard(delta: f64) -> Self {
        assert!(delta > 0.0 && delta <= 0.5, "paper requires 0 < δ ≤ 1/2");
        WaltProcess {
            population: PebblePopulation::Fraction(delta),
            lazy: true,
            threshold: 3,
        }
    }

    /// A Walt process with an explicit pebble count.
    pub fn with_count(count: usize) -> Self {
        assert!(count >= 1, "need at least one pebble");
        WaltProcess {
            population: PebblePopulation::Count(count),
            lazy: true,
            threshold: 3,
        }
    }

    /// Disable (or re-enable) the global laziness coin.
    pub fn lazy(mut self, lazy: bool) -> Self {
        self.lazy = lazy;
        self
    }

    /// Override the coalescence-rule threshold (paper: 3). Threshold 2
    /// makes every co-located group move like a two-leader herd; used only
    /// by the ablation experiment.
    pub fn threshold(mut self, threshold: usize) -> Self {
        assert!(threshold >= 2, "threshold must be >= 2");
        self.threshold = threshold;
        self
    }

    /// Resolve the pebble count for a graph on `n` vertices.
    pub fn population_for(&self, n: usize) -> usize {
        match self.population {
            PebblePopulation::Count(c) => c.max(1),
            PebblePopulation::Fraction(delta) => ((delta * n as f64).ceil() as usize).max(1),
        }
    }

    /// Spawn with explicit initial pebble positions (Lemma 10 allows an
    /// arbitrary number of pebbles at each start vertex).
    pub fn spawn_at_positions(&self, g: &Graph, positions: Vec<Vertex>) -> WaltState {
        assert!(!positions.is_empty(), "need at least one pebble");
        for &v in &positions {
            assert!((v as usize) < g.num_vertices(), "pebble position in range");
        }
        WaltState::new(positions, g.num_vertices(), self.lazy, self.threshold)
    }
}

impl TypedProcess for WaltProcess {
    type State = WaltState;

    fn spawn_typed(&self, g: &Graph, start: Vertex) -> WaltState {
        assert!((start as usize) < g.num_vertices(), "start vertex in range");
        let count = self.population_for(g.num_vertices());
        WaltState::new(
            vec![start; count],
            g.num_vertices(),
            self.lazy,
            self.threshold,
        )
    }

    fn respawn_typed(&self, g: &Graph, start: Vertex, state: &mut WaltState) {
        let n = g.num_vertices();
        let count = self.population_for(n);
        if state.counts.len() != n + 1 || state.positions.len() != count {
            *state = self.spawn_typed(g, start);
            return;
        }
        assert!((start as usize) < n, "start vertex in range");
        state.positions.fill(start);
        state.lazy = self.lazy;
        state.threshold = self.threshold;
    }
}

/// Running state: `positions[i]` is the vertex of pebble `i`, and pebble
/// index *is* the total order (lower index = lower order).
pub struct WaltState {
    positions: Vec<Vertex>,
    lazy: bool,
    threshold: usize,
    // Scratch for counting-sort grouping, reused across steps (and, via
    // `TypedProcess::respawn_typed`, across trials).
    counts: Vec<u32>,
    grouped: Vec<u32>,
    cursors: Vec<u32>,
    // One mark per vertex for `support_size`, which counts distinct
    // positions through `&self`; every mark is clear between calls.
    seen: Vec<Cell<bool>>,
}

impl WaltState {
    fn new(positions: Vec<Vertex>, n: usize, lazy: bool, threshold: usize) -> Self {
        let p = positions.len();
        WaltState {
            positions,
            lazy,
            threshold,
            counts: vec![0; n + 1],
            grouped: vec![0; p],
            cursors: Vec::with_capacity(n),
            seen: vec![Cell::new(false); n],
        }
    }
}

impl TypedState for WaltState {
    fn step_probed<D: NeighborDraw, R: Rng + ?Sized, Pb: cobra_obs::Probe>(
        &mut self,
        g: &Graph,
        draw: &D,
        rng: &mut R,
        _probe: &mut Pb,
    ) {
        if self.lazy && coin(rng) {
            return; // all pebbles hold this round
        }

        // Counting sort pebble ids by vertex; iterating ids in ascending
        // order keeps each bucket sorted by pebble order, so the first two
        // entries of a bucket are the two lowest-order pebbles.
        let n = g.num_vertices();
        self.counts[..=n].fill(0);
        for &v in &self.positions {
            self.counts[v as usize + 1] += 1;
        }
        for i in 0..n {
            let prev = self.counts[i];
            self.counts[i + 1] += prev;
        }
        // `cursor[v]` = next insertion slot; reuse counts as cursors by
        // remembering bucket starts separately via a second pass below.
        self.cursors.clear();
        self.cursors.extend_from_slice(&self.counts[..n]);
        for (id, &v) in self.positions.iter().enumerate() {
            let slot = self.cursors[v as usize];
            self.grouped[slot as usize] = id as u32;
            self.cursors[v as usize] += 1;
        }

        for v in 0..n {
            let lo = self.counts[v] as usize;
            let hi = self.counts[v + 1] as usize;
            let size = hi - lo;
            if size == 0 {
                continue;
            }
            let bound = draw.bind(g, v as Vertex);
            if size < self.threshold {
                // Rule 1: each pebble walks independently.
                for &id in &self.grouped[lo..hi] {
                    self.positions[id as usize] = bound.draw(rng);
                }
            } else {
                // Rule 2: two lowest-order pebbles lead; the rest follow a
                // fair coin between the leaders' destinations.
                let u = bound.draw(rng);
                let w = bound.draw(rng);
                self.positions[self.grouped[lo] as usize] = u;
                self.positions[self.grouped[lo + 1] as usize] = w;
                for &id in &self.grouped[lo + 2..hi] {
                    self.positions[id as usize] = if coin(rng) { u } else { w };
                }
            }
        }
    }
}

impl StateView for WaltState {
    fn active(&self) -> Active<'_> {
        Active::Pebbles(&self.positions)
    }

    /// Number of distinct occupied vertices: two passes over the pebbles
    /// and no allocation.
    fn support_size(&self) -> usize {
        let distinct = self
            .positions
            .iter()
            .filter(|&&v| !self.seen[v as usize].replace(true))
            .count();
        for &v in &self.positions {
            self.seen[v as usize].set(false);
        }
        distinct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators::{classic, hypercube};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn population_resolution() {
        let w = WaltProcess::standard(0.5);
        assert_eq!(w.population_for(100), 50);
        assert_eq!(w.population_for(3), 2);
        let w = WaltProcess::with_count(7);
        assert_eq!(w.population_for(1000), 7);
    }

    #[test]
    #[should_panic(expected = "δ")]
    fn rejects_large_delta() {
        WaltProcess::standard(0.9);
    }

    #[test]
    fn pebble_count_is_invariant() {
        let g = hypercube::hypercube(4);
        let spec = WaltProcess::standard(0.5);
        let mut st = spec.spawn_typed(&g, 0);
        let expected = spec.population_for(16);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            st.step(&g, &mut rng);
            assert_eq!(st.active().len(), expected);
        }
    }

    #[test]
    fn pebbles_move_along_edges() {
        let g = classic::cycle(9).unwrap();
        let spec = WaltProcess::with_count(5).lazy(false);
        let mut st = spec.spawn_typed(&g, 4);
        let mut rng = StdRng::seed_from_u64(2);
        let mut prev = st.active().to_vec();
        for _ in 0..100 {
            st.step(&g, &mut rng);
            for (i, cur) in st.active().to_vec().into_iter().enumerate() {
                assert!(
                    g.has_edge(prev[i], cur),
                    "pebble {i} jumped {} -> {cur}",
                    prev[i]
                );
            }
            prev = st.active().to_vec();
        }
    }

    #[test]
    fn lazy_process_holds_roughly_half_the_time() {
        let g = classic::cycle(9).unwrap();
        let spec = WaltProcess::with_count(3); // lazy by default
        let mut st = spec.spawn_typed(&g, 0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut holds = 0;
        let steps = 600;
        let mut prev = st.active().to_vec();
        for _ in 0..steps {
            st.step(&g, &mut rng);
            // On an odd cycle with 3 pebbles, a non-lazy round moves every
            // pebble to an adjacent vertex, so "all identical to previous"
            // only happens on holds.
            if st.active().to_vec() == prev {
                holds += 1;
            }
            prev = st.active().to_vec();
        }
        let frac = holds as f64 / steps as f64;
        assert!((frac - 0.5).abs() < 0.1, "hold fraction {frac}");
    }

    #[test]
    fn herd_rule_sends_followers_to_leader_destinations() {
        // Star graph: all pebbles at the hub must scatter to leaves; with
        // threshold 3 and many pebbles, followers may only go to the two
        // leaders' destinations.
        let g = classic::star(10).unwrap();
        let spec = WaltProcess::with_count(8).lazy(false);
        let mut st = spec.spawn_typed(&g, 0);
        let mut rng = StdRng::seed_from_u64(5);
        st.step(&g, &mut rng);
        let mut dests: Vec<Vertex> = st.active().to_vec();
        dests.sort_unstable();
        dests.dedup();
        assert!(
            dests.len() <= 2,
            "8 co-located pebbles must land on at most 2 vertices, got {dests:?}"
        );
    }

    #[test]
    fn threshold_two_makes_pairs_herd() {
        // With threshold 2, even two co-located pebbles use the leader rule
        // (both ARE leaders, so behaviour matches rule 1 for pairs); with
        // 3+ pebbles everything still lands on ≤ 2 vertices. This is a
        // sanity check that the ablation knob is wired through.
        let g = classic::star(10).unwrap();
        let spec = WaltProcess::with_count(5).lazy(false).threshold(2);
        let mut st = spec.spawn_typed(&g, 0);
        let mut rng = StdRng::seed_from_u64(6);
        st.step(&g, &mut rng);
        let mut dests: Vec<Vertex> = st.active().to_vec();
        dests.sort_unstable();
        dests.dedup();
        assert!(dests.len() <= 2);
    }

    #[test]
    fn spawn_at_positions_validates_and_places() {
        let g = classic::path(5).unwrap();
        let spec = WaltProcess::with_count(3).lazy(false);
        let st = spec.spawn_at_positions(&g, vec![0, 2, 4]);
        assert_eq!(st.active().to_vec(), [0, 2, 4]);
        assert_eq!(st.support_size(), 3);
    }

    #[test]
    #[should_panic(expected = "in range")]
    fn spawn_at_positions_rejects_out_of_range() {
        let g = classic::path(3).unwrap();
        WaltProcess::with_count(1).spawn_at_positions(&g, vec![9]);
    }

    #[test]
    fn support_size_counts_distinct() {
        let g = classic::path(5).unwrap();
        let spec = WaltProcess::with_count(4).lazy(false);
        let st = spec.spawn_at_positions(&g, vec![1, 1, 2, 2]);
        assert_eq!(st.active().len(), 4);
        assert_eq!(st.support_size(), 2);
    }

    #[test]
    fn isolated_pairs_walk_independently() {
        // Two pebbles at the same vertex (below threshold 3) must be able
        // to land on different neighbors sometimes.
        let g = classic::star(12).unwrap();
        let spec = WaltProcess::with_count(2).lazy(false);
        let mut rng = StdRng::seed_from_u64(8);
        let mut diverged = false;
        for _ in 0..50 {
            let mut st = spec.spawn_typed(&g, 0);
            st.step(&g, &mut rng);
            let occ = st.active().to_vec();
            if occ[0] != occ[1] {
                diverged = true;
                break;
            }
        }
        assert!(diverged, "independent pair never diverged in 50 trials");
    }
}
