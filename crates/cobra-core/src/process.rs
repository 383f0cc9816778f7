//! The process abstraction shared by every walk variant.
//!
//! A process is its spawn and its round (paper §2). The seam is three
//! traits:
//!
//! * [`TypedProcess`] (which requires `Sync`) is the immutable
//!   *specification*, e.g. "the 2-cobra walk". The Monte-Carlo engine
//!   shares one across rayon worker threads, and
//!   [`TypedProcess::spawn_typed`] creates each trial's own state.
//! * [`StateView`] is that state's read side: the active set after the
//!   last round.
//! * [`TypedState`] runs the round, [`TypedState::step_probed`].
//!
//! Every driver is generic over the process, the graph, and the RNG, so
//! a trial's walk kernel, draws, and coverage bookkeeping inline into one
//! loop with no virtual dispatch.

use crate::frontier::Frontier;
use cobra_graph::{Graph, ImplicitGraph, Neighborhood, Vertex};
use rand::Rng;

pub use cobra_graph::sample_index;

/// A runnable process on graphs of type `G`.
///
/// `Sync` is a supertrait because the parallel runners share one
/// specification across their workers.
/// [`TypedProcess::spawn_typed`] returns the state by value, so drivers
/// generic over `P: TypedProcess` step it with zero virtual dispatch.
/// The driver contract is:
///
/// 1. immediately after `spawn_typed`, [`StateView::active`] describes
///    the initial configuration (typically `{start}`);
/// 2. each call to [`TypedState::step_probed`] advances the process one
///    round;
/// 3. after each round, [`StateView::active`] gives the vertices that
///    are *active* in that round: a set-valued process's [`Frontier`],
///    or one entry per pebble (duplicates allowed — e.g. Walt reports
///    one entry per pebble). The driver unions these over time to
///    compute coverage, matching the paper's definition of the cover
///    time as the first `T` with `⋃_{t ≤ T} S_t = V`; a hitting time of
///    `v` is the first `t` with `v ∈ S_t`;
/// 4. once [`StateView::is_extinct`] holds, the driver steps the state
///    no more.
pub trait TypedProcess<G: ImplicitGraph + ?Sized = Graph>: Sync {
    /// The concrete per-run state.
    type State: TypedState<G> + 'static;

    /// Create a fresh run of the process from `start`.
    fn spawn_typed(&self, g: &G, start: Vertex) -> Self::State;

    /// Reinitialize an existing state for a new run from `start`,
    /// producing a state observationally identical to
    /// [`TypedProcess::spawn_typed`] — same configuration, same RNG
    /// consumption from here on. The default rebuilds from scratch;
    /// processes override it to reuse the state's buffers (O(dirty)
    /// clears, zero heap traffic), which is what makes the batched trial
    /// engine ([`crate::TrialScratch`]) allocation-free after warm-up.
    fn respawn_typed(&self, g: &G, start: Vertex, state: &mut Self::State) {
        *state = self.spawn_typed(g, start);
    }

    /// `Some(k)` when one round of this process from frontier `S` is
    /// exactly the union of `k` iid uniform out-draws per vertex of `S` —
    /// the shape the bit-sliced lane kernel ([`crate::lanes`]) implements.
    /// Cobra walks report their branching factor; the simple walk is the
    /// `k = 1` case. Everything else (scheduled branching, faults, pebble
    /// counts) returns `None` and stays on the per-trial engines.
    fn lane_branching(&self) -> Option<u32> {
        None
    }
}

/// What a state reports as active after its last round (or its initial
/// configuration before any round).
#[derive(Clone, Copy, Debug)]
pub enum Active<'a> {
    /// The active set of a set-valued process (the cobra walks), as its
    /// hybrid [`Frontier`]. Drivers union it into coverage word-parallel
    /// once dense and test membership in O(1).
    Set(&'a Frontier),
    /// One vertex per pebble or walker, duplicates allowed (Walt reports
    /// every pebble; push gossip reports the vertices it just informed).
    Pebbles(&'a [Vertex]),
}

impl Active<'_> {
    /// Number of entries: the members of a set, the pebbles of a slice.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Active::Set(f) => f.len(),
            Active::Pebbles(p) => p.len(),
        }
    }

    /// Whether nothing is active. That alone is no sign of extinction:
    /// see [`StateView::is_extinct`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `v` is active: a bit test on a set, a scan of the pebbles.
    #[inline]
    pub fn contains(&self, v: Vertex) -> bool {
        match self {
            Active::Set(f) => f.contains(v),
            Active::Pebbles(p) => p.contains(&v),
        }
    }

    /// Visit every entry: in [`Frontier::for_each`] order for a set, in
    /// slice order for pebbles.
    pub fn for_each(&self, mut f: impl FnMut(Vertex)) {
        match self {
            Active::Set(s) => s.for_each(f),
            Active::Pebbles(p) => p.iter().for_each(|&v| f(v)),
        }
    }

    /// The entries in [`Active::for_each`] order.
    pub fn to_vec(&self) -> Vec<Vertex> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|v| out.push(v));
        out
    }
}

/// The graph-independent read side of a typed walk state.
///
/// Split out of [`TypedState`] so that states implementing
/// `TypedState<G>` for *every* implicit graph `G` still expose
/// unambiguous introspection: `st.active()` needs no graph type to
/// resolve, while the stepping methods (which mention `G` in their
/// signatures) live on [`TypedState`] and infer `G` from the graph
/// argument at the call site.
pub trait StateView {
    /// The active set after the last round, or the initial
    /// configuration before any round.
    fn active(&self) -> Active<'_>;

    /// Number of tokens the process currently maintains; used by
    /// experiments that track active-set growth (e.g. the exponential
    /// growth phase on expanders). Defaults to `active().len()`.
    fn support_size(&self) -> usize {
        self.active().len()
    }

    /// Whether the process has died out: no later round can make any
    /// vertex active. The driver stops such a trial in the round it
    /// dies and reports it censored, instead of stepping it to its
    /// budget. Defaults to `false`, for processes that never die out.
    fn is_extinct(&self) -> bool {
        false
    }
}

/// The mutable state of one run of a process, generic over the graph
/// representation.
///
/// A state implements one round, [`TypedState::step_probed`]; the other
/// two methods forward to it. Every method is generic over the RNG, so a
/// driver holding a concrete `StdRng` monomorphizes the whole round (no
/// virtual call per random draw), and over the graph `G`, so the same
/// kernel body serves both the materialized CSR [`Graph`] and the
/// arithmetic [`ImplicitGraph`] families. See [`TypedProcess`] for the
/// driver contract.
pub trait TypedState<G: ImplicitGraph + ?Sized = Graph>: StateView {
    /// Advance one round, drawing neighbors through `draw` (the engine
    /// passes [`ImplicitDraw`]; every [`NeighborDraw`] makes its draws)
    /// and reporting the round's work to `probe`. Kernels that can
    /// account for their own work (draw counts, coalesces, faults)
    /// report it through `probe`; the rest ignore it. The probe
    /// observes and never participates, so every probe leaves the same
    /// RNG stream and the same state, and with [`cobra_obs::NoopProbe`]
    /// the accounting compiles away — `tests/probe_neutrality.rs` pins
    /// the routes bit-for-bit.
    fn step_probed<D: NeighborDraw<G>, R: Rng + ?Sized, Pb: cobra_obs::Probe>(
        &mut self,
        g: &G,
        draw: &D,
        rng: &mut R,
        probe: &mut Pb,
    );

    /// Advance one round with [`ImplicitDraw`] and no probe.
    #[inline]
    fn step<R: Rng + ?Sized>(&mut self, g: &G, rng: &mut R) {
        self.step_probed(g, &ImplicitDraw, rng, &mut cobra_obs::NoopProbe)
    }

    /// Advance one round through `draw` with no probe.
    #[inline]
    fn step_sampled<D: NeighborDraw<G>, R: Rng + ?Sized>(&mut self, g: &G, draw: &D, rng: &mut R) {
        self.step_probed(g, draw, rng, &mut cobra_obs::NoopProbe)
    }
}

/// How a kernel draws uniformly random neighbors.
///
/// [`ImplicitDraw`] is the draw: it decodes a vertex's adjacency once and
/// indexes it with [`sample_index`], on CSR graphs and implicit families
/// alike. Kernels stay generic over `D: NeighborDraw` so that a caller
/// may pass another name for that draw; every implementation must make
/// the same draws and consume the same `u64`s as [`ImplicitDraw`] on the
/// same RNG state.
///
/// Kernels call [`NeighborDraw::bind`] once per active vertex and draw
/// repeatedly through the returned [`BoundDraw`], so the per-vertex
/// decode is hoisted out of the draw loop — including loops whose draws
/// interleave with other randomness (the faulty cobra walk's per-pebble
/// loss and delay coins, see [`crate::fault`]).
pub trait NeighborDraw<G: ?Sized = Graph> {
    /// The per-vertex resolved drawer.
    type Bound<'a>: BoundDraw
    where
        Self: 'a,
        G: 'a;

    /// Resolve the per-vertex draw state for `v` once. Panics if `v` is
    /// isolated.
    fn bind<'a>(&'a self, g: &'a G, v: Vertex) -> Self::Bound<'a>;

    /// Draw one uniformly random neighbor of `v`. Panics if `v` is
    /// isolated.
    #[inline]
    fn draw_one<R: Rng + ?Sized>(&self, g: &G, v: Vertex, rng: &mut R) -> Vertex {
        self.bind(g, v).draw(rng)
    }
}

/// A [`NeighborDraw`] resolved to one vertex: repeated draws with no
/// per-draw re-resolution.
pub trait BoundDraw {
    /// Draw one uniformly random neighbor of the bound vertex.
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> Vertex;
}

/// The neighbor draw: decode each vertex once through
/// [`ImplicitGraph::adjacency`], then index each draw into that adjacency
/// with [`sample_index`]. On a CSR [`Graph`] the adjacency is the
/// neighbor slice, so a draw is `ns[sample_index(ns.len(), rng)]`, which
/// consumes the same `u64`s as `ns[random_range(0..ns.len())]`. The
/// implicit families enumerate neighbors in CSR order, so the same seed
/// resolves the same vertices on either representation.
#[derive(Clone, Copy, Debug, Default)]
pub struct ImplicitDraw;

/// [`ImplicitDraw`] bound to one vertex: its decoded adjacency and its
/// degree, hoisted out of the draw loop.
pub struct ImplicitBound<'a, G: ImplicitGraph + ?Sized + 'a> {
    adj: G::Adjacency<'a>,
    degree: usize,
}

impl<G: ImplicitGraph + ?Sized> NeighborDraw<G> for ImplicitDraw {
    type Bound<'a>
        = ImplicitBound<'a, G>
    where
        G: 'a;

    #[inline]
    fn bind<'a>(&'a self, g: &'a G, v: Vertex) -> ImplicitBound<'a, G> {
        let adj = g.adjacency(v);
        let degree = adj.degree();
        assert!(degree > 0, "vertex {v} has no neighbors");
        ImplicitBound { adj, degree }
    }
}

impl<G: ImplicitGraph + ?Sized> BoundDraw for ImplicitBound<'_, G> {
    #[inline]
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> Vertex {
        self.adj.neighbor(sample_index(self.degree, rng))
    }
}

/// [`cobra_graph::NeighborSampler`] is a name for [`ImplicitDraw`] on
/// CSR graphs.
impl NeighborDraw for cobra_graph::NeighborSampler {
    type Bound<'a> = ImplicitBound<'a, Graph>;

    #[inline]
    fn bind<'a>(&'a self, g: &'a Graph, v: Vertex) -> Self::Bound<'a> {
        ImplicitDraw.bind(g, v)
    }
}

/// A fair coin.
#[inline]
pub fn coin<R: Rng + ?Sized>(rng: &mut R) -> bool {
    rng.next_u64() & 1 == 1
}

/// Bernoulli(p).
#[inline]
pub fn bernoulli<R: Rng + ?Sized>(p: f64, rng: &mut R) -> bool {
    debug_assert!((0.0..=1.0).contains(&p));
    // 53-bit uniform in [0,1).
    let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    u < p
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators::{classic, gnp, grid, random_regular};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The reference draw every kernel's draws must reproduce.
    fn reference_draw(g: &Graph, v: Vertex, rng: &mut StdRng) -> Vertex {
        let ns = g.neighbors(v);
        ns[rng.random_range(0usize..ns.len())]
    }

    fn zoo() -> Vec<(&'static str, Graph)> {
        vec![
            ("cycle-97", classic::cycle(97).unwrap()),
            ("star-40", classic::star(40).unwrap()),
            ("grid-9x9", grid::grid(&[8, 8])),
            (
                "rr-d3-64",
                random_regular::random_regular(64, 3, &mut StdRng::seed_from_u64(9)).unwrap(),
            ),
            (
                "gnp-120",
                gnp::gnp_connected(120, 0.08, 200, &mut StdRng::seed_from_u64(10)).unwrap(),
            ),
        ]
    }

    #[test]
    fn draws_match_reference_on_shared_seeds() {
        // Same seed, same vertex sequence ⇒ identical draws AND identical
        // RNG positions afterwards (stream compatibility, not just
        // distributional agreement).
        for (name, g) in zoo() {
            let mut a = StdRng::seed_from_u64(0xFEED);
            let mut b = StdRng::seed_from_u64(0xFEED);
            for round in 0..2000u32 {
                let v = ((round as usize * 31) % g.num_vertices()) as Vertex;
                let drawn = ImplicitDraw.draw_one(&g, v, &mut a);
                assert_eq!(drawn, reference_draw(&g, v, &mut b), "{name} round {round}");
            }
            assert_eq!(
                a.next_u64(),
                b.next_u64(),
                "{name}: RNG streams diverged (different u64 consumption)"
            );
        }
    }

    #[test]
    fn chi_square_uniform_per_degree_class() {
        // For each degree class present in the zoo, pool draws from one
        // representative vertex and check the empirical neighbor histogram
        // against uniform with a chi-square statistic. Threshold: mean +
        // 6σ of χ²(d−1), i.e. (d−1) + 6·√(2(d−1)) — loose enough to be
        // deterministic-stable, tight enough to catch a biased draw.
        for (name, g) in zoo() {
            let mut rng = StdRng::seed_from_u64(0xC0FFEE);
            let mut seen_degrees = std::collections::HashSet::new();
            for v in 0..g.num_vertices() as Vertex {
                let d = g.degree(v);
                if d < 2 || !seen_degrees.insert(d) {
                    continue;
                }
                let draws = 2000 * d;
                let mut counts = vec![0usize; d];
                let ns = g.neighbors(v);
                let bound = ImplicitDraw.bind(&g, v);
                for _ in 0..draws {
                    let u = bound.draw(&mut rng);
                    let slot = ns.binary_search(&u).expect("draw must be adjacent");
                    counts[slot] += 1;
                }
                let expect = draws as f64 / d as f64;
                let chi2: f64 = counts
                    .iter()
                    .map(|&c| {
                        let diff = c as f64 - expect;
                        diff * diff / expect
                    })
                    .sum();
                let df = (d - 1) as f64;
                let bound = df + 6.0 * (2.0 * df).sqrt();
                assert!(
                    chi2 <= bound,
                    "{name} degree {d}: χ² = {chi2:.1} > {bound:.1}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Draws are always adjacent to the queried vertex, on random
        /// connected G(n,p) instances and random vertex/seed choices.
        #[test]
        fn draws_are_always_adjacent(
            graph_seed in 0u64..1000,
            rng_seed in 0u64..1000,
            n in 10usize..80,
        ) {
            let mut grng = StdRng::seed_from_u64(graph_seed);
            let g = gnp::gnp_connected(n, 0.15, 200, &mut grng).unwrap();
            let mut rng = StdRng::seed_from_u64(rng_seed);
            for i in 0..200usize {
                let v = ((i * 17 + rng_seed as usize) % g.num_vertices()) as Vertex;
                let u = ImplicitDraw.draw_one(&g, v, &mut rng);
                prop_assert!(g.has_edge(v, u), "{v} -> {u} not an edge");
            }
        }

        /// Stream compatibility on random graphs: [`ImplicitDraw`] and the
        /// `random_range` reference make identical draws from identical
        /// seeds and leave the RNG at the same position.
        #[test]
        fn stream_compatible_with_random_range(
            graph_seed in 0u64..1000,
            rng_seed in 0u64..1000,
        ) {
            let mut grng = StdRng::seed_from_u64(graph_seed);
            let g = gnp::gnp_connected(40, 0.2, 200, &mut grng).unwrap();
            let mut a = StdRng::seed_from_u64(rng_seed);
            let mut b = StdRng::seed_from_u64(rng_seed);
            for v in 0..g.num_vertices() as Vertex {
                for _ in 0..4 {
                    prop_assert_eq!(
                        ImplicitDraw.draw_one(&g, v, &mut a),
                        reference_draw(&g, v, &mut b)
                    );
                }
            }
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn sample_index_is_unbiased() {
        let mut rng = StdRng::seed_from_u64(1);
        let len = 7;
        let trials = 70_000;
        let mut counts = vec![0usize; len];
        for _ in 0..trials {
            counts[sample_index(len, &mut rng)] += 1;
        }
        let expect = trials as f64 / len as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 5.0 * expect.sqrt(),
                "bucket {i}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn sample_index_len_one() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            assert_eq!(sample_index(1, &mut rng), 0);
        }
    }

    #[test]
    fn implicit_draw_on_csr_stays_adjacent() {
        let g = classic::cycle(9).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let u = ImplicitDraw.draw_one(&g, 4, &mut rng);
            assert!(g.has_edge(4, u));
        }
    }

    #[test]
    #[should_panic(expected = "no neighbors")]
    fn implicit_draw_on_csr_panics_on_isolated() {
        let g = cobra_graph::Graph::empty(2);
        let mut rng = StdRng::seed_from_u64(0);
        ImplicitDraw.draw_one(&g, 0, &mut rng);
    }

    #[test]
    fn bernoulli_frequencies() {
        let mut rng = StdRng::seed_from_u64(4);
        let trials = 50_000;
        for p in [0.0, 0.25, 0.5, 1.0] {
            let hits = (0..trials).filter(|_| bernoulli(p, &mut rng)).count();
            let freq = hits as f64 / trials as f64;
            assert!((freq - p).abs() < 0.02, "p = {p}, freq = {freq}");
        }
    }

    #[test]
    fn coin_is_fair() {
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 50_000;
        let heads = (0..trials).filter(|_| coin(&mut rng)).count();
        assert!((heads as f64 / trials as f64 - 0.5).abs() < 0.02);
    }
}
