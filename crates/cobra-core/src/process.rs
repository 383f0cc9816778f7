//! The process abstraction shared by every walk variant.
//!
//! A process is an immutable *specification* (e.g. "the 2-cobra walk");
//! [`TypedProcess::spawn_typed`] creates the mutable per-run
//! [`TypedState`]. The split exists so the Monte-Carlo engine can share
//! one specification across rayon worker threads while each trial owns
//! its own state. Every driver is generic over the process, the graph,
//! and the RNG, so a trial's walk kernel, draws, and coverage bookkeeping
//! inline into one loop with no virtual dispatch.

use cobra_graph::{Graph, ImplicitGraph, Neighborhood, Vertex};
use rand::Rng;

/// The graph-independent part of a process specification.
///
/// [`TypedProcess`] is generic over the graph type, and most processes
/// implement it for *every* [`ImplicitGraph`]; a `name()` declared there
/// would be ambiguous at call sites that do not pin `G`. This non-generic
/// supertrait keeps it unambiguous, as [`StateView`] does for states.
pub trait Process: Sync {
    /// Human-readable name used in result tables (e.g. `"cobra(k=2)"`).
    fn name(&self) -> String;
}

/// Blanket impl so `&T` specifications can be passed around cheaply.
impl<T: Process + ?Sized> Process for &T {
    fn name(&self) -> String {
        (**self).name()
    }
}

/// A runnable process on graphs of type `G`.
///
/// [`TypedProcess::spawn_typed`] returns the state by value, so drivers
/// generic over `P: TypedProcess` step it with zero virtual dispatch.
/// The driver contract is:
///
/// 1. immediately after `spawn_typed`, [`StateView::occupied`] describes
///    the initial configuration (typically `[start]`);
/// 2. each call to [`TypedState::step`] advances the process one round;
/// 3. after each step, [`StateView::occupied`] lists the vertices that
///    are *active* in that round (duplicates allowed — e.g. Walt reports
///    one entry per pebble). The driver unions these over time to compute
///    coverage, matching the paper's definition of the cover time as the
///    first `T` with `⋃_{t ≤ T} S_t = V`.
pub trait TypedProcess<G: ImplicitGraph + ?Sized = Graph>: Process {
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
    /// Cobra walks report their branching factor; the non-lazy simple
    /// walk is the `k = 1` case. Everything else (laziness coins,
    /// per-contact transmission coins, pebble counts) returns `None` and
    /// stays on the per-trial engines.
    fn lane_branching(&self) -> Option<u32> {
        None
    }
}

/// Blanket impl so `&T` specifications keep the typed route too.
impl<G: ImplicitGraph + ?Sized, T: TypedProcess<G>> TypedProcess<G> for &T {
    type State = T::State;

    fn spawn_typed(&self, g: &G, start: Vertex) -> Self::State {
        (**self).spawn_typed(g, start)
    }

    fn respawn_typed(&self, g: &G, start: Vertex, state: &mut Self::State) {
        (**self).respawn_typed(g, start, state)
    }

    fn lane_branching(&self) -> Option<u32> {
        TypedProcess::<G>::lane_branching(&**self)
    }
}

/// The graph-independent read side of a typed walk state.
///
/// Split out of [`TypedState`] so that states implementing
/// `TypedState<G>` for *every* implicit graph `G` still expose
/// unambiguous introspection: `st.occupied()` needs no graph type to
/// resolve, while the stepping methods (which mention `G` in their
/// signatures) live on [`TypedState`] and infer `G` from the graph
/// argument at the call site.
pub trait StateView {
    /// Vertices occupied after the last step (or the initial configuration
    /// before any step). May contain duplicates.
    fn occupied(&self) -> &[Vertex];

    /// Number of tokens the process currently maintains; used by
    /// experiments that track active-set growth (e.g. the exponential
    /// growth phase on expanders). Defaults to `occupied().len()`.
    fn support_size(&self) -> usize {
        self.occupied().len()
    }

    /// The hybrid sparse/dense frontier describing the occupied set, when
    /// the process maintains one (set-valued processes: cobra, SIS).
    /// Drivers use it for word-parallel coverage union and O(1)/O(log s)
    /// hit tests; `None` falls back to the [`StateView::occupied`] slice.
    fn frontier(&self) -> Option<&crate::frontier::Frontier> {
        None
    }
}

/// The mutable state of one run of a process, generic over the graph
/// representation.
///
/// [`TypedState::step`] is generic over the RNG, so a driver holding a
/// concrete `StdRng` monomorphizes the whole step (no virtual call per
/// random draw), and over the graph `G`, so the same kernel body serves
/// both the materialized CSR [`Graph`] and the arithmetic
/// [`ImplicitGraph`] families. See [`TypedProcess`] for the driver
/// contract.
pub trait TypedState<G: ImplicitGraph + ?Sized = Graph>: StateView {
    /// Advance one round, keeping [`StateView::occupied`] current.
    fn step<R: Rng + ?Sized>(&mut self, g: &G, rng: &mut R);

    /// Advance one round on the fast path, drawing neighbors through
    /// `draw` (a [`NeighborDraw`] strategy such as the per-graph
    /// [`cobra_graph::NeighborSampler`] table). Must consume the same RNG
    /// stream and produce the same occupied *set* as [`TypedState::step`]
    /// — every [`NeighborDraw`] impl is stream-compatible, so the default
    /// simply ignores `draw`. Kernels whose inner loop is dominated by
    /// neighbor draws override this to route them through the table, and
    /// may skip materializing the [`StateView::occupied`] slice (leaving
    /// it stale) when the state exposes a [`StateView::frontier`] — the
    /// drivers read the frontier and [`StateView::support_size`] instead.
    fn step_sampled<D: NeighborDraw<G>, R: Rng + ?Sized>(&mut self, g: &G, draw: &D, rng: &mut R) {
        let _ = draw;
        self.step(g, rng)
    }

    /// Advance one round on the fast path with an observability probe
    /// attached. Must consume the same RNG stream and reach the same
    /// state as [`TypedState::step_sampled`] — the probe observes, it
    /// never participates. The default ignores the probe entirely (so
    /// every existing state is probe-transparent); kernels that can
    /// account for their own work (draw counts, coalesces, faults)
    /// override this to report through `probe`. With
    /// [`cobra_obs::NoopProbe`] every override must compile down to the
    /// unprobed kernel — `tests/probe_neutrality.rs` pins the routes
    /// bit-for-bit.
    fn step_probed<D: NeighborDraw<G>, R: Rng + ?Sized, Pb: cobra_obs::Probe>(
        &mut self,
        g: &G,
        draw: &D,
        rng: &mut R,
        probe: &mut Pb,
    ) {
        let _ = probe;
        self.step_sampled(g, draw, rng)
    }
}

/// A strategy for drawing uniformly random neighbors.
///
/// All implementations are **stream-compatible**: on the same RNG state
/// they make the same draws and consume the same number of `u64`s, so a
/// kernel parameterized over `D: NeighborDraw` produces bit-identical runs
/// whichever strategy drives it. [`ImplicitDraw`] resolves each neighbor
/// arithmetically (the spawn-anywhere default, for any graph);
/// [`cobra_graph::NeighborSampler`] is the table-driven CSR fast path
/// built once per graph.
///
/// Kernels call [`NeighborDraw::bind`] once per active vertex and draw
/// repeatedly through the returned [`BoundDraw`], so per-vertex setup
/// (slice bounds, table slot, threshold) is hoisted out of the draw loop
/// for every strategy — including loops whose draws interleave with other
/// randomness (SIS's per-contact transmission coins).
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

    /// Draw `k` uniformly random neighbors of `v`, passing each to `sink`
    /// in draw order; per-vertex setup is done once for the burst.
    #[inline]
    fn draw_many<R: Rng + ?Sized>(
        &self,
        g: &G,
        v: Vertex,
        k: u32,
        rng: &mut R,
        mut sink: impl FnMut(Vertex),
    ) {
        let bound = self.bind(g, v);
        for _ in 0..k {
            sink(bound.draw(rng));
        }
    }
}

/// A [`NeighborDraw`] resolved to one vertex: repeated draws with no
/// per-draw re-resolution, stream-compatible across strategies.
pub trait BoundDraw {
    /// Draw one uniformly random neighbor of the bound vertex.
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> Vertex;
}

impl NeighborDraw for cobra_graph::NeighborSampler {
    type Bound<'a> = cobra_graph::sampler::BoundSample<'a>;

    #[inline]
    fn bind<'a>(&'a self, g: &'a Graph, v: Vertex) -> Self::Bound<'a> {
        cobra_graph::NeighborSampler::bind(self, g, v)
    }
}

impl BoundDraw for cobra_graph::sampler::BoundSample<'_> {
    #[inline]
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> Vertex {
        cobra_graph::sampler::BoundSample::draw(self, rng)
    }
}

/// The [`NeighborDraw`] for arithmetic graphs: decode each vertex once
/// through [`ImplicitGraph::adjacency`], then index-address each draw into
/// that adjacency — no sampler table is needed. Draws with
/// [`sample_index`] (lazy rejection threshold), so for `G = Graph` this
/// consumes the identical RNG stream as [`cobra_graph::NeighborSampler`]
/// and `ns[sample_index(ns.len(), rng)]`, and resolves identical vertices
/// (the implicit families enumerate neighbors in CSR order).
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

/// Uniform index in `0..len` using Lemire-style rejection; unbiased and
/// branch-light. Generic over the RNG so every kernel inlines the
/// generator.
#[inline]
pub fn sample_index<R: Rng + ?Sized>(len: usize, rng: &mut R) -> usize {
    debug_assert!(len > 0);
    let len = len as u64;
    // Widening-multiply rejection sampling.
    let mut x = rng.next_u64();
    let mut m = (x as u128).wrapping_mul(len as u128);
    let mut lo = m as u64;
    if lo < len {
        let threshold = len.wrapping_neg() % len;
        while lo < threshold {
            x = rng.next_u64();
            m = (x as u128).wrapping_mul(len as u128);
            lo = m as u64;
        }
    }
    (m >> 64) as usize
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
    use cobra_graph::generators::classic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
