//! Cover-time and hitting-time measurement (paper §2 definitions) plus the
//! Matthews-bound check of Theorem 1.
//!
//! * **Cover time**: the first `T` such that every vertex belonged to some
//!   active set `S_t`, `t ≤ T`;
//! * **Hitting time `H(u, v)`**: the first time any pebble of a walk
//!   started at `u` reaches `v` — the cover time of the set `{v}`, which
//!   is how [`CoverDriver`] measures it;
//! * **`h_max`**: `max_{u,v} H(u, v)`, estimated by sampling pairs;
//! * **Theorem 1** (Matthews extension, proved in the prior cobra paper):
//!   cover time `= O(h_max · log n)` — checked empirically by
//!   [`matthews_ratio`].

use crate::coverage::SuccinctCoverage;
use crate::process::{ImplicitDraw, NeighborDraw, TypedProcess, TypedState};
use crate::scratch::TrialScratch;
use cobra_graph::{Graph, ImplicitGraph, Vertex};
use cobra_obs::{NoopProbe, Probe};
use rand::Rng;

/// Outcome of a cover-time run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoverResult {
    /// Rounds taken to cover the graph when `completed`; otherwise the
    /// rounds run before the budget ran out or the process died out.
    pub steps: usize,
    /// Number of distinct vertices covered when the run ended.
    pub covered: usize,
    /// Whether the whole graph was covered within the budget.
    pub completed: bool,
}

/// Outcome of a hitting-time run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HittingResult {
    /// Rounds until the target was first occupied when `hit`; otherwise
    /// the rounds run before the budget ran out or the process died out.
    pub steps: usize,
    /// Whether the target was reached within the budget.
    pub hit: bool,
}

/// Drives a process on a graph until it covers the graph (or hits a
/// target vertex) or a step budget runs out.
///
/// Generic over the graph representation: `G = Graph` (the CSR default)
/// and every [`ImplicitGraph`] family run the same monomorphized kernels,
/// the latter without materializing adjacency. Cover and hitting runs
/// share one body, [`CoverDriver::run_typed_in_probed`]: a hitting time
/// `H(u, v)` is the cover time of the set `{v}` (paper §2), so a hitting
/// run is a cover run whose coverage starts with every other vertex
/// already covered. Its loop is also the one [`run_cover_succinct`] and
/// [`crate::trajectory::record_trajectory`] run.
pub struct CoverDriver<'g, G: ?Sized = Graph> {
    g: &'g G,
}

impl<'g, G: ImplicitGraph + ?Sized> CoverDriver<'g, G> {
    /// Driver for graph `g`.
    pub fn new(g: &'g G) -> Self {
        CoverDriver { g }
    }

    /// Run `process` from `start` until the graph is covered or
    /// `max_steps` rounds elapse. Returns `None` only if the graph has no
    /// vertices. Coverage is tracked in a [`SuccinctCoverage`] bitmap and
    /// updated word-parallel whenever the process's active set is a dense
    /// [`crate::frontier::Frontier`].
    ///
    /// This is [`CoverDriver::run_typed_in`] on a fresh [`TrialScratch`]
    /// with [`ImplicitDraw`] neighbor draws, so it needs no per-graph
    /// setup; batched callers reuse one scratch per worker instead.
    pub fn run_typed<P: TypedProcess<G>, R: Rng + ?Sized>(
        &self,
        process: &P,
        start: Vertex,
        max_steps: usize,
        rng: &mut R,
    ) -> Option<CoverResult> {
        let mut scratch = TrialScratch::new(self.g);
        self.run_typed_in(process, &ImplicitDraw, &mut scratch, start, max_steps, rng)
    }

    /// Scratch-borrowing variant of [`CoverDriver::run_typed`] for the
    /// batched trial engine: reuses the process state and coverage bitmap
    /// in `scratch` (zero heap allocations once warm) and routes every
    /// neighbor draw through `draw` (the runners pass [`ImplicitDraw`]).
    /// Every [`NeighborDraw`] makes [`ImplicitDraw`]'s draws and
    /// `respawn` mirrors `spawn`, so results are **bit-for-bit
    /// identical** to [`CoverDriver::run_typed`] on the same seed —
    /// pinned by `tests/engine_equivalence.rs`.
    pub fn run_typed_in<P: TypedProcess<G>, D: NeighborDraw<G>, R: Rng + ?Sized>(
        &self,
        process: &P,
        draw: &D,
        scratch: &mut TrialScratch<P::State>,
        start: Vertex,
        max_steps: usize,
        rng: &mut R,
    ) -> Option<CoverResult> {
        self.run_typed_in_probed(
            process,
            draw,
            scratch,
            start,
            None,
            max_steps,
            rng,
            &mut NoopProbe,
        )
    }

    /// Run `process` from `start` until some pebble occupies `target` or
    /// `max_steps` rounds elapse. A run started *at* the target hits at
    /// step 0.
    ///
    /// This is [`CoverDriver::hit_typed_in`] on a fresh [`TrialScratch`]
    /// with [`ImplicitDraw`] neighbor draws.
    pub fn hit_typed<P: TypedProcess<G>, R: Rng + ?Sized>(
        &self,
        process: &P,
        start: Vertex,
        target: Vertex,
        max_steps: usize,
        rng: &mut R,
    ) -> HittingResult {
        let mut scratch = TrialScratch::new(self.g);
        self.hit_typed_in(
            process,
            &ImplicitDraw,
            &mut scratch,
            start,
            target,
            max_steps,
            rng,
        )
    }

    /// Scratch-borrowing variant of [`CoverDriver::hit_typed`], exactly
    /// as [`CoverDriver::run_typed_in`] is to [`CoverDriver::run_typed`]:
    /// bit-for-bit identical to it on the same seed.
    #[allow(clippy::too_many_arguments)] // mirrors hit_typed + (draw, scratch)
    pub fn hit_typed_in<P: TypedProcess<G>, D: NeighborDraw<G>, R: Rng + ?Sized>(
        &self,
        process: &P,
        draw: &D,
        scratch: &mut TrialScratch<P::State>,
        start: Vertex,
        target: Vertex,
        max_steps: usize,
        rng: &mut R,
    ) -> HittingResult {
        let res = self
            .run_typed_in_probed(
                process,
                draw,
                scratch,
                start,
                Some(target),
                max_steps,
                rng,
                &mut NoopProbe,
            )
            .expect("a target vertex implies a non-empty graph");
        HittingResult {
            steps: res.steps,
            hit: res.completed,
        }
    }

    /// The one trial body, with an observability [`Probe`] attached.
    /// With `target = None` it measures the cover time; with
    /// `Some(v)` it covers only `{v}`, so `completed` means "hit" and
    /// `steps` is the hitting time. Returns `None` only if the graph has
    /// no vertices.
    ///
    /// The driver reports rounds, frontier occupancy, and coverage
    /// deltas (on a hitting run, 1 when the target is hit); the process
    /// kernel reports its own draw accounting through
    /// [`TypedState::step_probed`]. The probe never touches the RNG, so
    /// results are bit-identical to the unprobed entry points on the
    /// same seed; with [`NoopProbe`] every hook is dead code.
    /// Allocation-free once warm for probes that don't allocate. A
    /// [`crate::trajectory::Trajectory`] probe records the per-round
    /// active-set sizes and coverage curve.
    ///
    /// A trial whose process dies out
    /// ([`crate::StateView::is_extinct`]) stops in that round and is
    /// reported censored, with `steps` the rounds it ran.
    #[allow(clippy::too_many_arguments)] // mirrors run_typed_in + target + probe
    pub fn run_typed_in_probed<P, D, R, Pb>(
        &self,
        process: &P,
        draw: &D,
        scratch: &mut TrialScratch<P::State>,
        start: Vertex,
        target: Option<Vertex>,
        max_steps: usize,
        rng: &mut R,
        probe: &mut Pb,
    ) -> Option<CoverResult>
    where
        P: TypedProcess<G>,
        D: NeighborDraw<G>,
        R: Rng + ?Sized,
        Pb: Probe,
    {
        if self.g.num_vertices() == 0 {
            return None;
        }
        scratch.prepare(self.g, process, start, target);
        let TrialScratch { state, covered } = scratch;
        let state = state.as_mut().expect("prepare populated the state");
        Some(cover_loop(
            self.g, state, covered, draw, max_steps, rng, probe,
        ))
    }
}

/// The per-trial loop: mark the initial configuration, then step `state`
/// and union each round's active set into `covered` until every vertex
/// is covered, `max_steps` rounds elapse, or the state dies out.
/// `covered` must be sized for `g`; the vertices it already holds are
/// the ones the run need not reach.
fn cover_loop<G, S, D, R, Pb>(
    g: &G,
    state: &mut S,
    covered: &mut SuccinctCoverage,
    draw: &D,
    max_steps: usize,
    rng: &mut R,
    probe: &mut Pb,
) -> CoverResult
where
    G: ImplicitGraph + ?Sized,
    S: TypedState<G>,
    D: NeighborDraw<G>,
    R: Rng + ?Sized,
    Pb: Probe,
{
    let newly = covered.union_active(state.active());
    probe.on_coverage(newly as u64, covered.count() as u64);
    let mut steps = 0;
    while !covered.is_complete() && steps < max_steps && !state.is_extinct() {
        steps += 1;
        state.step_probed(g, draw, rng, probe);
        let newly = covered.union_active(state.active());
        if Pb::ENABLED {
            probe.on_round(steps as u64, state.support_size() as u64);
        }
        probe.on_coverage(newly as u64, covered.count() as u64);
    }
    let completed = covered.is_complete();
    probe.on_trial_end(steps as u64, completed);
    CoverResult {
        steps,
        covered: covered.count(),
        completed,
    }
}

/// Run one cover trial of `process` on any [`ImplicitGraph`], tracking
/// coverage in a caller-owned [`SuccinctCoverage`].
///
/// This is the giant-run entry point: the caller preallocates (and can
/// reuse) the coverage bitmap, which is reset here, and the graph is
/// consulted only through arithmetic [`ImplicitGraph`] calls. The loop
/// is [`CoverDriver`]'s, with [`ImplicitDraw`] draws on a freshly
/// spawned state, so the two agree draw-for-draw (the bitmap never
/// touches the RNG). See `tests/implicit_scale.rs`, which pushes this
/// through 10⁸ vertices without materializing adjacency.
pub fn run_cover_succinct<G, P, R>(
    g: &G,
    process: &P,
    covered: &mut SuccinctCoverage,
    start: Vertex,
    max_steps: usize,
    rng: &mut R,
) -> Option<CoverResult>
where
    G: ImplicitGraph + ?Sized,
    P: TypedProcess<G>,
    R: Rng + ?Sized,
{
    let n = g.num_vertices();
    if n == 0 {
        return None;
    }
    assert_eq!(
        covered.capacity(),
        n,
        "coverage sized for a different graph"
    );
    covered.reset();
    let mut state = process.spawn_typed(g, start);
    Some(cover_loop(
        g,
        &mut state,
        covered,
        &ImplicitDraw,
        max_steps,
        rng,
        &mut NoopProbe,
    ))
}

/// Estimate `h_max = max_{u,v} H(u, v)` by measuring the mean hitting time
/// over `trials` runs for each of `pairs` sampled `(u, v)` pairs, returning
/// the largest mean observed. For small graphs, pass `pairs >= n²` to make
/// the pair sample exhaustive-ish.
///
/// Runs that miss the target (the budget ran out, or the process died
/// out) count as `max_steps` (an underestimate — acceptable because the
/// Matthews experiment only needs the right order of magnitude and
/// reports censoring separately). All trials share one [`TrialScratch`].
pub fn estimate_hmax<P: TypedProcess, R: Rng + ?Sized>(
    g: &Graph,
    process: &P,
    pairs: usize,
    trials: usize,
    max_steps: usize,
    rng: &mut R,
) -> f64 {
    use crate::process::sample_index;
    let n = g.num_vertices();
    assert!(n >= 2, "hitting times need at least two vertices");
    let driver = CoverDriver::new(g);
    let mut scratch = TrialScratch::new(g);
    let mut worst = 0.0f64;
    for _ in 0..pairs {
        let u = sample_index(n, rng) as Vertex;
        let mut v = sample_index(n - 1, rng) as Vertex;
        if v >= u {
            v += 1;
        }
        let mut total = 0usize;
        for _ in 0..trials {
            let res =
                driver.hit_typed_in(process, &ImplicitDraw, &mut scratch, u, v, max_steps, rng);
            total += if res.hit { res.steps } else { max_steps };
        }
        let mean = total as f64 / trials as f64;
        worst = worst.max(mean);
    }
    worst
}

/// The Matthews ratio `cover_time / (h_max · ln n)`. Theorem 1 says this
/// is O(1) for cobra walks; the experiment harness checks it stays bounded
/// across families and sizes.
pub fn matthews_ratio(cover_time: f64, hmax: f64, n: usize) -> f64 {
    assert!(n >= 2);
    cover_time / (hmax.max(1.0) * (n as f64).ln())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cobra::CobraWalk;
    use crate::simple::SimpleWalk;
    use cobra_graph::generators::classic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cover_completes_on_small_cycle() {
        let g = classic::cycle(8).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let res = CoverDriver::new(&g)
            .run_typed(&CobraWalk::standard(), 0, 10_000, &mut rng)
            .unwrap();
        assert!(res.completed);
        assert_eq!(res.covered, 8);
        assert!(res.steps >= 4, "cannot cover an 8-cycle in under 4 rounds");
    }

    #[test]
    fn cover_budget_exhaustion_reports_partial() {
        let g = classic::path(50).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let res = CoverDriver::new(&g)
            .run_typed(&SimpleWalk::new(), 0, 3, &mut rng)
            .unwrap();
        assert!(!res.completed);
        assert!(res.covered < 50);
        assert_eq!(res.steps, 3);
    }

    #[test]
    fn cover_on_single_vertex_graph_is_zero_steps() {
        let g = cobra_graph::builder::from_edges(1, &[]).unwrap();
        // Single-vertex graph: start covers everything; process never steps,
        // so its (absent) neighbors are never sampled.
        let mut rng = StdRng::seed_from_u64(3);
        let res = CoverDriver::new(&g)
            .run_typed(&SimpleWalk::new(), 0, 10, &mut rng)
            .unwrap();
        assert!(res.completed);
        assert_eq!(res.steps, 0);
    }

    #[test]
    fn cover_on_empty_graph_is_none() {
        let g = cobra_graph::Graph::empty(0);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(CoverDriver::new(&g)
            .run_typed(&SimpleWalk::new(), 0, 10, &mut rng)
            .is_none());
    }

    #[test]
    fn trajectory_is_recorded() {
        let g = classic::complete(16).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut tr = crate::trajectory::Trajectory::default();
        let res = CoverDriver::new(&g)
            .run_typed_in_probed(
                &CobraWalk::standard(),
                &ImplicitDraw,
                &mut TrialScratch::new(&g),
                0,
                None,
                10_000,
                &mut rng,
                &mut tr,
            )
            .unwrap();
        assert_eq!(tr.active.len(), res.steps);
        assert_eq!(tr.covered.len(), res.steps);
        assert_eq!(tr.completed_at, Some(res.steps));
        assert!(tr.active.iter().all(|&s| (1..=16).contains(&s)));
    }

    #[test]
    fn hitting_at_start_is_zero() {
        let g = classic::cycle(5).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let res = CoverDriver::new(&g).hit_typed(&SimpleWalk::new(), 3, 3, 100, &mut rng);
        assert!(res.hit);
        assert_eq!(res.steps, 0);
    }

    #[test]
    fn hitting_adjacent_takes_at_least_one_step() {
        let g = classic::complete(4).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let res = CoverDriver::new(&g).hit_typed(&CobraWalk::standard(), 0, 1, 1000, &mut rng);
        assert!(res.hit);
        assert!(res.steps >= 1);
    }

    #[test]
    fn hitting_budget_exhaustion() {
        let g = classic::path(100).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let res = CoverDriver::new(&g).hit_typed(&SimpleWalk::new(), 0, 99, 5, &mut rng);
        assert!(!res.hit);
        assert_eq!(res.steps, 5);
    }

    #[test]
    fn hmax_on_complete_graph_is_small() {
        let g = classic::complete(8).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let h = estimate_hmax(&g, &CobraWalk::standard(), 10, 20, 10_000, &mut rng);
        // On K_8 the 2-cobra hits any fixed vertex in a handful of rounds.
        assert!(h >= 1.0);
        assert!(h < 30.0, "h_max estimate {h} way too large for K8");
    }

    #[test]
    fn matthews_ratio_is_finite_and_positive() {
        let r = matthews_ratio(100.0, 10.0, 64);
        assert!(r > 0.0 && r.is_finite());
        // cover = hmax·ln n gives ratio 1.
        let n = 64usize;
        let r1 = matthews_ratio(10.0 * (n as f64).ln(), 10.0, n);
        assert!((r1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cobra_cover_beats_simple_walk_on_cycle() {
        // Sanity: 2-cobra covers the cycle about quadratically faster.
        let g = classic::cycle(64).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let trials = 5;
        let mut cobra_total = 0usize;
        let mut rw_total = 0usize;
        for _ in 0..trials {
            cobra_total += CoverDriver::new(&g)
                .run_typed(&CobraWalk::standard(), 0, 1_000_000, &mut rng)
                .unwrap()
                .steps;
            rw_total += CoverDriver::new(&g)
                .run_typed(&SimpleWalk::new(), 0, 1_000_000, &mut rng)
                .unwrap()
                .steps;
        }
        assert!(
            cobra_total * 3 < rw_total,
            "cobra {cobra_total} not clearly faster than simple {rw_total}"
        );
    }
}
