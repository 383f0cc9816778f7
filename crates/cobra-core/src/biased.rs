//! Biased random walks (paper §5.1) — the analysis engine behind the
//! paper's general-graph bounds.
//!
//! Three pieces, mirroring the paper:
//!
//! * [`BiasedWalk`] — the paper's **inverse-degree-biased walk**: each
//!   step, with probability `1/d(v)` the controller picks the next
//!   vertex, otherwise the step is uniform, and there is no bias at the
//!   target ([`BiasedWalk::inverse_degree_toward`]). This is the
//!   `ε(v) = 1/d(v)` schedule of the ε-biased walks of Azar, Broder,
//!   Karlin, Linial, Phillips.
//! * [`TowardTarget`] — its controller, which always moves along a
//!   shortest path toward the target vertex (used to realize the drift
//!   the cobra walk's second pebble provides: Lemma 14's coupling says
//!   `H_cobra(u, v) ≤ H*(u, v)` for the best inverse-degree-biased walk).
//! * [`MetropolisWalk`] — the optimal-stationary-bias construction of
//!   Lemma 16: a Metropolis chain with stationary measure
//!   `π(x) ∝ σ̂(x, S)·d(x)`, where `σ̂(x, v)` is the best achievable
//!   product `∏_{y∈P, y≠v}(1 − 1/d(y))` over paths `P` from `x` to `v`
//!   ([`sigma_hat`]). Its return time to `v` realizes Corollary 17's
//!   `(d(v) + Σ_{x≠v} σ̂(x,v)·d(x)) / d(v)` bound.

use crate::process::{
    bernoulli, sample_index, Active, NeighborDraw, StateView, TypedProcess, TypedState,
};
use cobra_graph::{metrics, Graph, Vertex};
use rand::Rng;
use std::sync::Arc;

/// The controller that walks along a BFS shortest path toward `target`,
/// breaking ties uniformly at random among distance-decreasing neighbors.
/// It is memoryless and time independent (paper §5.1: "the controller
/// can be probabilistic, but it is time independent").
pub struct TowardTarget {
    target: Vertex,
    dist: Vec<u32>,
}

impl TowardTarget {
    /// Precompute BFS distances to `target`.
    pub fn new(g: &Graph, target: Vertex) -> Self {
        TowardTarget {
            target,
            dist: metrics::bfs_distances(g, target),
        }
    }

    /// The target vertex.
    pub fn target(&self) -> Vertex {
        self.target
    }

    /// Choose the next vertex from `v`'s neighborhood.
    pub fn choose<R: Rng + ?Sized>(&self, g: &Graph, v: Vertex, rng: &mut R) -> Vertex {
        let dv = self.dist[v as usize];
        let ns = g.neighbors(v);
        // Count distance-decreasing neighbors, then pick one uniformly.
        let closer = ns.iter().filter(|&&u| self.dist[u as usize] < dv).count();
        if closer == 0 {
            // Disconnected from target or already there: fall back to uniform.
            return ns[sample_index(ns.len(), rng)];
        }
        let pick = sample_index(closer, rng);
        let mut seen = 0;
        for &u in ns {
            if self.dist[u as usize] < dv {
                if seen == pick {
                    return u;
                }
                seen += 1;
            }
        }
        unreachable!("pick < closer")
    }
}

/// The paper's inverse-degree-biased walk (§5.1): bias `1/d(v)` toward
/// the target at `v ≠ target`, uniform at the target.
#[derive(Clone)]
pub struct BiasedWalk {
    controller: Arc<TowardTarget>,
}

impl BiasedWalk {
    /// The inverse-degree-biased walk steered along shortest paths
    /// toward `target`.
    pub fn inverse_degree_toward(g: &Graph, target: Vertex) -> Self {
        BiasedWalk {
            controller: Arc::new(TowardTarget::new(g, target)),
        }
    }
}

impl TypedProcess for BiasedWalk {
    type State = BiasedState;

    fn spawn_typed(&self, g: &Graph, start: Vertex) -> BiasedState {
        assert!((start as usize) < g.num_vertices(), "start vertex in range");
        BiasedState {
            controller: Arc::clone(&self.controller),
            pos: [start],
        }
    }
}

/// Mutable state of a running biased walk: one pebble position plus a
/// handle on the shared controller.
pub struct BiasedState {
    controller: Arc<TowardTarget>,
    pos: [Vertex; 1],
}

impl TypedState for BiasedState {
    fn step_probed<D: NeighborDraw, R: Rng + ?Sized, Pb: cobra_obs::Probe>(
        &mut self,
        g: &Graph,
        draw: &D,
        rng: &mut R,
        _probe: &mut Pb,
    ) {
        let v = self.pos[0];
        let bias = if v == self.controller.target() {
            0.0
        } else {
            1.0 / g.degree(v) as f64
        };
        self.pos[0] = if bias > 0.0 && bernoulli(bias, rng) {
            let u = self.controller.choose(g, v, rng);
            debug_assert!(g.has_edge(v, u), "controller must pick a neighbor");
            u
        } else {
            draw.draw_one(g, v, rng)
        };
    }
}

impl StateView for BiasedState {
    fn active(&self) -> Active<'_> {
        Active::Pebbles(&self.pos)
    }
}

/// `σ̂(x, v)` for every `x`: the maximum over paths `P` from `x` to `v` of
/// `∏_y (1 − 1/d(y))` taken over the *interior* vertices of `P` (every
/// vertex strictly between `x` and `v`), so `σ̂(v, v) = 1` and
/// `σ̂(y, v) = 1` for neighbors `y` of `v`.
///
/// This convention satisfies the inequality Lemma 16's proof rests on —
/// `σ̂(y, S) ≥ (1 − 1/d(x))·σ̂(x, S)` for every neighbor `y` of `x`
/// (prepend `y → x` to `x`'s optimal path; the new interior gains exactly
/// the factor `1 − 1/d(x)`) — and avoids the degeneracy of source- or
/// target-inclusive products at degree-1 endpoints.
///
/// Computed by Dijkstra on vertex weights `w(y) = −ln(1 − 1/d(y))`:
/// maximizing the product is minimizing the weight sum.
pub fn sigma_hat(g: &Graph, target: Vertex) -> Vec<f64> {
    let n = g.num_vertices();
    let mut dist = vec![f64::INFINITY; n];
    let weight = |y: Vertex| -> f64 {
        let d = g.degree(y) as f64;
        // Degree-1 vertices give weight −ln(0) = ∞: they can never be the
        // interior of a simple path, so this is consistent.
        -(1.0 - 1.0 / d).ln()
    };
    dist[target as usize] = 0.0;
    // Binary-heap Dijkstra; (cost, vertex) with reversed ordering.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    #[derive(PartialEq)]
    struct Key(f64);
    impl Eq for Key {}
    impl PartialOrd for Key {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    impl Ord for Key {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            self.0
                .partial_cmp(&o.0)
                .unwrap_or(std::cmp::Ordering::Equal)
        }
    }
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((Key(0.0), target)));
    while let Some(Reverse((Key(c), v))) = heap.pop() {
        if c > dist[v as usize] {
            continue;
        }
        // Extending a path backward from `v` to its neighbor `u` makes `v`
        // an interior vertex of `u`'s path — unless `v` is the target.
        let step_cost = if v == target { 0.0 } else { weight(v) };
        for u in g.neighbor_iter(v) {
            let cand = c + step_cost;
            if cand < dist[u as usize] {
                dist[u as usize] = cand;
                heap.push(Reverse((Key(cand), u)));
            }
        }
    }
    dist.into_iter().map(|c| (-c).exp()).collect()
}

/// Corollary 17's upper bound on the best achievable return time to `v`
/// for an inverse-degree-biased walk:
/// `(d(v) + Σ_{x≠v} σ̂(x, v)·d(x)) / d(v)`.
pub fn return_time_bound(g: &Graph, target: Vertex) -> f64 {
    let sigma = sigma_hat(g, target);
    let dv = g.degree(target) as f64;
    let mut sum = 0.0;
    for x in g.vertices() {
        if x != target {
            sum += sigma[x as usize] * g.degree(x) as f64;
        }
    }
    (dv + sum) / dv
}

/// The Metropolis walk of Lemma 16: a time-homogeneous chain whose
/// stationary distribution is `π(x) ∝ σ̂(x, {v})·d(x)`, realized so every
/// transition satisfies `P_{x,y} ≥ (1 − 1/d(x))/d(x)` — i.e. it *is* an
/// inverse-degree-biased walk, with the bias spent making the target's
/// stationary mass as large as Lemma 16 guarantees.
pub struct MetropolisWalk {
    target: Vertex,
    /// Per-vertex cumulative transition probabilities aligned with the CSR
    /// neighbor order; self-loops removed per Lemma 16's `P`. Shared with
    /// every spawned state.
    cdf: Arc<Vec<Vec<f64>>>,
    /// Lemma 16's stationary distribution (normalized), for assertions and
    /// experiments.
    pi: Vec<f64>,
}

impl MetropolisWalk {
    /// Build the Lemma 16 chain for `target`.
    pub fn new(g: &Graph, target: Vertex) -> Self {
        let n = g.num_vertices();
        assert!((target as usize) < n, "target in range");
        let sigma = sigma_hat(g, target);
        // Unnormalized π.
        let pi_raw: Vec<f64> = g
            .vertices()
            .map(|x| sigma[x as usize] * g.degree(x) as f64)
            .collect();
        let z: f64 = pi_raw.iter().sum();
        let pi: Vec<f64> = pi_raw.iter().map(|p| p / z).collect();

        let mut cdf = Vec::with_capacity(n);
        for x in g.vertices() {
            let dx = g.degree(x) as f64;
            let ns = g.neighbors(x);
            // Metropolis with uniform proposal: M[x][y] =
            // (1/dx)·min(1, π(y)·dx / (π(x)·dy)); self-loop gets the rest.
            let mut m: Vec<f64> = ns
                .iter()
                .map(|&y| {
                    let ratio =
                        (pi_raw[y as usize] * dx) / (pi_raw[x as usize] * g.degree(y) as f64);
                    ratio.min(1.0) / dx
                })
                .collect();
            let total: f64 = m.iter().sum();
            let self_loop = (1.0 - total).max(0.0);
            // P removes the self-loop: P[x][y] = M[x][y] / (1 - M[x][x]).
            let denom = 1.0 - self_loop;
            debug_assert!(denom > 0.0, "vertex {x} would be absorbing");
            let mut acc = 0.0;
            for p in &mut m {
                acc += *p / denom;
                *p = acc;
            }
            // Guard against floating-point shortfall at the end.
            if let Some(last) = m.last_mut() {
                *last = 1.0;
            }
            cdf.push(m);
        }
        MetropolisWalk {
            target,
            cdf: Arc::new(cdf),
            pi,
        }
    }

    /// Lemma 16's stationary distribution `π` (normalized).
    pub fn stationary(&self) -> &[f64] {
        &self.pi
    }

    /// The target vertex.
    pub fn target(&self) -> Vertex {
        self.target
    }

    /// Transition probability from `x` to its `i`-th CSR neighbor.
    pub fn transition_prob(&self, x: Vertex, i: usize) -> f64 {
        let c = &self.cdf[x as usize];
        if i == 0 {
            c[0]
        } else {
            c[i] - c[i - 1]
        }
    }
}

impl TypedProcess for MetropolisWalk {
    type State = MetropolisState;

    fn spawn_typed(&self, g: &Graph, start: Vertex) -> MetropolisState {
        assert!((start as usize) < g.num_vertices(), "start vertex in range");
        assert_eq!(
            g.num_vertices(),
            self.cdf.len(),
            "MetropolisWalk was built for a different graph"
        );
        MetropolisState {
            cdf: Arc::clone(&self.cdf),
            pos: [start],
        }
    }
}

/// Mutable state of a running Metropolis walk: one pebble position plus
/// a handle on the walk's shared per-vertex transition CDFs.
pub struct MetropolisState {
    cdf: Arc<Vec<Vec<f64>>>,
    pos: [Vertex; 1],
}

impl TypedState for MetropolisState {
    fn step_probed<D: NeighborDraw, R: Rng + ?Sized, Pb: cobra_obs::Probe>(
        &mut self,
        g: &Graph,
        _draw: &D,
        rng: &mut R,
        _probe: &mut Pb,
    ) {
        let v = self.pos[0];
        let c = &self.cdf[v as usize];
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let idx = c.partition_point(|&acc| acc < u).min(c.len() - 1);
        self.pos[0] = g.neighbors(v)[idx];
    }
}

impl StateView for MetropolisState {
    fn active(&self) -> Active<'_> {
        Active::Pebbles(&self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators::{classic, grid};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn toward_target_descends_distance() {
        let g = grid::grid(&[4, 4]);
        let ctl = TowardTarget::new(&g, 0);
        assert_eq!(ctl.target(), 0);
        let mut rng = StdRng::seed_from_u64(1);
        let dist = metrics::bfs_distances(&g, 0);
        for v in g.vertices().skip(1) {
            for _ in 0..5 {
                let u = ctl.choose(&g, v, &mut rng);
                assert!(g.has_edge(v, u));
                assert!(dist[u as usize] < dist[v as usize]);
            }
        }
    }

    #[test]
    fn sigma_hat_on_regular_graph_is_beta_power() {
        // On a δ-regular graph σ̂(x, v) = (1 − 1/δ)^{∆(x,v)−1} — a shortest
        // path has ∆−1 interior vertices, all with identical weight.
        let g = classic::cycle(8).unwrap(); // 2-regular
        let sigma = sigma_hat(&g, 0);
        let dist = metrics::bfs_distances(&g, 0);
        for v in g.vertices() {
            let hops = dist[v as usize] as i32;
            let expect = 0.5f64.powi((hops - 1).max(0));
            assert!(
                (sigma[v as usize] - expect).abs() < 1e-12,
                "vertex {v}: {} vs {expect}",
                sigma[v as usize]
            );
        }
    }

    #[test]
    fn sigma_hat_at_target_is_one() {
        let g = grid::grid(&[3, 3]);
        let sigma = sigma_hat(&g, 4);
        assert!((sigma[4] - 1.0).abs() < 1e-12);
        for v in g.vertices() {
            assert!(sigma[v as usize] <= 1.0 + 1e-12);
            assert!(sigma[v as usize] >= 0.0);
        }
    }

    #[test]
    fn sigma_hat_star_interior_is_hub_factor() {
        // Star with target = leaf 1. The hub is adjacent to the target so
        // σ̂(hub) = 1 (no interior). Any other leaf routes through the hub
        // (degree n−1 = 5), so σ̂(leaf) = 1 − 1/5 = 0.8.
        let g = classic::star(6).unwrap();
        let sigma = sigma_hat(&g, 1);
        assert!((sigma[1] - 1.0).abs() < 1e-12);
        assert!((sigma[0] - 1.0).abs() < 1e-12);
        for leaf in [2u32, 3, 4, 5] {
            assert!((sigma[leaf as usize] - 0.8).abs() < 1e-12, "leaf {leaf}");
        }
    }

    #[test]
    fn return_time_bound_on_complete_graph_is_constant() {
        // K_n: σ̂(x, v) = 1 − 1/(n−1) for the direct edge; the bound is
        // ≈ 1 + (n−1)·(1−1/(n−1)) ≈ n − 1 — matching the simple walk's
        // return time n−1... wait, on K_n stationarity gives return time
        // n. The bound must be ≤ n and ≥ 1.
        let g = classic::complete(10).unwrap();
        let b = return_time_bound(&g, 0);
        assert!(b > 1.0 && b <= 10.0, "bound {b}");
    }

    #[test]
    fn metropolis_rows_are_distributions() {
        let g = grid::grid(&[3, 3]);
        let mw = MetropolisWalk::new(&g, 4);
        assert_eq!(mw.target(), 4);
        for x in g.vertices() {
            let deg = g.degree(x);
            let mut total = 0.0;
            for i in 0..deg {
                let p = mw.transition_prob(x, i);
                assert!(p >= -1e-12, "negative transition prob at ({x},{i})");
                total += p;
            }
            assert!((total - 1.0).abs() < 1e-9, "row {x} sums to {total}");
        }
    }

    #[test]
    fn metropolis_respects_inverse_degree_floor() {
        // Lemma 16: P_{x,y} ≥ (1 − 1/d(x))/d(x) for every neighbor y.
        let g = grid::grid(&[3, 3]);
        let mw = MetropolisWalk::new(&g, 0);
        for x in g.vertices() {
            let dx = g.degree(x) as f64;
            let floor = (1.0 - 1.0 / dx) / dx;
            for i in 0..g.degree(x) {
                let p = mw.transition_prob(x, i);
                assert!(p >= floor - 1e-9, "P[{x}][{i}] = {p} below floor {floor}");
            }
        }
    }

    #[test]
    fn metropolis_stationary_favors_target() {
        let g = classic::cycle(12).unwrap();
        let mw = MetropolisWalk::new(&g, 0);
        let pi = mw.stationary();
        let max = pi.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            (pi[0] - max).abs() < 1e-12,
            "target has max stationary mass"
        );
        let sum: f64 = pi.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn metropolis_walk_moves_on_edges() {
        let g = grid::grid(&[3, 3]);
        let mw = MetropolisWalk::new(&g, 0);
        let mut st = mw.spawn_typed(&g, 8);
        let mut rng = StdRng::seed_from_u64(4);
        let mut prev = 8;
        for _ in 0..200 {
            st.step(&g, &mut rng);
            let cur = st.active().to_vec()[0];
            assert!(g.has_edge(prev, cur));
            prev = cur;
        }
    }

    #[test]
    fn metropolis_reaches_target_quickly_on_path() {
        let g = classic::path(20).unwrap();
        let mw = MetropolisWalk::new(&g, 0);
        let mut st = mw.spawn_typed(&g, 19);
        let mut rng = StdRng::seed_from_u64(5);
        let mut hit = None;
        for t in 1..100_000 {
            st.step(&g, &mut rng);
            if st.active().contains(0) {
                hit = Some(t);
                break;
            }
        }
        assert!(hit.is_some(), "never hit the target");
    }
}
