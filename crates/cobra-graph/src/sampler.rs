//! Precomputed uniform-neighbor sampling.
//!
//! Every walk kernel's inner loop is "pick a uniformly random neighbor of
//! `v`". The naive route recomputes, per draw, the CSR slice bounds (two
//! offset loads) and — on the Lemire rejection path — the threshold
//! `(2⁶⁴ − d) mod d` from the degree. A [`NeighborSampler`] is built once
//! per graph and amortizes all of that across every draw of every trial:
//!
//! * a packed per-vertex table of `(offset, degree, threshold)`, one load
//!   per draw instead of two offset loads plus a mod;
//! * a **regular-graph fast path**: when every vertex has the same degree
//!   `d`, the adjacency run of `v` starts at exactly `v·d`, so the table
//!   collapses to a single shared `(degree, threshold)` pair and the
//!   per-draw table load disappears entirely.
//!
//! **Stream compatibility.** [`NeighborSampler::sample`] consumes exactly
//! the same `u64` stream as `cobra_core::process::sample_index` and
//! `rand::RngExt::random_range` (all three are the same widening-multiply
//! rejection sampler; precomputing the threshold changes *when* it is
//! computed, never *which* draws are rejected). This is what lets the
//! scratch-engine trial runners swap the sampler in while staying
//! bit-for-bit identical to the allocating path — pinned by
//! `tests/engine_equivalence.rs` and the proptests below.

use crate::{Graph, Vertex};
use rand::Rng;

/// Packed sampling metadata for one vertex.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Start of the vertex's adjacency run in the CSR neighbor array.
    offset: usize,
    /// Degree of the vertex.
    degree: u32,
    /// Lemire rejection threshold `(2⁶⁴ − degree) mod degree` (0 for
    /// isolated vertices, which can never be sampled from anyway).
    threshold: u32,
}

/// The table behind a [`NeighborSampler`]: collapsed to one shared slot
/// for regular graphs, per-vertex otherwise.
#[derive(Clone, Debug)]
enum Table {
    /// All vertices share degree `degree`; vertex `v`'s run starts at
    /// `v · degree`.
    Regular {
        /// The shared degree.
        degree: u32,
        /// The shared rejection threshold.
        threshold: u32,
    },
    /// One [`Slot`] per vertex.
    PerVertex(Vec<Slot>),
}

/// Lemire rejection threshold `(2⁶⁴ − d) mod d` for span `d` (callers
/// guarantee the span of an actual draw is nonzero; isolated vertices get
/// a placeholder 0). This is the threshold the sampler table stores.
/// `cobra-core`'s implicit-graph draws do not precompute it: they call
/// `sample_index`, whose lazy threshold rejects the same draws, so both
/// routes consume the same stream — the proptests below pin the two at
/// the boundary degrees `d = 1`, `d = 2`, and `d` near `u32::MAX`.
#[inline]
pub fn threshold_for(d: u32) -> u32 {
    if d == 0 {
        0
    } else {
        ((d as u64).wrapping_neg() % d as u64) as u32
    }
}

/// Widening-multiply rejection sampling with a precomputed threshold:
/// uniform in `0..span`, consuming exactly the same `u64` stream as the
/// recompute-per-draw variants (`sample_index`, `random_range`). A redraw
/// happens iff the low 64 bits of `x·span` fall below `threshold`; since
/// `threshold < span`, that is precisely the condition the lazy variants
/// reject on.
#[inline]
pub fn lemire_draw<R: Rng + ?Sized>(span: u64, threshold: u64, rng: &mut R) -> usize {
    debug_assert!(span > 0);
    debug_assert_eq!(threshold, span.wrapping_neg() % span);
    let x = rng.next_u64();
    let mut m = (x as u128).wrapping_mul(span as u128);
    while (m as u64) < threshold {
        m = (rng.next_u64() as u128).wrapping_mul(span as u128);
    }
    (m >> 64) as usize
}

/// A per-graph table for drawing uniformly random neighbors with one
/// packed-slot load (or none, on regular graphs) and no per-draw threshold
/// recomputation. Build once per graph, share read-only across workers.
#[derive(Clone, Debug)]
pub struct NeighborSampler {
    table: Table,
    n: usize,
}

impl NeighborSampler {
    /// Build the sampling table for `g`: O(n) time and, for irregular
    /// graphs, 16 bytes per vertex (nothing at all for regular ones).
    pub fn new(g: &Graph) -> Self {
        let n = g.num_vertices();
        let table = match g.regularity() {
            Some(d) if d > 0 => Table::Regular {
                degree: d as u32,
                threshold: threshold_for(d as u32),
            },
            _ => {
                let (offsets, _) = g.csr_parts();
                Table::PerVertex(
                    (0..n)
                        .map(|v| {
                            let degree = (offsets[v + 1] - offsets[v]) as u32;
                            Slot {
                                offset: offsets[v],
                                degree,
                                threshold: threshold_for(degree),
                            }
                        })
                        .collect(),
                )
            }
        };
        NeighborSampler { table, n }
    }

    /// Number of vertices the table was built for.
    pub fn capacity(&self) -> usize {
        self.n
    }

    /// Whether the regular-graph fast path (single shared slot) is active.
    pub fn is_regular(&self) -> bool {
        matches!(self.table, Table::Regular { .. })
    }

    /// The packed slot for `v`.
    #[inline]
    fn slot(&self, v: Vertex) -> (usize, u32, u32) {
        match &self.table {
            Table::Regular { degree, threshold } => {
                ((v as usize) * (*degree as usize), *degree, *threshold)
            }
            Table::PerVertex(slots) => {
                let s = slots[v as usize];
                (s.offset, s.degree, s.threshold)
            }
        }
    }

    /// Resolve the per-vertex draw state for `v` once: the neighbor run
    /// and the precomputed rejection threshold, ready for repeated
    /// [`BoundSample::draw`]s with no per-draw slot loads. Panics if `v`
    /// is isolated, mirroring `cobra_core::ImplicitDraw`.
    #[inline]
    pub fn bind<'g>(&self, g: &'g Graph, v: Vertex) -> BoundSample<'g> {
        let (offset, degree, threshold) = self.slot(v);
        assert!(degree > 0, "vertex {v} has no neighbors");
        BoundSample {
            neighbors: &g.csr_parts().1[offset..offset + degree as usize],
            threshold: threshold as u64,
        }
    }

    /// Draw one uniformly random neighbor of `v`. Panics if `v` is
    /// isolated, mirroring `cobra_core::ImplicitDraw`. Consumes the same
    /// RNG stream as `ns[sample_index(ns.len(), rng)]` on the same state.
    /// Burst draws should [`NeighborSampler::bind`] once and draw
    /// repeatedly.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, g: &Graph, v: Vertex, rng: &mut R) -> Vertex {
        self.bind(g, v).draw(rng)
    }
}

/// A [`NeighborSampler`] resolved to one vertex: the neighbor run and the
/// precomputed Lemire threshold, borrowed from the graph's CSR arrays.
#[derive(Clone, Copy, Debug)]
pub struct BoundSample<'g> {
    neighbors: &'g [Vertex],
    threshold: u64,
}

impl BoundSample<'_> {
    /// Draw one uniformly random neighbor of the bound vertex, consuming
    /// the same RNG stream as the recompute-per-draw route.
    #[inline]
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> Vertex {
        let i = lemire_draw(self.neighbors.len() as u64, self.threshold, rng);
        self.neighbors[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{classic, gnp, grid, random_regular};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Reference draw: the recompute-per-draw route every kernel used
    /// before the sampler existed.
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
    fn regular_families_use_the_shared_slot() {
        assert!(NeighborSampler::new(&classic::cycle(12).unwrap()).is_regular());
        assert!(NeighborSampler::new(
            &random_regular::random_regular(32, 4, &mut StdRng::seed_from_u64(1)).unwrap()
        )
        .is_regular());
        // Grids have corner/edge/interior degree classes.
        assert!(!NeighborSampler::new(&grid::grid(&[5, 5])).is_regular());
        assert!(!NeighborSampler::new(&classic::star(9).unwrap()).is_regular());
    }

    #[test]
    fn threshold_matches_definition() {
        for d in 1u32..200 {
            assert_eq!(
                threshold_for(d) as u64,
                (d as u64).wrapping_neg() % d as u64
            );
            assert!((threshold_for(d)) < d);
        }
    }

    #[test]
    fn threshold_boundary_degrees() {
        // d = 1: 2⁶⁴ mod 1 = 0 — a degree-1 draw never rejects.
        assert_eq!(threshold_for(1), 0);
        // d = 2: 2⁶⁴ is even, so again no rejection region.
        assert_eq!(threshold_for(2), 0);
        // d = 3: 2⁶⁴ ≡ 1 (mod 3).
        assert_eq!(threshold_for(3), 1);
        // Powers of two always divide 2⁶⁴ exactly.
        assert_eq!(threshold_for(1 << 31), 0);
        // d = u32::MAX: 2³² ≡ 1 (mod 2³²−1) ⇒ 2⁶⁴ ≡ 1. The single-u64
        // rejection region at the largest representable degree.
        assert_eq!(threshold_for(u32::MAX), 1);
        // d = u32::MAX − 1: 2³² ≡ 2 (mod 2³²−2) ⇒ 2⁶⁴ ≡ 4.
        assert_eq!(threshold_for(u32::MAX - 1), 4);
    }

    #[test]
    fn lemire_draw_boundary_degrees_match_reference() {
        // Eager-threshold draws must consume the identical u64 stream as
        // the lazy `random_range` route at the degrees where the rejection
        // arithmetic is most delicate: trivial spans and spans within a
        // few of the u32 ceiling.
        for span in [1u64, 2, 3, (1 << 31), u32::MAX as u64 - 1, u32::MAX as u64] {
            let threshold = threshold_for(span as u32) as u64;
            let mut a = StdRng::seed_from_u64(span ^ 0xB0A7);
            let mut b = StdRng::seed_from_u64(span ^ 0xB0A7);
            for round in 0..500u32 {
                let eager = lemire_draw(span, threshold, &mut a);
                let lazy = b.random_range(0u64..span) as usize;
                assert_eq!(eager, lazy, "span {span} round {round}");
                assert!(eager < span as usize);
            }
            assert_eq!(a.next_u64(), b.next_u64(), "span {span}: streams diverged");
        }
    }

    #[test]
    fn draws_match_reference_on_shared_seeds() {
        // Same seed, same vertex sequence ⇒ identical draws AND identical
        // RNG positions afterwards (stream compatibility, not just
        // distributional agreement).
        for (name, g) in zoo() {
            let sampler = NeighborSampler::new(&g);
            let mut a = StdRng::seed_from_u64(0xFEED);
            let mut b = StdRng::seed_from_u64(0xFEED);
            for round in 0..2000u32 {
                let v = (round as usize * 31) % g.num_vertices();
                let via_sampler = sampler.sample(&g, v as Vertex, &mut a);
                let via_reference = reference_draw(&g, v as Vertex, &mut b);
                assert_eq!(via_sampler, via_reference, "{name} round {round}");
            }
            assert_eq!(
                a.next_u64(),
                b.next_u64(),
                "{name}: RNG streams diverged (different u64 consumption)"
            );
        }
    }

    #[test]
    fn bound_draws_match_repeated_sample() {
        let g = grid::grid(&[6, 6]);
        let sampler = NeighborSampler::new(&g);
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for v in 0..g.num_vertices() as Vertex {
            let bound = sampler.bind(&g, v);
            let burst: Vec<Vertex> = (0..3).map(|_| bound.draw(&mut a)).collect();
            let singles: Vec<Vertex> = (0..3).map(|_| sampler.sample(&g, v, &mut b)).collect();
            assert_eq!(burst, singles);
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[should_panic(expected = "no neighbors")]
    fn isolated_vertex_panics() {
        let g = Graph::empty(3);
        let sampler = NeighborSampler::new(&g);
        let mut rng = StdRng::seed_from_u64(0);
        sampler.sample(&g, 1, &mut rng);
    }

    #[test]
    fn chi_square_uniform_per_degree_class() {
        // For each degree class present in the zoo, pool draws from one
        // representative vertex and check the empirical neighbor histogram
        // against uniform with a chi-square statistic. Threshold: mean +
        // 6σ of χ²(d−1), i.e. (d−1) + 6·√(2(d−1)) — loose enough to be
        // deterministic-stable, tight enough to catch a biased table.
        for (name, g) in zoo() {
            let sampler = NeighborSampler::new(&g);
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
                for _ in 0..draws {
                    let u = sampler.sample(&g, v, &mut rng);
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
            let sampler = NeighborSampler::new(&g);
            let mut rng = StdRng::seed_from_u64(rng_seed);
            for i in 0..200usize {
                let v = (i * 17 + rng_seed as usize) % g.num_vertices();
                let u = sampler.sample(&g, v as Vertex, &mut rng);
                prop_assert!(g.has_edge(v as Vertex, u), "{v} -> {u} not an edge");
            }
        }

        /// Eager (precomputed-threshold) and lazy (recompute-on-demand)
        /// Lemire rejection stay stream-identical for arbitrary spans,
        /// including spans drawn from the top of the u32 range where the
        /// rejection region is a handful of u64s out of 2⁶⁴.
        #[test]
        fn lemire_streams_agree_for_arbitrary_spans(
            small in 1u32..64,
            huge in (u32::MAX - 64)..u32::MAX,
            rng_seed in 0u64..1000,
        ) {
            for span in [small as u64, huge as u64] {
                let threshold = threshold_for(span as u32) as u64;
                let mut a = StdRng::seed_from_u64(rng_seed);
                let mut b = StdRng::seed_from_u64(rng_seed);
                for _ in 0..64 {
                    let eager = lemire_draw(span, threshold, &mut a);
                    let lazy = b.random_range(0u64..span) as usize;
                    prop_assert_eq!(eager, lazy);
                }
                prop_assert_eq!(a.next_u64(), b.next_u64());
            }
        }

        /// Stream compatibility on random graphs: the sampler and the
        /// `random_range` reference make identical draws from identical
        /// seeds and leave the RNG at the same position.
        #[test]
        fn stream_compatible_with_random_range(
            graph_seed in 0u64..1000,
            rng_seed in 0u64..1000,
        ) {
            let mut grng = StdRng::seed_from_u64(graph_seed);
            let g = gnp::gnp_connected(40, 0.2, 200, &mut grng).unwrap();
            let sampler = NeighborSampler::new(&g);
            let mut a = StdRng::seed_from_u64(rng_seed);
            let mut b = StdRng::seed_from_u64(rng_seed);
            for v in 0..g.num_vertices() as Vertex {
                for _ in 0..4 {
                    prop_assert_eq!(
                        sampler.sample(&g, v, &mut a),
                        reference_draw(&g, v, &mut b)
                    );
                }
            }
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
