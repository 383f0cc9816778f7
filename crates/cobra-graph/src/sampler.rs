//! Uniform neighbor draws.
//!
//! Every walk kernel's inner loop is "pick a uniformly random neighbor of
//! `v`": index `v`'s ascending adjacency with [`sample_index`]. That
//! function is the workspace's one Lemire draw. `cobra_core::ImplicitDraw`
//! runs every engine's draws through it, on a CSR [`Graph`] (whose
//! adjacency is its neighbor slice) and on the implicit families alike.
//!
//! **Stream contract.** [`sample_index`] consumes exactly the `u64`s that
//! `rand::RngExt::random_range(0..len)` consumes on the same state and
//! returns the same index. So every route that draws through it, and the
//! reference `ns[random_range(0..ns.len())]`, makes the same draws from
//! the same seed and leaves the RNG at the same position. The tests below
//! pin the index draw; `cobra_core`'s process tests pin the neighbor draw
//! on CSR graphs.
//!
//! [`NeighborSampler`] is a stateless name for the same draw on a CSR
//! [`Graph`]. The benchmark package (`perfbench/`) builds one per graph
//! and hands it to the engine.

use crate::{Graph, Vertex};
use rand::Rng;

/// Uniform index in `0..len` by widening-multiply rejection (Lemire,
/// arXiv:1805.10941). The rejection threshold `(2⁶⁴ − len) mod len` is
/// computed only when the low word of the product falls below `len`, so a
/// typical draw costs one `u64` and one multiply. Generic over the RNG so
/// every kernel inlines the generator.
#[inline]
pub fn sample_index<R: Rng + ?Sized>(len: usize, rng: &mut R) -> usize {
    debug_assert!(len > 0);
    let len = len as u64;
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

/// Uniform neighbor draws on a CSR [`Graph`], with no per-graph state:
/// `g.neighbors(v)[sample_index(g.degree(v), rng)]`. As a
/// `cobra_core::NeighborDraw` it is `cobra_core::ImplicitDraw`, so it
/// makes the engine's draws exactly.
#[derive(Clone, Copy, Debug, Default)]
pub struct NeighborSampler;

impl NeighborSampler {
    /// The sampler for `g`. It stores nothing.
    pub fn new(_g: &Graph) -> Self {
        NeighborSampler
    }

    /// `v`'s neighbors, ready for repeated [`BoundSample::draw`]s. Panics
    /// if `v` is isolated.
    #[inline]
    pub fn bind<'g>(&self, g: &'g Graph, v: Vertex) -> BoundSample<'g> {
        let neighbors = g.neighbors(v);
        assert!(!neighbors.is_empty(), "vertex {v} has no neighbors");
        BoundSample { neighbors }
    }
}

/// A [`NeighborSampler`] bound to one vertex: its neighbor slice.
#[derive(Clone, Copy, Debug)]
pub struct BoundSample<'g> {
    neighbors: &'g [Vertex],
}

impl BoundSample<'_> {
    /// Draw one uniformly random neighbor of the bound vertex.
    #[inline]
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> Vertex {
        self.neighbors[sample_index(self.neighbors.len(), rng)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn sample_index_boundary_spans_match_random_range() {
        // The lazy threshold must reject exactly the draws `random_range`
        // rejects where the arithmetic is most delicate: trivial spans,
        // a power of two, and spans within a few of the u32 ceiling
        // (2⁶⁴ mod (2³²−1) = 1 and 2⁶⁴ mod (2³²−2) = 4 leave a rejection
        // region of a handful of u64s).
        for span in [1u64, 2, 3, 1 << 31, u32::MAX as u64 - 1, u32::MAX as u64] {
            let mut a = StdRng::seed_from_u64(span ^ 0xB0A7);
            let mut b = StdRng::seed_from_u64(span ^ 0xB0A7);
            for round in 0..500u32 {
                let got = sample_index(span as usize, &mut a);
                let want = b.random_range(0u64..span) as usize;
                assert_eq!(got, want, "span {span} round {round}");
                assert!(got < span as usize);
            }
            assert_eq!(a.next_u64(), b.next_u64(), "span {span}: streams diverged");
        }
    }

    #[test]
    #[should_panic(expected = "no neighbors")]
    fn isolated_vertex_panics() {
        let g = Graph::empty(3);
        let sampler = NeighborSampler::new(&g);
        let mut rng = StdRng::seed_from_u64(0);
        sampler.bind(&g, 1).draw(&mut rng);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// `sample_index` and `random_range` stay stream-identical for
        /// arbitrary spans, including spans from the top of the u32 range.
        #[test]
        fn sample_index_streams_agree_for_arbitrary_spans(
            small in 1u32..64,
            huge in (u32::MAX - 64)..u32::MAX,
            rng_seed in 0u64..1000,
        ) {
            for span in [small as u64, huge as u64] {
                let mut a = StdRng::seed_from_u64(rng_seed);
                let mut b = StdRng::seed_from_u64(rng_seed);
                for _ in 0..64 {
                    let got = sample_index(span as usize, &mut a);
                    let want = b.random_range(0u64..span) as usize;
                    prop_assert_eq!(got, want);
                }
                prop_assert_eq!(a.next_u64(), b.next_u64());
            }
        }
    }
}
