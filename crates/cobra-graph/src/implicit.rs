//! Implicit (arithmetic) graph families — adjacency computed, never stored.
//!
//! The paper's structured families (§3 grids and hypercubes, the complete
//! graph) have closed-form adjacency: the `i`-th neighbor of vertex `v` is
//! an arithmetic function of `(v, i)`. Materializing them as
//! CSR costs `Θ(Σ deg)` memory — 14.5 GB for the 27-dimensional Boolean
//! hypercube — while the walk kernels only ever ask two questions per
//! draw: `degree(v)` and `neighbor(v, i)`. [`ImplicitGraph`] answers both
//! from one decode per vertex: [`ImplicitGraph::adjacency`] resolves `v`
//! into a [`Neighborhood`] once, and each of the vertex's draws is then a
//! lookup into it. The typed walk engine in `cobra-core` runs on either
//! representation through this one generic seam.
//!
//! **Order contract.** Every implementation enumerates neighbors in
//! *strictly ascending vertex order*, matching the sorted-CSR invariant of
//! [`Graph`]. This is what makes the CSR and implicit routes bit-for-bit
//! identical on a shared seed: the `i`-th draw resolves to the same vertex
//! whichever representation serves it (pinned per family by the unit tests
//! here and end-to-end by `tests/engine_equivalence.rs`).

use crate::csr::{Graph, Vertex};
use crate::error::{GraphError, Result};
use crate::generators::grid::GridShape;

/// One vertex's neighborhood, decoded once by [`ImplicitGraph::adjacency`].
pub trait Neighborhood {
    /// Number of neighbors.
    fn degree(&self) -> usize;

    /// The `i`-th neighbor in ascending vertex order, `i < degree()`.
    fn neighbor(&self, i: usize) -> Vertex;
}

/// A graph whose adjacency is computed on demand instead of stored.
///
/// Implementations must describe a simple undirected graph on the dense id
/// space `0..num_vertices()` and must enumerate each vertex's neighbors in
/// strictly ascending order (the CSR order), so that index-addressed
/// neighbor draws agree bit-for-bit with the materialized representation.
/// A family implements [`ImplicitGraph::num_vertices`] and
/// [`ImplicitGraph::adjacency`]; `degree` and `neighbor` are derived.
///
/// `Sync` is required so the Monte-Carlo engine can share one instance
/// across rayon workers, exactly as it shares a [`Graph`].
pub trait ImplicitGraph: Sync {
    /// The decoded neighborhood of one vertex.
    type Adjacency<'a>: Neighborhood
    where
        Self: 'a;

    /// Number of vertices `n`.
    fn num_vertices(&self) -> usize;

    /// Decode vertex `v` once, so that its degree and each of its
    /// neighbors is a lookup.
    fn adjacency(&self, v: Vertex) -> Self::Adjacency<'_>;

    /// Degree of vertex `v`.
    #[inline]
    fn degree(&self, v: Vertex) -> usize {
        self.adjacency(v).degree()
    }

    /// The `i`-th neighbor of `v` in ascending vertex order,
    /// `i < degree(v)`.
    #[inline]
    fn neighbor(&self, v: Vertex, i: usize) -> Vertex {
        self.adjacency(v).neighbor(i)
    }
}

/// A CSR adjacency slice is already decoded.
impl Neighborhood for &[Vertex] {
    #[inline]
    fn degree(&self) -> usize {
        self.len()
    }

    #[inline]
    fn neighbor(&self, i: usize) -> Vertex {
        self[i]
    }
}

/// A materialized CSR graph is trivially an implicit graph: a vertex's
/// adjacency is its sorted neighbor slice.
impl ImplicitGraph for Graph {
    type Adjacency<'a> = &'a [Vertex];

    #[inline]
    fn num_vertices(&self) -> usize {
        Graph::num_vertices(self)
    }

    #[inline]
    fn adjacency(&self, v: Vertex) -> &[Vertex] {
        self.neighbors(v)
    }
}

/// References delegate, so drivers can hold `&G` without re-wrapping.
impl<T: ImplicitGraph + ?Sized> ImplicitGraph for &T {
    type Adjacency<'a>
        = T::Adjacency<'a>
    where
        Self: 'a;

    #[inline]
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }

    #[inline]
    fn adjacency(&self, v: Vertex) -> T::Adjacency<'_> {
        (**self).adjacency(v)
    }
}

/// `0x01` in every byte.
const BYTE_ONES: u64 = 0x0101_0101_0101_0101;
/// `0x80` in every byte.
const BYTE_HIGHS: u64 = 0x8080_8080_8080_8080;

/// `SELECT_IN_BYTE[b | r << 8]` is the position of the `r`-th lowest set
/// bit of the byte `b` (8 where `b` has no such bit).
static SELECT_IN_BYTE: [u8; 2048] = select_in_byte_table();

const fn select_in_byte_table() -> [u8; 2048] {
    let mut table = [8u8; 2048];
    let mut b = 0;
    while b < 256 {
        let (mut bit, mut rank) = (0, 0);
        while bit < 8 {
            if b >> bit & 1 == 1 {
                table[b | rank << 8] = bit as u8;
                rank += 1;
            }
            bit += 1;
        }
        b += 1;
    }
    table
}

/// A word with the running popcounts of its bytes precomputed, so each
/// `select` on it is branch-free broadword arithmetic plus one table load
/// (Vigna, *Broadword implementation of rank/select queries*, 2008). Byte
/// `j` of `sums` counts the set bits in bytes `0..=j` of `bits`, so the
/// top byte is the popcount.
#[derive(Clone, Copy, Debug)]
struct RankedWord {
    bits: u64,
    sums: u64,
}

impl RankedWord {
    #[inline]
    fn new(bits: u64) -> Self {
        let mut s = bits - ((bits >> 1) & 0x5555_5555_5555_5555);
        s = (s & 0x3333_3333_3333_3333) + ((s >> 2) & 0x3333_3333_3333_3333);
        s = (s + (s >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
        RankedWord {
            bits,
            sums: s.wrapping_mul(BYTE_ONES),
        }
    }

    /// Number of set bits.
    #[inline]
    fn count(self) -> usize {
        (self.sums >> 56) as usize
    }

    /// Position of the `k`-th lowest set bit (`k` counts from 0), for
    /// `k < count()`.
    #[inline]
    fn select(self, k: usize) -> u32 {
        debug_assert!(k < self.count());
        let k = k as u64;
        // Flag (bit 7) each byte whose running count is at most k: those
        // bytes lie wholly below the bit. Counting the flags with one
        // multiply gives the byte that holds it.
        let below = (((k * BYTE_ONES) | BYTE_HIGHS) - self.sums) & BYTE_HIGHS;
        let shift = ((below >> 7).wrapping_mul(BYTE_ONES) >> 56) * 8;
        let rank = (k - ((self.sums << 8) >> shift & 0xFF)) & 7;
        let byte = self.bits >> shift & 0xFF;
        shift as u32 + SELECT_IN_BYTE[(byte | rank << 8) as usize] as u32
    }
}

/// The paper's `[0, extents[0]] × … × [0, extents[d-1]]` grid (§3), with
/// adjacency computed from the mixed-radix coordinates.
///
/// Neighbor order: the "minus" moves in dimension order `0..d` come first
/// (strides decrease with the dimension index, so subtracting them yields
/// ascending ids), then the "plus" moves in dimension order `d-1..0` —
/// exactly the sorted order the CSR builder produces.
#[derive(Clone, Debug)]
pub struct ImplicitGrid {
    shape: GridShape,
    /// The dimensions with at least 2 points, in dimension order (a
    /// one-point dimension has no moves).
    axes: Vec<Axis>,
    /// The id step of each move in CSR order, as wrapping `u32` offsets:
    /// minus moves in axis order, then plus moves in reverse. With `d`
    /// axes, axis `a`'s minus move is move `a` and its plus move is move
    /// `2d − 1 − a`.
    steps: Vec<u32>,
}

/// One dimension of an [`ImplicitGrid`] that has moves.
#[derive(Clone, Copy, Debug)]
struct Axis {
    points: u64,
    /// `⌊(2⁶⁴ − 1) / points⌋ + 1`: the high word of `x · recip` is
    /// `⌊x / points⌋` for every `x < 2³²` (Lemire, Kaser & Kurz, *Faster
    /// remainder by direct computation*, 2019).
    recip: u64,
}

impl ImplicitGrid {
    /// The grid `[0, extents[i]]` per dimension; same validation as the
    /// materialized [`crate::generators::grid::try_grid`].
    pub fn new(extents: &[usize]) -> Result<Self> {
        let shape = GridShape::new(extents)?;
        let moving: Vec<usize> = (0..shape.dims())
            .filter(|&i| shape.points_in_dim(i) > 1)
            .collect();
        // n ≤ 2³² and every axis has ≥ 2 points, so there are at most 32
        // axes: every move mask fits a u64.
        let d = moving.len();
        let mut axes = Vec::with_capacity(d);
        let mut steps = vec![0u32; 2 * d];
        for (a, &i) in moving.iter().enumerate() {
            // The largest stride is n / points ≤ 2³¹.
            let stride = shape.stride_in_dim(i) as u32;
            steps[a] = stride.wrapping_neg();
            steps[2 * d - 1 - a] = stride;
            let points = shape.points_in_dim(i) as u64;
            axes.push(Axis {
                points,
                recip: u64::MAX / points + 1,
            });
        }
        Ok(ImplicitGrid { shape, axes, steps })
    }

    /// The coordinate addressing of this grid.
    pub fn shape(&self) -> &GridShape {
        &self.shape
    }
}

/// An [`ImplicitGrid`] vertex's neighborhood: the vertex and a mask of
/// its valid moves in CSR order.
#[derive(Clone, Copy, Debug)]
pub struct GridAdjacency<'a> {
    v: Vertex,
    moves: RankedWord,
    steps: &'a [u32],
}

impl Neighborhood for GridAdjacency<'_> {
    #[inline]
    fn degree(&self) -> usize {
        self.moves.count()
    }

    #[inline]
    fn neighbor(&self, i: usize) -> Vertex {
        self.v
            .wrapping_add(self.steps[self.moves.select(i) as usize])
    }
}

impl ImplicitGraph for ImplicitGrid {
    type Adjacency<'a> = GridAdjacency<'a>;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.shape.num_vertices()
    }

    /// Peels the coordinates off from the last axis, one multiply each: a
    /// coordinate above 0 enables the axis's minus move, one below its
    /// last point the plus move.
    #[inline]
    fn adjacency(&self, v: Vertex) -> GridAdjacency<'_> {
        let d = self.axes.len();
        let mut rest = v as u64;
        let mut moves = 0u64;
        for (a, axis) in self.axes.iter().enumerate().rev() {
            let q = ((rest as u128 * axis.recip as u128) >> 64) as u64;
            let c = rest - q * axis.points;
            moves |= ((c > 0) as u64) << a | ((c + 1 < axis.points) as u64) << (2 * d - 1 - a);
            rest = q;
        }
        GridAdjacency {
            v,
            moves: RankedWord::new(moves),
            steps: &self.steps,
        }
    }
}

/// The Boolean hypercube `Q_dim` on `2^dim` vertices — the paper's §3
/// headline expander-adjacent family, and (as the grid `[0,1]^dim`) the
/// shape of the large-scale implicit cover runs.
///
/// Unlike the materialized [`crate::generators::hypercube::hypercube`]
/// (which caps `dim ≤ 30` because CSR adjacency is `dim·2^dim` words),
/// this form allows `dim` up to 32 — `dim = 32` is the `n = 2³²` boundary
/// graph whose max id is exactly `u32::MAX`.
///
/// Neighbor order: flipping a *set* bit decreases the id, flipping an
/// *unset* bit increases it, so ascending order is "set bits from highest
/// to lowest, then unset bits from lowest to highest".
#[derive(Clone, Copy, Debug)]
pub struct ImplicitHypercube {
    dim: u32,
    mask: u64,
}

impl ImplicitHypercube {
    /// The hypercube `Q_dim`; `1 ≤ dim ≤ 32`.
    pub fn new(dim: u32) -> Result<Self> {
        if dim == 0 || dim > 32 {
            return Err(GraphError::InvalidParameter {
                reason: format!("implicit hypercube dimension {dim} must be in 1..=32"),
            });
        }
        Ok(ImplicitHypercube {
            dim,
            mask: (1u64 << dim) - 1,
        })
    }

    /// The dimension `dim` (`= log₂ n =` the regular degree).
    pub fn dim(&self) -> u32 {
        self.dim
    }
}

/// An [`ImplicitHypercube`] vertex's neighborhood: its set bits (the
/// vertex itself) and its unset bits below `dim`.
#[derive(Clone, Copy, Debug)]
pub struct HypercubeAdjacency {
    set: RankedWord,
    unset: RankedWord,
}

impl Neighborhood for HypercubeAdjacency {
    #[inline]
    fn degree(&self) -> usize {
        self.set.count() + self.unset.count()
    }

    /// The first `set` neighbors clear a set bit, highest first; the rest
    /// set an unset bit, lowest first.
    #[inline]
    fn neighbor(&self, i: usize) -> Vertex {
        let set = self.set.count();
        let (word, rank) = std::hint::select_unpredictable(
            i < set,
            (self.set, set.wrapping_sub(i + 1)),
            (self.unset, i.wrapping_sub(set)),
        );
        (self.set.bits ^ 1 << word.select(rank)) as Vertex
    }
}

impl ImplicitGraph for ImplicitHypercube {
    type Adjacency<'a> = HypercubeAdjacency;

    #[inline]
    fn num_vertices(&self) -> usize {
        1usize << self.dim
    }

    #[inline]
    fn adjacency(&self, v: Vertex) -> HypercubeAdjacency {
        let v = v as u64;
        HypercubeAdjacency {
            set: RankedWord::new(v),
            unset: RankedWord::new(!v & self.mask),
        }
    }
}

/// The complete graph `K_n` — the degenerate "everything is one hop away"
/// family; useful as a closed-form oracle and for the `n = 2³²` id-space
/// boundary without any per-vertex storage.
#[derive(Clone, Copy, Debug)]
pub struct ImplicitComplete {
    n: usize,
}

impl ImplicitComplete {
    /// `K_n` for `n ≥ 2` (as [`crate::generators::classic::complete`]),
    /// accepting the full `u32` id space up to `n = 2³²`.
    pub fn new(n: usize) -> Result<Self> {
        if n < 2 {
            return Err(GraphError::InvalidParameter {
                reason: format!("complete graph needs n >= 2, got {n}"),
            });
        }
        crate::error::check_vertex_count(n as u64)?;
        Ok(ImplicitComplete { n })
    }
}

/// An [`ImplicitComplete`] vertex's neighborhood: everyone but `v`.
#[derive(Clone, Copy, Debug)]
pub struct CompleteAdjacency {
    v: usize,
    degree: usize,
}

impl Neighborhood for CompleteAdjacency {
    #[inline]
    fn degree(&self) -> usize {
        self.degree
    }

    /// `0..v` then `v+1..n`.
    #[inline]
    fn neighbor(&self, i: usize) -> Vertex {
        (i + (i >= self.v) as usize) as Vertex
    }
}

impl ImplicitGraph for ImplicitComplete {
    type Adjacency<'a> = CompleteAdjacency;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.n
    }

    #[inline]
    fn adjacency(&self, v: Vertex) -> CompleteAdjacency {
        CompleteAdjacency {
            v: v as usize,
            degree: self.n - 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{classic, grid, hypercube};
    use proptest::prelude::*;

    /// Assert an implicit family agrees with its CSR counterpart on vertex
    /// count, every degree, and every neighbor *in order* — the contract
    /// that makes the two engine routes bit-for-bit identical.
    fn assert_matches_csr<G: ImplicitGraph>(implicit: &G, csr: &Graph, label: &str) {
        assert_eq!(implicit.num_vertices(), csr.num_vertices(), "{label}: n");
        for v in csr.vertices() {
            let deg = csr.degree(v);
            assert_eq!(implicit.degree(v), deg, "{label}: degree({v})");
            for i in 0..deg {
                assert_eq!(
                    implicit.neighbor(v, i),
                    csr.neighbor(v, i),
                    "{label}: neighbor({v}, {i})"
                );
            }
        }
    }

    /// Neighbor lists must be strictly ascending even where no CSR
    /// counterpart exists to compare against.
    fn assert_ascending<G: ImplicitGraph>(g: &G, v: Vertex, label: &str) {
        let deg = g.degree(v);
        for i in 1..deg {
            assert!(
                g.neighbor(v, i - 1) < g.neighbor(v, i),
                "{label}: neighbors of {v} not ascending at {i}"
            );
        }
    }

    /// The `k`-th lowest set bit of `x`, by clearing the `k` below it.
    fn select_by_loop(mut x: u64, k: usize) -> u32 {
        for _ in 0..k {
            x &= x - 1;
        }
        x.trailing_zeros()
    }

    /// A word of roughly one quarter, one half or three quarters density.
    fn mix(a: u64, b: u64, density: u32) -> u64 {
        match density {
            0 => a & b,
            1 => a,
            _ => a | b,
        }
    }

    #[test]
    fn select_matches_a_bit_loop_on_every_table_entry() {
        for b in 0..256usize {
            for r in 0..8 {
                let ones = b.count_ones() as usize;
                let want = if r < ones {
                    select_by_loop(b as u64, r)
                } else {
                    8
                };
                assert_eq!(
                    SELECT_IN_BYTE[b | r << 8] as u32,
                    want,
                    "byte {b:#x} rank {r}"
                );
                if r >= ones {
                    continue;
                }
                // The same entry reached from every byte of a word, alone
                // and with every bit below it set.
                for shift in (0..64u32).step_by(8) {
                    let alone = (b as u64) << shift;
                    assert_eq!(RankedWord::new(alone).select(r), shift + want);
                    let below = alone | ((1u64 << shift) - 1);
                    let w = RankedWord::new(below);
                    assert_eq!(w.select(shift as usize + r), shift + want);
                }
            }
        }
    }

    #[test]
    fn grid_matches_csr() {
        for extents in [
            &[9][..],
            &[2, 2],
            &[7, 7],
            &[3, 4, 5],
            &[1, 1, 1, 1],
            &[0],
            &[0, 4],
            &[3, 0, 2],
            &[0, 0, 5, 0],
        ] {
            let implicit = ImplicitGrid::new(extents).unwrap();
            let csr = grid::try_grid(extents).unwrap();
            assert_matches_csr(&implicit, &csr, &format!("grid {extents:?}"));
        }
    }

    #[test]
    fn grid_at_the_id_space_boundary() {
        // The path on 2³² points: one axis whose reciprocal is 2³².
        let path = ImplicitGrid::new(&[u32::MAX as usize]).unwrap();
        assert_eq!(path.num_vertices(), 1usize << 32);
        assert_eq!((path.degree(0), path.neighbor(0, 0)), (1, 1));
        let top = u32::MAX;
        assert_eq!((path.degree(top), path.neighbor(top, 0)), (1, top - 1));
        let mid = 1u32 << 31;
        assert_eq!(path.degree(mid), 2);
        assert_eq!(
            (path.neighbor(mid, 0), path.neighbor(mid, 1)),
            (mid - 1, mid + 1)
        );

        // 2¹⁶ × 2¹⁶: both axes at the reciprocal of 2¹⁶.
        let side = 1u32 << 16;
        let square = ImplicitGrid::new(&[65535, 65535]).unwrap();
        assert_eq!(square.num_vertices(), 1usize << 32);
        assert_eq!(square.degree(0), 2);
        assert_eq!((square.neighbor(0, 0), square.neighbor(0, 1)), (1, side));
        assert_eq!(square.degree(top), 2);
        assert_eq!(
            (square.neighbor(top, 0), square.neighbor(top, 1)),
            (top - side, top - 1)
        );
        // Mid-edge vertices on the last row (65535, 32767) and the last
        // column (32768, 65535).
        let bottom = top - side / 2;
        assert_eq!(square.degree(bottom), 3);
        let ns: Vec<Vertex> = (0..3).map(|i| square.neighbor(bottom, i)).collect();
        assert_eq!(ns, [bottom - side, bottom - 1, bottom + 1]);
        let right = side / 2 * side + side - 1;
        assert_eq!(square.degree(right), 3);
        let ns: Vec<Vertex> = (0..3).map(|i| square.neighbor(right, i)).collect();
        assert_eq!(ns, [right - side, right - 1, right + side]);
    }

    #[test]
    fn hypercube_matches_csr() {
        for dim in 1..=6u32 {
            let implicit = ImplicitHypercube::new(dim).unwrap();
            let csr = hypercube::hypercube(dim);
            assert_matches_csr(&implicit, &csr, &format!("Q{dim}"));
        }
    }

    #[test]
    fn hypercube_accepts_the_id_space_boundary() {
        // dim = 32 is the n = 2³² graph: max id exactly u32::MAX. The CSR
        // route cannot build it; the implicit route must address it fully.
        let q = ImplicitHypercube::new(32).unwrap();
        assert_eq!(q.num_vertices(), 1usize << 32);
        assert_eq!(q.degree(0), 32);
        assert_eq!(q.neighbor(0, 0), 1);
        assert_eq!(q.neighbor(0, 31), 1 << 31);
        // The all-ones vertex: every neighbor clears one bit, descending
        // magnitude as the flipped bit gets lower — ascending id order.
        let top = u32::MAX;
        assert_eq!(q.neighbor(top, 0), !(1u32 << 31));
        assert_eq!(q.neighbor(top, 31), top - 1);
        assert_ascending(&q, top, "Q32");
        assert_ascending(&q, 0x8000_0001, "Q32");
        assert!(ImplicitHypercube::new(0).is_err());
        assert!(ImplicitHypercube::new(33).is_err());
    }

    #[test]
    fn complete_matches_csr() {
        for n in [2usize, 3, 5, 8] {
            let implicit = ImplicitComplete::new(n).unwrap();
            let csr = classic::complete(n).unwrap();
            assert_matches_csr(&implicit, &csr, &format!("K{n}"));
        }
        assert!(ImplicitComplete::new(1).is_err());
    }

    #[test]
    fn complete_at_the_id_space_boundary() {
        let n = u32::MAX as usize + 1;
        let k = ImplicitComplete::new(n).unwrap();
        assert_eq!(k.num_vertices(), n);
        assert_eq!(k.degree(0), n - 1);
        // Neighbors of 0 are 1..=u32::MAX; of u32::MAX are 0..u32::MAX.
        assert_eq!(k.neighbor(0, n - 2), u32::MAX);
        assert_eq!(k.neighbor(u32::MAX, 0), 0);
        assert_eq!(k.neighbor(u32::MAX, n - 2), u32::MAX - 1);
        assert!(ImplicitComplete::new(n + 1).is_err());
    }

    #[test]
    fn csr_graph_is_its_own_implicit_form() {
        let g = grid::grid(&[3, 3]);
        assert_matches_csr(&&g, &g, "CSR-as-implicit");
    }

    #[test]
    fn reference_delegation() {
        let q = ImplicitHypercube::new(3).unwrap();
        let by_ref: &ImplicitHypercube = &q;
        assert_eq!(ImplicitGraph::num_vertices(&by_ref), 8);
        assert_eq!(ImplicitGraph::degree(&by_ref, 5), 3);
        assert_eq!(ImplicitGraph::neighbor(&by_ref, 0, 2), 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `select` agrees with a bit loop at every valid rank of sparse,
        /// half-full and dense words.
        #[test]
        fn select_matches_a_bit_loop(
            a in 0u64..u64::MAX,
            b in 0u64..u64::MAX,
            density in 0u32..3,
        ) {
            let x = mix(a, b, density);
            let w = RankedWord::new(x);
            prop_assert_eq!(w.count(), x.count_ones() as usize);
            for k in 0..w.count() {
                prop_assert_eq!(w.select(k), select_by_loop(x, k));
            }
        }

        /// Past the CSR-checked Q1–Q6: at random vertices of Q7–Q32 the
        /// neighbors ascend strictly, each differs from `v` in one bit,
        /// and together they flip all `dim` bits.
        #[test]
        fn hypercube_neighbors_flip_every_bit_once_in_order(
            dim in 7u32..33,
            (a, b) in (0u64..u64::MAX, 0u64..u64::MAX),
            density in 0u32..3,
        ) {
            let q = ImplicitHypercube::new(dim).unwrap();
            let v = (mix(a, b, density) & q.mask) as Vertex;
            prop_assert_eq!(q.degree(v), dim as usize);
            let mut flipped = 0u64;
            for i in 0..dim as usize {
                let u = q.neighbor(v, i);
                let bit = (u ^ v) as u64;
                prop_assert!(bit.is_power_of_two(), "Q{dim}: {u:#x} is not one flip from {v:#x}");
                if i > 0 {
                    prop_assert!(q.neighbor(v, i - 1) < u, "Q{dim}: {v:#x} not ascending at {i}");
                }
                flipped |= bit;
            }
            prop_assert_eq!(flipped, q.mask);
        }
    }
}
