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
//! A decode carries only what the draws read. A grid vertex keeps its
//! move mask and the move count its decode loop counted; an interior
//! vertex has every move, so its `i`-th neighbor is move `i`, and a
//! boundary vertex finds move `i` by clearing the `i` lowest set bits of
//! its mask.
//!
//! **Cursors.** A decode may reuse work from the one before it through
//! a cursor ([`ImplicitGraph::Cursor`]), which the caller keeps across
//! vertices; [`ImplicitGraph::adjacency_at`] is each family's one
//! decode, and [`ImplicitGraph::adjacency`] is that decode on a fresh
//! cursor. CSR graphs, grids and complete graphs share nothing, so their
//! cursor is `()`. A hypercube vertex's neighbor order splits at bit 6:
//! its bits above the low six are those of its 64-vertex block `v >> 6`,
//! whose order the cursor keeps and rebuilds only when the block
//! changes, and a 64-row table orders the low six. A dense frontier
//! visits a block's members in one bitset word, so a frontier round
//! builds one block order per word and each draw is two loads.
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
/// [`ImplicitGraph::adjacency_at`]; `adjacency`, `degree` and `neighbor`
/// are derived.
///
/// `Sync` is required so the Monte-Carlo engine can share one instance
/// across rayon workers, exactly as it shares a [`Graph`].
pub trait ImplicitGraph: Sync {
    /// Decode state carried from one vertex to the next (see the module
    /// docs). A default cursor holds nothing, and a cursor last used at
    /// any vertex, of this graph or another, decodes every vertex
    /// correctly; it only saves work when consecutive vertices share it.
    type Cursor: Default;

    /// The decoded neighborhood of one vertex.
    type Adjacency<'a>: Neighborhood
    where
        Self: 'a;

    /// Number of vertices `n`.
    fn num_vertices(&self) -> usize;

    /// Decode vertex `v` once, so that its degree and each of its
    /// neighbors is a lookup, reusing what `cursor` holds from the
    /// previous decode and leaving there what the next one may reuse.
    fn adjacency_at(&self, v: Vertex, cursor: &mut Self::Cursor) -> Self::Adjacency<'_>;

    /// [`ImplicitGraph::adjacency_at`] on a fresh cursor: the decode of a
    /// lone vertex.
    #[inline]
    fn adjacency(&self, v: Vertex) -> Self::Adjacency<'_> {
        self.adjacency_at(v, &mut Self::Cursor::default())
    }

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
    type Cursor = ();
    type Adjacency<'a> = &'a [Vertex];

    #[inline]
    fn num_vertices(&self) -> usize {
        Graph::num_vertices(self)
    }

    #[inline]
    fn adjacency_at(&self, v: Vertex, _: &mut ()) -> &[Vertex] {
        self.neighbors(v)
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
    n: usize,
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
    /// The bit of this axis's minus move in a move mask.
    minus: u64,
    /// The bit of this axis's plus move in a move mask.
    plus: u64,
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
                minus: 1 << a,
                plus: 1 << (2 * d - 1 - a),
            });
        }
        Ok(ImplicitGrid {
            n: shape.num_vertices(),
            axes,
            steps,
        })
    }
}

/// An [`ImplicitGrid`] vertex's neighborhood: the vertex, a mask of its
/// valid moves in CSR order, and their count.
///
/// An interior vertex has every move, so its `i`-th neighbor is move `i`.
/// A boundary vertex clears the `i` lowest set bits of its mask and takes
/// the move at the lowest bit left. Its degree is below `2d`, so `i` is
/// too: at most four clears on a grid of up to three dimensions.
#[derive(Clone, Copy, Debug)]
pub struct GridAdjacency<'a> {
    v: Vertex,
    moves: u64,
    degree: usize,
    steps: &'a [u32],
}

impl Neighborhood for GridAdjacency<'_> {
    #[inline]
    fn degree(&self) -> usize {
        self.degree
    }

    #[inline]
    fn neighbor(&self, i: usize) -> Vertex {
        let slot = if self.degree == self.steps.len() {
            i
        } else {
            let mut moves = self.moves;
            for _ in 0..i {
                moves &= moves - 1;
            }
            moves.trailing_zeros() as usize
        };
        self.v.wrapping_add(self.steps[slot])
    }
}

impl ImplicitGraph for ImplicitGrid {
    type Cursor = ();
    type Adjacency<'a> = GridAdjacency<'a>;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.n
    }

    /// Peels the coordinates off from the last axis, one multiply each,
    /// until what is left is the first axis's coordinate. A coordinate
    /// above 0 enables the axis's minus move, one below its last point the
    /// plus move, and the loop counts the moves it enables.
    #[inline]
    fn adjacency_at(&self, v: Vertex, _: &mut ()) -> GridAdjacency<'_> {
        let (mut moves, mut degree) = (0u64, 0usize);
        let mut enable = |axis: &Axis, c: u64| {
            let (minus, plus) = (c > 0, c + 1 < axis.points);
            moves |= (minus as u64).wrapping_neg() & axis.minus
                | (plus as u64).wrapping_neg() & axis.plus;
            degree += minus as usize + plus as usize;
        };
        if let Some((first, others)) = self.axes.split_first() {
            let mut rest = v as u64;
            for axis in others.iter().rev() {
                let q = ((rest as u128 * axis.recip as u128) >> 64) as u64;
                enable(axis, rest - q * axis.points);
                rest = q;
            }
            enable(first, rest);
        }
        GridAdjacency {
            v,
            moves,
            degree,
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
/// to lowest, then unset bits from lowest to highest". Split at bit 6,
/// that is the `s` set bits above the low six (the vertex's block,
/// `v >> 6`), then the six low bits in `LOW_ORDER`'s order for
/// `v & 63`, then the unset bits above the low six. The block part is the
/// same for all 64 vertices of a block, so a [`HypercubeCursor`] keeps it
/// and rebuilds it only when the block changes.
#[derive(Clone, Copy, Debug)]
pub struct ImplicitHypercube {
    dim: u32,
}

impl ImplicitHypercube {
    /// The hypercube `Q_dim`; `1 ≤ dim ≤ 32`.
    pub fn new(dim: u32) -> Result<Self> {
        if dim == 0 || dim > 32 {
            return Err(GraphError::InvalidParameter {
                reason: format!("implicit hypercube dimension {dim} must be in 1..=32"),
            });
        }
        Ok(ImplicitHypercube { dim })
    }

    /// The dimension `dim` (`= log₂ n =` the regular degree).
    pub fn dim(&self) -> u32 {
        self.dim
    }
}

/// `LOW_ORDER[r]` lists the low six bits of a vertex `v` with
/// `v & 63 == r` in neighbor order: its set bits from highest to lowest,
/// then its unset bits from lowest to highest. Columns 6 and 7 pad the
/// rows to eight bytes and are never read. Below `dim = 6` the bits at
/// and above `dim` are unset, so they come last and a vertex's `dim`
/// neighbors are the row's first `dim` entries.
static LOW_ORDER: [[u8; 8]; 64] = low_order_table();

const fn low_order_table() -> [[u8; 8]; 64] {
    let mut table = [[0u8; 8]; 64];
    let mut r = 0;
    while r < 64 {
        let mut slot = 0;
        let mut bit = 6;
        while bit > 0 {
            bit -= 1;
            if r >> bit & 1 == 1 {
                table[r][slot] = bit as u8;
                slot += 1;
            }
        }
        while bit < 6 {
            if r >> bit & 1 == 0 {
                table[r][slot] = bit as u8;
                slot += 1;
            }
            bit += 1;
        }
        r += 1;
    }
    table
}

/// An [`ImplicitHypercube`] decode cursor: the neighbor order of the
/// bits above the low six for one 64-vertex block.
///
/// `order[..set]` are the block's set bits from highest to lowest and
/// `order[set + 6..dim]` its unset bits from lowest to highest, so the
/// six slots from `set` are where the low six bits go. Draw slot `i` of
/// a vertex reads `order[i]` outside that gap and the vertex's
/// `LOW_ORDER` row at `i − set` inside it.
#[derive(Clone, Copy, Debug)]
pub struct HypercubeCursor {
    /// `dim << 32 | block` for the block `order` describes; `u64::MAX`,
    /// which no block of any hypercube has, until the first decode.
    key: u64,
    set: usize,
    order: [u8; 32],
}

impl Default for HypercubeCursor {
    fn default() -> Self {
        HypercubeCursor {
            key: u64::MAX,
            set: 0,
            order: [0; 32],
        }
    }
}

impl HypercubeCursor {
    /// Order the bits `6..dim` of `v` in one pass with no branch on the
    /// bits: a set bit fills the set part from its end (so the highest
    /// comes first), an unset bit the unset part from its start.
    #[inline]
    fn rebuild(&mut self, v: Vertex, dim: u32) {
        let set = (v >> 6).count_ones() as usize;
        let (mut below, mut above) = (set, set + 6);
        for bit in 6..dim {
            let one = (v >> bit & 1) as usize;
            below -= one;
            let slot = std::hint::select_unpredictable(one == 1, below, above);
            self.order[slot & 31] = bit as u8;
            above += 1 - one;
        }
        self.set = set;
    }
}

/// An [`ImplicitHypercube`] vertex's neighborhood: the vertex, its
/// `LOW_ORDER` row and its block's order, copied from the cursor.
/// Every vertex has degree `dim`.
#[derive(Clone, Copy, Debug)]
pub struct HypercubeAdjacency {
    v: Vertex,
    set: usize,
    low: &'static [u8; 8],
    order: [u8; 32],
    degree: usize,
}

impl Neighborhood for HypercubeAdjacency {
    #[inline]
    fn degree(&self) -> usize {
        self.degree
    }

    /// Flip the bit at draw slot `i`: the block's order outside the six
    /// slots from `set`, the low six bits' row inside them.
    #[inline]
    fn neighbor(&self, i: usize) -> Vertex {
        let j = i.wrapping_sub(self.set);
        let bit = std::hint::select_unpredictable(j < 6, self.low[j & 7], self.order[i & 31]);
        self.v ^ 1 << bit
    }
}

impl ImplicitGraph for ImplicitHypercube {
    type Cursor = HypercubeCursor;
    type Adjacency<'a> = HypercubeAdjacency;

    #[inline]
    fn num_vertices(&self) -> usize {
        1usize << self.dim
    }

    /// Rebuilds the cursor's block order when `v` lies in another block
    /// (or another hypercube) than the last decode.
    #[inline]
    fn adjacency_at(&self, v: Vertex, cursor: &mut HypercubeCursor) -> HypercubeAdjacency {
        let key = u64::from(self.dim) << 32 | u64::from(v >> 6);
        if cursor.key != key {
            cursor.rebuild(v, self.dim);
            cursor.key = key;
        }
        HypercubeAdjacency {
            v,
            set: cursor.set,
            low: &LOW_ORDER[(v & 63) as usize],
            order: cursor.order,
            degree: self.dim as usize,
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
    type Cursor = ();
    type Adjacency<'a> = CompleteAdjacency;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.n
    }

    #[inline]
    fn adjacency_at(&self, v: Vertex, _: &mut ()) -> CompleteAdjacency {
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

    /// A word of roughly one quarter, one half or three quarters density.
    fn mix(a: u64, b: u64, density: u32) -> u64 {
        match density {
            0 => a & b,
            1 => a,
            _ => a | b,
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
            &[40, 40],
            &[4, 0, 3, 0, 2],
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

        // One point past usize: the extent itself overflows.
        assert!(matches!(
            ImplicitGrid::new(&[usize::MAX]),
            Err(GraphError::TooManyVertices { .. })
        ));
    }

    #[test]
    fn hypercube_matches_csr() {
        for dim in 1..=12u32 {
            let implicit = ImplicitHypercube::new(dim).unwrap();
            let csr = hypercube::hypercube(dim);
            assert_matches_csr(&implicit, &csr, &format!("Q{dim}"));
        }
    }

    /// Decode each vertex of `visits` through one cursor and compare the
    /// decode with the vertex's CSR row.
    fn assert_cursor_matches_csr(
        q: &ImplicitHypercube,
        csr: &Graph,
        visits: impl IntoIterator<Item = Vertex>,
        label: &str,
    ) {
        let mut cursor = HypercubeCursor::default();
        for v in visits {
            let adj = q.adjacency_at(v, &mut cursor);
            let row: Vec<Vertex> = (0..adj.degree()).map(|i| adj.neighbor(i)).collect();
            assert_eq!(row, csr.neighbors(v), "{label}: vertex {v}");
        }
    }

    #[test]
    fn hypercube_cursor_matches_csr_in_any_visiting_order() {
        for dim in 1..=12u32 {
            let q = ImplicitHypercube::new(dim).unwrap();
            let csr = hypercube::hypercube(dim);
            let n = q.num_vertices() as Vertex;
            assert_cursor_matches_csr(&q, &csr, 0..n, &format!("Q{dim} ascending"));
            // An odd multiplier permutes the ids mod 2^dim.
            let shuffled =
                (0..n).map(|v| v.wrapping_mul(0x9E37_79B9).wrapping_add(12_345) & (n - 1));
            assert_cursor_matches_csr(&q, &csr, shuffled, &format!("Q{dim} shuffled"));
            // Every vertex, then the same slot of the next block, then
            // the vertex again: each decode finds the other block cached.
            let other_block = |v: Vertex| (v + 64) & (n - 1);
            let a_b_a = (0..n).flat_map(|v| [v, other_block(v), v]);
            assert_cursor_matches_csr(&q, &csr, a_b_a, &format!("Q{dim} a-b-a"));
        }
    }

    #[test]
    fn hypercube_cursor_moves_between_hypercubes() {
        // A cursor keyed to one dimension rebuilds for another, even in
        // the block it holds.
        let (small, large) = (
            ImplicitHypercube::new(8).unwrap(),
            ImplicitHypercube::new(10).unwrap(),
        );
        let (small_csr, large_csr) = (hypercube::hypercube(8), hypercube::hypercube(10));
        let mut cursor = HypercubeCursor::default();
        for v in [0, 200, 255, 65, 130] {
            for (q, csr) in [(&small, &small_csr), (&large, &large_csr)] {
                let adj = q.adjacency_at(v, &mut cursor);
                let row: Vec<Vertex> = (0..adj.degree()).map(|i| adj.neighbor(i)).collect();
                assert_eq!(row, csr.neighbors(v), "Q{} vertex {v}", q.dim());
            }
        }
    }

    #[test]
    fn low_order_matches_a_bit_loop_on_every_row() {
        for (r, row) in LOW_ORDER.iter().enumerate() {
            let set = (0..6).rev().filter(|b| r >> b & 1 == 1);
            let unset = (0..6).filter(|b| r >> b & 1 == 0);
            let want: Vec<u8> = set.chain(unset).map(|b| b as u8).collect();
            assert_eq!(row[..6], want[..], "row {r:#08b}");
        }
    }

    /// A `()` cursor carries nothing: decoding through one, reused from
    /// vertex to vertex, is `adjacency(v)`.
    fn assert_unit_cursor_is_fresh<G: ImplicitGraph<Cursor = ()>>(g: &G, label: &str) {
        let mut cursor = ();
        for v in (0..g.num_vertices() as Vertex).rev() {
            let (at, fresh) = (g.adjacency_at(v, &mut cursor), g.adjacency(v));
            assert_eq!(at.degree(), fresh.degree(), "{label}: degree({v})");
            for i in 0..at.degree() {
                assert_eq!(
                    at.neighbor(i),
                    fresh.neighbor(i),
                    "{label}: neighbor({v}, {i})"
                );
            }
        }
    }

    #[test]
    fn unit_cursors_decode_as_a_fresh_adjacency() {
        assert_unit_cursor_is_fresh(&ImplicitGrid::new(&[3, 4, 5]).unwrap(), "grid");
        assert_unit_cursor_is_fresh(&ImplicitComplete::new(9).unwrap(), "complete");
        let csr = grid::grid(&[4, 4]);
        let mut cursor = ();
        for v in csr.vertices() {
            assert_eq!(
                csr.adjacency_at(v, &mut cursor),
                csr.adjacency(v),
                "CSR {v}"
            );
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
        assert_matches_csr(&g, &g, "CSR-as-implicit");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// At random vertices of Q7–Q32, most of them past the
        /// CSR-checked Q1–Q12, the neighbors ascend strictly, each differs
        /// from `v` in one bit, and together they flip all `dim` bits. The
        /// decode goes through a cursor last used at another random
        /// vertex, and agrees with the fresh decode.
        #[test]
        fn hypercube_neighbors_flip_every_bit_once_in_order(
            dim in 7u32..33,
            (a, b) in (0u64..u64::MAX, 0u64..u64::MAX),
            density in 0u32..3,
            before in 0u64..u64::MAX,
        ) {
            let q = ImplicitHypercube::new(dim).unwrap();
            let mask = (1u64 << dim) - 1;
            let v = (mix(a, b, density) & mask) as Vertex;
            let mut cursor = HypercubeCursor::default();
            q.adjacency_at((before & mask) as Vertex, &mut cursor);
            let adj = q.adjacency_at(v, &mut cursor);
            prop_assert_eq!(adj.degree(), dim as usize);
            let mut flipped = 0u64;
            for i in 0..dim as usize {
                let u = adj.neighbor(i);
                prop_assert_eq!(u, q.neighbor(v, i), "Q{}: stale cursor at {:#x}", dim, v);
                let bit = (u ^ v) as u64;
                prop_assert!(bit.is_power_of_two(), "Q{dim}: {u:#x} is not one flip from {v:#x}");
                if i > 0 {
                    prop_assert!(adj.neighbor(i - 1) < u, "Q{dim}: {v:#x} not ascending at {i}");
                }
                flipped |= bit;
            }
            prop_assert_eq!(flipped, mask);
        }
    }
}
