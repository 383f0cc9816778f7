//! Bit-sliced multi-trial cover kernel: up to 64 trials in one batch,
//! advanced together round by round.
//!
//! The dense-phase [`crate::frontier::Frontier`] is already a bitset whose
//! cobra step is word-parallel ORs. This module transposes that layout
//! across *trials* instead of vertices: one `u64` per vertex, where bit
//! `j` of `cur[v]` means "trial (lane) `j`'s frontier currently contains
//! `v`". One round then advances up to [`LANE_WIDTH`] trials at once —
//! the SIMD-across-instances trick of bit-parallel BFS/reachability
//! kernels — which is exactly the regime where the per-trial scratch
//! engine loses: small `n`, cheap covers, thousands of trials, dispatch
//! overhead per trial comparable to the cover itself. The lanes of one
//! batch are not independent trials once burn-in ends (see below).
//!
//! ## Traversal
//!
//! A round has three passes: draw from every vertex of `cur` with live
//! lanes into `next`, union `next` into coverage, and clear the old
//! frontier. Two occupancy bitmaps, one word per 64 vertices, shadow
//! `cur` and `next`: bit `v` is set iff some lane sits at `v`. A round is
//! *sparse* when at most `max(8, n/16)` vertices of its `cur` are
//! occupied, as far as the previous round could see (round 1 sees the
//! start vertex alone). A sparse round's passes walk the set bits of the
//! bitmaps, and each of its draws also sets its destination's bit, so
//! the round costs what the lanes occupy plus `n/64` bitmap words, and
//! the popcount of `next`'s bitmap is the next round's exact occupancy.
//! A *dense* round scans all `n` words in each pass and does no
//! per-draw bookkeeping. Its `next` bitmap stays empty, so it passes on
//! the count of vertices that drew, which its draw pass finds for free
//! and which lags the true occupancy by one round; and a sparse round
//! after a dense one first rebuilds its `cur` bitmap in one scan. On the
//! star two or three of `n` vertices are occupied for Θ(n log n) rounds,
//! so nearly every round is sparse; complete graphs turn dense after
//! round 1 and sparse again only when few lanes remain.
//!
//! Both traversals visit vertices in ascending order. The draws of a
//! round come from `rng` vertex by vertex, so the order fixes which draw
//! lands where; ascending order is what the full scan does, so the
//! switch leaves every outcome bit-identical. (The scratch engine's
//! [`crate::frontier::Frontier`] cannot stand in for the bitmaps: its
//! sparse mode lists vertices in insertion order.)
//!
//! ## Draw sharing (and why it is statistically sound)
//!
//! Running 64 serial trials costs 64× the neighbor draws; the lane kernel
//! amortizes them. Two regimes per round `t`:
//!
//! * **Burn-in** (`t ≤ LANE_BURNIN`): every lane draws independently —
//!   for each set lane bit of `cur[v]`, `k` fresh draws. All lanes start
//!   at the same vertex, so *any* scheme that hands identical lane-sets
//!   identical draws would keep them identical forever (64 copies of one
//!   trial). Frontiers are tiny in these rounds, so full independence is
//!   cheap, and it decorrelates the lanes before sharing begins.
//! * **Pooled** (`t > LANE_BURNIN`): per active vertex the kernel draws
//!   `2k` neighbors once and splits the active lanes into two pool slots
//!   by the *parity of their rank* among the set bits of `cur[v] & alive`
//!   — even-rank lanes receive the first `k` draws, odd-rank lanes the
//!   second `k` (skipped when no odd-rank lane is present).
//!
//! Each lane's **marginal** law is exactly the `k`-cobra walk: the pool
//! draws are fresh iid uniform neighbors, and a lane's slot assignment is
//! a function of the *current* global state only (measurable w.r.t. the
//! past), so conditional on any lane's history its `k` draws per active
//! vertex are iid uniform. What sharing introduces is *cross-lane*
//! correlation within a batch — two lanes at the same vertex with equal
//! rank parity move together that round. Rank parity is the anti-glue:
//! whether two transiently identical lanes share a slot at `v` depends on
//! which *other* lanes are active at `v`, which varies per vertex and per
//! round, so collided lanes split again instead of forming a permanently
//! glued class. The serial engine therefore remains the oracle at the
//! *distribution* level (per-trial streams necessarily differ), which is
//! what `tests/lanes.rs` pins with a KS test against
//! [`crate::measure::CoverDriver::run_typed`].
//!
//! ## Retirement and censoring
//!
//! Coverage is transposed the same way (`cov[v]` bit `j` = lane `j` has
//! covered `v`) with a per-lane covered-count; a lane retires from the
//! `alive` mask the round its count reaches `n` (its cover step is
//! recorded), and lanes still alive after `max_steps` are censored. The
//! per-lane cover definition matches the serial drivers exactly: the
//! start vertex counts at step 0, each round's *new* frontier is unioned,
//! and the cover step is the first round at which coverage is complete.

use crate::process::{BoundDraw, NeighborDraw};
use cobra_graph::{Graph, Vertex};
use cobra_obs::{NoopProbe, Probe};
use rand::Rng;

/// Number of trials one lane pass advances: the bits of a `u64`.
pub const LANE_WIDTH: usize = 64;

/// Rounds of fully independent per-lane draws before pooled sharing
/// begins. Three doubling rounds spread the lanes (which all start at the
/// same vertex) far enough apart that shared pool draws cannot collapse
/// the batch, while frontiers are still small enough that independence
/// costs almost nothing.
const LANE_BURNIN: usize = 3;

/// Reusable buffers for one lane batch: the transposed frontier pair and
/// coverage words, one `u64` per vertex each, and the frontier pair's
/// occupancy bitmaps, one `u64` per 64 vertices each. Build once per
/// worker (the lane analogue of [`crate::TrialScratch`]) and reuse across
/// batches; [`run_lane_cover`] re-zeroes in O(n) words per batch,
/// amortized over the up-to-64 trials the batch carries.
#[derive(Clone, Debug)]
pub struct LaneScratch {
    /// Current frontier, transposed: bit `j` of `cur[v]` = lane `j` is at
    /// `v` this round.
    cur: Vec<u64>,
    /// Next frontier being built by the in-flight round.
    next: Vec<u64>,
    /// Transposed coverage: bit `j` of `cov[v]` = lane `j` has covered `v`.
    cov: Vec<u64>,
    /// Occupancy of `cur` when a sparse round built it (bit `v % 64` of
    /// word `v / 64` is set iff `cur[v] != 0`), all-zero after a dense
    /// round.
    cur_occ: Vec<u64>,
    /// Occupancy of `next`, set draw by draw in sparse rounds and left
    /// all-zero by dense ones.
    next_occ: Vec<u64>,
}

impl LaneScratch {
    /// Buffers sized for `g`.
    pub fn new(g: &Graph) -> Self {
        let n = g.num_vertices();
        let words = n.div_ceil(64);
        LaneScratch {
            cur: vec![0; n],
            next: vec![0; n],
            cov: vec![0; n],
            cur_occ: vec![0; words],
            next_occ: vec![0; words],
        }
    }

    /// Vertex capacity the buffers are currently sized for.
    pub fn capacity(&self) -> usize {
        self.cur.len()
    }

    /// Resize (if the graph changed) and zero everything for a new batch.
    fn prepare(&mut self, n: usize) {
        if self.cur.len() != n {
            let words = n.div_ceil(64);
            self.cur.resize(n, 0);
            self.next.resize(n, 0);
            self.cov.resize(n, 0);
            self.cur_occ.resize(words, 0);
            self.next_occ.resize(words, 0);
        }
        self.cur.fill(0);
        self.next.fill(0);
        self.cov.fill(0);
        self.cur_occ.fill(0);
        self.next_occ.fill(0);
    }
}

/// Most occupied vertices a round may see in its `cur` and still walk
/// the occupancy bitmaps instead of scanning all `n` words (see the
/// module docs' "Traversal").
fn sparse_max(n: usize) -> usize {
    (n / 16).max(8)
}

/// Call `f` on each vertex whose bit is set in the occupancy bitmap
/// `occ`, in ascending order.
#[inline(always)]
fn for_each_occupied(occ: &[u64], mut f: impl FnMut(usize)) {
    for (c, &word) in occ.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            f(c * 64 + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

/// Rebuild the occupancy bitmap `occ` of `words`: one bit per word, set
/// iff the word is nonzero.
fn mark_occupied(words: &[u64], occ: &mut [u64]) {
    for (chunk, occ_c) in words.chunks(64).zip(occ.iter_mut()) {
        *occ_c = chunk
            .iter()
            .enumerate()
            .fold(0, |acc, (i, &w)| acc | u64::from(w != 0) << i);
    }
}

/// Make a sparse round's draws for the live lanes `lanes` at one vertex,
/// bound in `bound`: OR each destination's lanes into `next`, set its
/// bit in `next_occ`, and return the number of draws. The draws and
/// their order are the dense pass's: in burn-in rounds `k` per lane in
/// ascending lane order, later `k` for the even-rank half of `lanes` and
/// `k` more for the odd-rank half, if any.
#[inline(always)]
fn draw_sparse<B: BoundDraw, R: Rng + ?Sized>(
    bound: &B,
    k: u32,
    t: usize,
    lanes: u64,
    rng: &mut R,
    next: &mut [u64],
    next_occ: &mut [u64],
) -> u64 {
    let mut mark = |u: Vertex, bits: u64| {
        let u = u as usize;
        next[u] |= bits;
        next_occ[u / 64] |= 1u64 << (u % 64);
    };
    if t <= LANE_BURNIN {
        let mut m = lanes;
        while m != 0 {
            let bit = m & m.wrapping_neg();
            for _ in 0..k {
                mark(bound.draw(rng), bit);
            }
            m ^= bit;
        }
        u64::from(k) * u64::from(lanes.count_ones())
    } else {
        let parity = rank_parity_mask(lanes);
        let even = lanes & !parity;
        let odd = lanes & parity;
        for _ in 0..k {
            mark(bound.draw(rng), even);
        }
        if odd == 0 {
            return u64::from(k);
        }
        for _ in 0..k {
            mark(bound.draw(rng), odd);
        }
        2 * u64::from(k)
    }
}

/// Outcome of one lane batch: which lanes ran, which completed, and each
/// lane's cover step (or the censoring budget).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneOutcome {
    /// The lanes that ran (the `lane_mask` argument).
    pub lane_mask: u64,
    /// Lanes that covered the graph within the budget (⊆ `lane_mask`).
    pub completed: u64,
    /// Per-lane cover step; `max_steps` for censored lanes, 0 for lanes
    /// outside `lane_mask`.
    pub steps: [u32; LANE_WIDTH],
}

impl LaneOutcome {
    /// Lane `j`'s measured cover time: `Some(steps)` if it completed,
    /// `None` if it was censored. Panics if `j` was not in the batch.
    pub fn cover_time(&self, lane: usize) -> Option<usize> {
        assert!(lane < LANE_WIDTH, "lane index out of range");
        assert!(
            self.lane_mask >> lane & 1 == 1,
            "lane {lane} was not in the batch"
        );
        (self.completed >> lane & 1 == 1).then_some(self.steps[lane] as usize)
    }
}

/// Bit `i` = parity of the number of set bits of `m` strictly below `i`
/// (a prefix-XOR scan: six shift-XORs, branch-free). Splitting a lane set
/// `m` into `m & !parity` / `m & parity` yields its even-rank and
/// odd-rank halves — the pool-slot assignment of the shared-draw phase.
#[inline]
fn rank_parity_mask(m: u64) -> u64 {
    let mut z = m << 1;
    z ^= z << 1;
    z ^= z << 2;
    z ^= z << 4;
    z ^= z << 8;
    z ^= z << 16;
    z ^= z << 32;
    z
}

/// Run up to 64 cover trials of the `k`-out-choice frontier process (the
/// `k`-cobra walk; `k = 1` is the non-lazy simple walk) simultaneously,
/// all starting at `start`, for the lanes set in `lane_mask`.
///
/// Neighbors are drawn through `draw` (the runner passes
/// [`crate::ImplicitDraw`]) from `rng` in a fixed deterministic order
/// (ascending vertex, then lane/slot order — see the module docs), so the
/// outcome is a pure function of `(g, k, start, lane_mask, max_steps, rng
/// seed)`. Note the mask shapes the draw stream: callers wanting
/// prefix-comparable batches must run full-width masks and truncate at
/// aggregation, which is what `cobra_sim::run_cover_trials_lanes_probed`
/// does.
#[allow(clippy::too_many_arguments)] // mirrors run_typed_in's driver shape
pub fn run_lane_cover<D: NeighborDraw, R: Rng + ?Sized>(
    g: &Graph,
    draw: &D,
    k: u32,
    start: Vertex,
    lane_mask: u64,
    max_steps: usize,
    scratch: &mut LaneScratch,
    rng: &mut R,
) -> LaneOutcome {
    run_lane_cover_probed(
        g,
        draw,
        k,
        start,
        lane_mask,
        max_steps,
        scratch,
        rng,
        &mut NoopProbe,
    )
}

/// [`run_lane_cover`] with an observation seam. The probe's unit is the
/// whole 64-lane batch: per round it sees the live-lane count
/// ([`cobra_obs::Probe::on_round`]), the pooled draw total
/// ([`cobra_obs::Probe::on_draws`], merged count 0 — coalescing is
/// cross-lane here and not attributable to individual draws), and the
/// number of newly covered (vertex, lane) pairs
/// ([`cobra_obs::Probe::on_coverage`]). The probe never touches the RNG,
/// so `run_lane_cover_probed(.., &mut NoopProbe)` is bit-identical to
/// [`run_lane_cover`] — which is in fact how the unprobed entry point is
/// implemented.
#[allow(clippy::too_many_arguments)] // mirrors run_typed_in's driver shape
pub fn run_lane_cover_probed<D: NeighborDraw, R: Rng + ?Sized, Pb: Probe>(
    g: &Graph,
    draw: &D,
    k: u32,
    start: Vertex,
    lane_mask: u64,
    max_steps: usize,
    scratch: &mut LaneScratch,
    rng: &mut R,
    probe: &mut Pb,
) -> LaneOutcome {
    let n = g.num_vertices();
    assert!(n > 0, "cover of the empty graph is undefined");
    assert!((start as usize) < n, "start vertex in range");
    assert!(lane_mask != 0, "need at least one lane");
    assert!(k >= 1, "branching factor must be >= 1");
    assert!(max_steps >= 1, "need a positive step budget");
    assert!(
        max_steps <= u32::MAX as usize,
        "step budget must fit in u32"
    );

    scratch.prepare(n);
    let LaneScratch {
        cur,
        next,
        cov,
        cur_occ,
        next_occ,
    } = scratch;

    let mut counts = [0u32; LANE_WIDTH];
    let mut steps = [0u32; LANE_WIDTH];
    let mut completed = 0u64;
    let mut alive = lane_mask;

    // Initial configuration: every lane's pebble (and coverage) at start.
    cur[start as usize] = lane_mask;
    cov[start as usize] = lane_mask;
    cur_occ[start as usize / 64] = 1u64 << (start % 64);
    {
        let mut m = lane_mask;
        while m != 0 {
            counts[m.trailing_zeros() as usize] = 1;
            m &= m - 1;
        }
    }
    // Coverage is counted in (vertex, lane) pairs: the start vertex is
    // covered in every lane of the batch at step 0.
    let mut covered_pairs = u64::from(lane_mask.count_ones());
    probe.on_coverage(covered_pairs, covered_pairs);
    if n == 1 {
        // Covered at step 0, matching the serial drivers.
        probe.on_trial_end(0, true);
        return LaneOutcome {
            lane_mask,
            completed: lane_mask,
            steps,
        };
    }

    let n_u32 = n as u32;
    let sparse_max = sparse_max(n);
    // The occupancy of `cur` as the round can see it (see the module
    // docs), and whether `cur_occ` is exact: it is after a sparse round
    // and all-zero after a dense one.
    let mut occupied = 1usize;
    let mut tracked = true;
    let mut last_round = 0u64;
    for t in 1..=max_steps {
        // Advance every live lane one round, in ascending vertex order on
        // either traversal. The draw counter feeds only the probe; under
        // `NoopProbe` it is dead and optimized away.
        let sparse = occupied <= sparse_max;
        if sparse && !tracked {
            mark_occupied(cur, cur_occ);
        }
        let mut round_draws = 0u64;
        if sparse {
            for_each_occupied(cur_occ, |v| {
                let lanes = cur[v] & alive;
                if lanes != 0 {
                    let bound = draw.bind(g, v as Vertex);
                    round_draws += draw_sparse(&bound, k, t, lanes, rng, next, next_occ);
                }
            });
            occupied = next_occ.iter().map(|w| w.count_ones() as usize).sum();
        } else {
            // The full-scan loop, kept as it was: a dense pass sharing a
            // helper with `draw_sparse` measured 7–14% slower on the
            // 16×16 grid once every lane draws for itself every round.
            occupied = 0;
            for (v, &cur_v) in cur.iter().enumerate() {
                let lanes = cur_v & alive;
                if lanes == 0 {
                    continue;
                }
                occupied += 1;
                let bound = draw.bind(g, v as Vertex);
                if t <= LANE_BURNIN {
                    // Independent draws per lane, ascending lane order.
                    let mut m = lanes;
                    while m != 0 {
                        let bit = m & m.wrapping_neg();
                        for _ in 0..k {
                            next[bound.draw(rng) as usize] |= bit;
                        }
                        round_draws += u64::from(k);
                        m ^= bit;
                    }
                } else {
                    // Pooled draws: 2k draws split across the even-rank and
                    // odd-rank halves of the lane set.
                    let parity = rank_parity_mask(lanes);
                    let even = lanes & !parity;
                    let odd = lanes & parity;
                    for _ in 0..k {
                        next[bound.draw(rng) as usize] |= even;
                    }
                    round_draws += u64::from(k);
                    if odd != 0 {
                        for _ in 0..k {
                            next[bound.draw(rng) as usize] |= odd;
                        }
                        round_draws += u64::from(k);
                    }
                }
            }
        }

        // Union the new frontier into coverage and retire finished lanes.
        let mut finished = 0u64;
        let mut newly_pairs = 0u64;
        let mut cover = |arrived: u64, cov_v: &mut u64| {
            let newly = arrived & alive & !*cov_v;
            if newly != 0 {
                *cov_v |= newly;
                newly_pairs += u64::from(newly.count_ones());
                let mut m = newly;
                while m != 0 {
                    let j = m.trailing_zeros() as usize;
                    counts[j] += 1;
                    if counts[j] == n_u32 {
                        finished |= 1u64 << j;
                    }
                    m &= m - 1;
                }
            }
        };
        if sparse {
            for_each_occupied(next_occ, |v| cover(next[v], &mut cov[v]));
        } else {
            for (&arrived, cov_v) in next.iter().zip(cov.iter_mut()) {
                cover(arrived, cov_v);
            }
        }
        if finished != 0 {
            let mut m = finished;
            while m != 0 {
                steps[m.trailing_zeros() as usize] = t as u32;
                m &= m - 1;
            }
            completed |= finished;
            alive &= !finished;
        }

        covered_pairs += newly_pairs;
        last_round = t as u64;
        probe.on_draws(round_draws, 0);
        probe.on_round(t as u64, u64::from(alive.count_ones()));
        probe.on_coverage(newly_pairs, covered_pairs);

        // The old frontier becomes `next` and is cleared the way its round
        // traversed it; `cur_occ` is now exact iff this round was sparse.
        std::mem::swap(cur, next);
        std::mem::swap(cur_occ, next_occ);
        if sparse {
            for_each_occupied(next_occ, |v| next[v] = 0);
        } else {
            next.fill(0);
        }
        next_occ.fill(0);
        tracked = sparse;
        if alive == 0 {
            break;
        }
    }
    probe.on_trial_end(last_round, alive == 0);

    // Censor whatever is still running.
    let mut m = alive;
    while m != 0 {
        steps[m.trailing_zeros() as usize] = max_steps as u32;
        m &= m - 1;
    }
    LaneOutcome {
        lane_mask,
        completed,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::CoverDriver;
    use crate::{CobraWalk, ImplicitDraw};
    use cobra_graph::generators::{classic, gnp};
    use cobra_obs::CountingProbe;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The full-scan kernel that preceded the occupancy bitmaps, kept as
    /// the oracle for their traversal switch: every round scans all `n`
    /// words to draw, to union coverage and to clear. Besides the outcome
    /// it returns, per round, how many vertices drew and how many the
    /// draws landed on: the two counts [`run_lane_cover_probed`]'s switch
    /// reads after a dense and after a sparse round.
    fn full_scan_lane_cover<R: Rng + ?Sized, Pb: Probe>(
        g: &Graph,
        k: u32,
        start: Vertex,
        lane_mask: u64,
        max_steps: usize,
        rng: &mut R,
        probe: &mut Pb,
    ) -> (LaneOutcome, Vec<(usize, usize)>) {
        let n = g.num_vertices();
        let (mut cur, mut next, mut cov) = (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
        let mut counts = [0u32; LANE_WIDTH];
        let mut steps = [0u32; LANE_WIDTH];
        let mut completed = 0u64;
        let mut alive = lane_mask;
        let mut occupancy = Vec::new();
        cur[start as usize] = lane_mask;
        cov[start as usize] = lane_mask;
        let mut m = lane_mask;
        while m != 0 {
            counts[m.trailing_zeros() as usize] = 1;
            m &= m - 1;
        }
        let mut covered_pairs = u64::from(lane_mask.count_ones());
        probe.on_coverage(covered_pairs, covered_pairs);
        let mut last_round = 0u64;
        for t in 1..=max_steps {
            let mut round_draws = 0u64;
            let mut drew = 0;
            for (v, &cur_v) in cur.iter().enumerate() {
                let lanes = cur_v & alive;
                if lanes == 0 {
                    continue;
                }
                drew += 1;
                let bound = ImplicitDraw.bind(g, v as Vertex);
                if t <= LANE_BURNIN {
                    let mut m = lanes;
                    while m != 0 {
                        let bit = m & m.wrapping_neg();
                        for _ in 0..k {
                            next[bound.draw(rng) as usize] |= bit;
                        }
                        round_draws += u64::from(k);
                        m ^= bit;
                    }
                } else {
                    let parity = rank_parity_mask(lanes);
                    let even = lanes & !parity;
                    let odd = lanes & parity;
                    for _ in 0..k {
                        next[bound.draw(rng) as usize] |= even;
                    }
                    round_draws += u64::from(k);
                    if odd != 0 {
                        for _ in 0..k {
                            next[bound.draw(rng) as usize] |= odd;
                        }
                        round_draws += u64::from(k);
                    }
                }
            }
            occupancy.push((drew, next.iter().filter(|&&w| w != 0).count()));
            let mut finished = 0u64;
            let mut newly_pairs = 0u64;
            for v in 0..n {
                let newly = next[v] & alive & !cov[v];
                if newly != 0 {
                    cov[v] |= newly;
                    newly_pairs += u64::from(newly.count_ones());
                    let mut m = newly;
                    while m != 0 {
                        let j = m.trailing_zeros() as usize;
                        counts[j] += 1;
                        if counts[j] == n as u32 {
                            finished |= 1u64 << j;
                        }
                        m &= m - 1;
                    }
                }
            }
            let mut m = finished;
            while m != 0 {
                steps[m.trailing_zeros() as usize] = t as u32;
                m &= m - 1;
            }
            completed |= finished;
            alive &= !finished;
            covered_pairs += newly_pairs;
            last_round = t as u64;
            probe.on_draws(round_draws, 0);
            probe.on_round(t as u64, u64::from(alive.count_ones()));
            probe.on_coverage(newly_pairs, covered_pairs);
            std::mem::swap(&mut cur, &mut next);
            next.fill(0);
            if alive == 0 {
                break;
            }
        }
        probe.on_trial_end(last_round, alive == 0);
        let mut m = alive;
        while m != 0 {
            steps[m.trailing_zeros() as usize] = max_steps as u32;
            m &= m - 1;
        }
        let outcome = LaneOutcome {
            lane_mask,
            completed,
            steps,
        };
        (outcome, occupancy)
    }

    /// One oracle case: a graph family and size, a seed for the graph
    /// build and the kernel's draws, `k`, a start vertex, a lane mask and
    /// a step budget.
    #[derive(Clone, Debug)]
    struct Case {
        family: u8,
        n: usize,
        seed: u64,
        k: u32,
        start: usize,
        mask: u64,
        max_steps: usize,
    }

    impl Case {
        fn graph(&self) -> Graph {
            let n = self.n;
            match self.family {
                0 => classic::star(n),
                1 => classic::path(n),
                2 => classic::cycle(n.max(3)),
                3 => classic::complete(n.min(160)),
                _ => {
                    // Connected G(n, p) a little above the connectivity
                    // threshold ln n / n.
                    let p = (3.0 * (n as f64).ln() / n as f64).min(1.0);
                    let mut rng = StdRng::seed_from_u64(self.seed);
                    gnp::gnp_connected(n, p, 200, &mut rng)
                }
            }
            .expect("valid generator parameters")
        }
    }

    fn arb_case() -> impl Strategy<Value = Case> {
        // Masks: all lanes, about half, about a sixteenth, or one lane.
        let mask =
            (0u8..4, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX).prop_map(|(sel, a, b, c)| {
                match sel {
                    0 => u64::MAX,
                    1 => a | 1,
                    2 => (a & b & c & (a >> 7)) | 1 << (a % 64),
                    _ => 1 << (a % 64),
                }
            });
        // Budgets: a handful of rounds, or up to a few thousand, so
        // short budgets censor every family and long ones complete all
        // but the slow covers of paths and stars.
        let budget =
            (0u8..3, 1usize..12, 1usize..4000).prop_map(
                |(sel, short, long)| {
                    if sel == 0 {
                        short
                    } else {
                        long
                    }
                },
            );
        (
            (0u8..5, 2usize..300, 0u64..u64::MAX),
            (1u32..4, 0usize..300),
            mask,
            budget,
        )
            .prop_map(|((family, n, seed), (k, start), mask, max_steps)| Case {
                family,
                n,
                seed,
                k,
                start,
                mask,
                max_steps,
            })
    }

    /// The kernel against the full-scan oracle on 64 cases drawn from
    /// [`arb_case`]: equal outcomes and equal `CountingProbe` totals
    /// (rounds, draws, coverage and the rest), with one `LaneScratch`
    /// reused across cases of every size. Between them the cases must
    /// cross the traversal switch both ways, censor, complete, and run
    /// rounds in which most of a batch's lanes have already finished;
    /// the oracle's per-round drawing-vertex counts say which traversal
    /// each round took, and the test fails if any of these never occurs.
    #[test]
    fn kernel_matches_full_scan_oracle() {
        let strategy = arb_case();
        let mut case_rng = proptest::test_runner::rng_for("kernel_matches_full_scan_oracle");
        let mut scratch = LaneScratch::new(&classic::cycle(3).unwrap());
        let (mut to_sparse, mut to_dense, mut tail_rounds) = (0, 0, 0);
        let (mut censored, mut completed) = (0, 0);
        for case_no in 0..64 {
            let case = strategy.new_value(&mut case_rng);
            let g = case.graph();
            let n = g.num_vertices();
            let start = (case.start % n) as Vertex;
            let (mask, max_steps) = (case.mask, case.max_steps);
            let label = format!("case {case_no}: {case:?}");

            let mut probe = CountingProbe::new();
            let mut rng = StdRng::seed_from_u64(case.seed);
            let (expect, occupancy) =
                full_scan_lane_cover(&g, case.k, start, mask, max_steps, &mut rng, &mut probe);
            let mut kernel_probe = CountingProbe::new();
            let mut rng = StdRng::seed_from_u64(case.seed);
            let out = run_lane_cover_probed(
                &g,
                &ImplicitDraw,
                case.k,
                start,
                mask,
                max_steps,
                &mut scratch,
                &mut rng,
                &mut kernel_probe,
            );
            assert_eq!(out, expect, "{label}");
            assert_eq!(kernel_probe.totals(), probe.totals(), "{label}");

            // Round 1 is sparse; each later round is sparse iff the
            // occupancy the round before saw is at most sparse_max(n):
            // the vertices its draws landed on if it was sparse, the
            // vertices that drew if it was dense.
            let mut sparse = vec![true];
            for &(drew, landed) in &occupancy[..occupancy.len() - 1] {
                let seen = if *sparse.last().unwrap() {
                    landed
                } else {
                    drew
                };
                sparse.push(seen <= sparse_max(n));
            }
            for w in sparse.windows(2) {
                to_sparse += usize::from(!w[0] && w[1]);
                to_dense += usize::from(w[0] && !w[1]);
            }
            // Rounds that start with most of the batch's lanes finished
            // (a round runs only while some lane is live).
            let lanes = mask.count_ones() as usize;
            for t in 1..=occupancy.len() {
                let done = (0..LANE_WIDTH)
                    .filter(|&j| out.completed >> j & 1 == 1 && (out.steps[j] as usize) < t)
                    .count();
                tail_rounds += usize::from(2 * done > lanes);
            }
            censored += usize::from(out.completed != mask);
            completed += usize::from(out.completed != 0);
        }
        assert!(to_sparse > 0, "no case switched from dense to sparse");
        assert!(to_dense > 0, "no case switched from sparse to dense");
        assert!(
            tail_rounds > 0,
            "no case ran a round with most lanes finished"
        );
        assert!(
            censored > 0 && completed > 0,
            "{censored} censored, {completed} completed"
        );
    }

    /// Naive rank-parity oracle: walk the set bits in ascending order.
    fn rank_parity_oracle(m: u64) -> u64 {
        let mut parity = 0u64;
        let mut rank = 0u32;
        for i in 0..64 {
            if m >> i & 1 == 1 {
                if rank % 2 == 1 {
                    parity |= 1 << i;
                }
                rank += 1;
            }
        }
        parity
    }

    #[test]
    fn rank_parity_matches_oracle() {
        let cases = [
            0u64,
            1,
            0b1010,
            0b1011,
            u64::MAX,
            1 << 63,
            0x8000_0000_0000_0001,
            0xDEAD_BEEF_CAFE_F00D,
            0x5555_5555_5555_5555,
            0xAAAA_AAAA_AAAA_AAAA,
        ];
        for &m in &cases {
            assert_eq!(
                m & rank_parity_mask(m),
                rank_parity_oracle(m),
                "mask {m:#x}"
            );
        }
        // And a deterministic pseudo-random sweep.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..500 {
            x = x.wrapping_mul(0xD129_0918_2F91_2A3F).wrapping_add(1);
            assert_eq!(x & rank_parity_mask(x), rank_parity_oracle(x), "{x:#x}");
        }
    }

    #[test]
    fn single_vertex_completes_at_step_zero() {
        // A 1-vertex graph is covered by its start configuration; no draw
        // ever happens, so the isolated vertex never trips the draw.
        let g1 = cobra_graph::Graph::empty(1);
        let mut scratch = LaneScratch::new(&g1);
        let mut rng = StdRng::seed_from_u64(0);
        let out = run_lane_cover(
            &g1,
            &ImplicitDraw,
            2,
            0,
            u64::MAX,
            100,
            &mut scratch,
            &mut rng,
        );
        assert_eq!(out.completed, u64::MAX);
        assert!(out.steps.iter().all(|&s| s == 0));
    }

    #[test]
    fn all_lanes_cover_a_complete_graph() {
        let g = classic::complete(16).unwrap();
        let mut scratch = LaneScratch::new(&g);
        let mut rng = StdRng::seed_from_u64(7);
        let out = run_lane_cover(
            &g,
            &ImplicitDraw,
            2,
            0,
            u64::MAX,
            100_000,
            &mut scratch,
            &mut rng,
        );
        assert_eq!(out.completed, u64::MAX, "K16 must always cover");
        for j in 0..LANE_WIDTH {
            let s = out.cover_time(j).expect("completed");
            // Coverage after t rounds is at most 2^{t+1} - 1 with k = 2.
            assert!(s >= 4, "lane {j}: covered K16 in {s} < 4 rounds");
            assert!(s < 100_000);
        }
    }

    #[test]
    fn lanes_decorrelate_after_burn_in() {
        // The whole point of burn-in + rank-parity pooling: the batch must
        // not collapse into 64 copies of one trial. On K16 the probability
        // of even two independent trials tying their cover step is modest;
        // 64 distinct lanes sharing draws must still produce a spread.
        let g = classic::complete(16).unwrap();
        let mut scratch = LaneScratch::new(&g);
        let mut rng = StdRng::seed_from_u64(11);
        let out = run_lane_cover(
            &g,
            &ImplicitDraw,
            2,
            0,
            u64::MAX,
            100_000,
            &mut scratch,
            &mut rng,
        );
        let distinct: std::collections::HashSet<u32> = out.steps.iter().copied().collect();
        assert!(
            distinct.len() >= 3,
            "lane cover steps collapsed: {:?}",
            out.steps
        );
    }

    #[test]
    fn partial_mask_runs_only_those_lanes() {
        let g = classic::complete(12).unwrap();
        let mut scratch = LaneScratch::new(&g);
        let mut rng = StdRng::seed_from_u64(3);
        let mask = 0b1011u64;
        let out = run_lane_cover(
            &g,
            &ImplicitDraw,
            2,
            0,
            mask,
            100_000,
            &mut scratch,
            &mut rng,
        );
        assert_eq!(out.lane_mask, mask);
        assert_eq!(out.completed, mask);
        for j in 0..LANE_WIDTH {
            if mask >> j & 1 == 1 {
                assert!(out.cover_time(j).is_some());
            } else {
                assert_eq!(out.steps[j], 0, "lane {j} outside the mask ran");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not in the batch")]
    fn cover_time_rejects_lane_outside_mask() {
        let g = classic::complete(8).unwrap();
        let mut scratch = LaneScratch::new(&g);
        let mut rng = StdRng::seed_from_u64(3);
        let out = run_lane_cover(&g, &ImplicitDraw, 2, 0, 0b1, 10_000, &mut scratch, &mut rng);
        out.cover_time(5);
    }

    #[test]
    fn tiny_budget_censors_every_lane() {
        let g = classic::path(64).unwrap();
        let mut scratch = LaneScratch::new(&g);
        let mut rng = StdRng::seed_from_u64(5);
        let out = run_lane_cover(&g, &ImplicitDraw, 1, 0, u64::MAX, 3, &mut scratch, &mut rng);
        assert_eq!(out.completed, 0, "3 steps cannot cover a 64-path");
        assert!(out.steps.iter().all(|&s| s == 3));
        assert_eq!(out.cover_time(0), None);
    }

    #[test]
    fn deterministic_under_seed_and_scratch_reuse() {
        let g = classic::cycle(48).unwrap();
        let mut scratch = LaneScratch::new(&g);
        let mut rng = StdRng::seed_from_u64(77);
        let a = run_lane_cover(
            &g,
            &ImplicitDraw,
            2,
            0,
            u64::MAX,
            100_000,
            &mut scratch,
            &mut rng,
        );
        // Reuse the same scratch (dirty from run a) with a re-seeded RNG.
        let mut rng = StdRng::seed_from_u64(77);
        let b = run_lane_cover(
            &g,
            &ImplicitDraw,
            2,
            0,
            u64::MAX,
            100_000,
            &mut scratch,
            &mut rng,
        );
        assert_eq!(a, b);
        // And a fresh scratch gives the same answer.
        let mut fresh = LaneScratch::new(&g);
        let mut rng = StdRng::seed_from_u64(77);
        let c = run_lane_cover(
            &g,
            &ImplicitDraw,
            2,
            0,
            u64::MAX,
            100_000,
            &mut fresh,
            &mut rng,
        );
        assert_eq!(a, c);
    }

    #[test]
    fn scratch_resizes_across_graphs() {
        let small = classic::cycle(8).unwrap();
        let big = classic::cycle(200).unwrap();
        let mut scratch = LaneScratch::new(&small);
        assert_eq!(scratch.capacity(), 8);
        let mut rng = StdRng::seed_from_u64(2);
        let out = run_lane_cover(
            &big,
            &ImplicitDraw,
            2,
            0,
            u64::MAX,
            1_000_000,
            &mut scratch,
            &mut rng,
        );
        assert_eq!(scratch.capacity(), 200);
        assert_eq!(out.completed, u64::MAX);
    }

    #[test]
    fn lane_mean_tracks_serial_mean() {
        // Coarse distribution sanity in-crate (the KS test lives in
        // tests/lanes.rs): the mean lane cover time over several batches
        // must land near the serial engine's mean over the same number of
        // trials. Deterministic seeds, generous tolerance.
        let g = classic::complete(32).unwrap();
        let mut scratch = LaneScratch::new(&g);
        let batches = 8;
        let mut lane_sum = 0.0;
        for b in 0..batches {
            let mut rng = StdRng::seed_from_u64(1000 + b);
            let out = run_lane_cover(
                &g,
                &ImplicitDraw,
                2,
                0,
                u64::MAX,
                100_000,
                &mut scratch,
                &mut rng,
            );
            assert_eq!(out.completed, u64::MAX);
            lane_sum += out.steps.iter().map(|&s| s as f64).sum::<f64>();
        }
        let lane_mean = lane_sum / (batches as f64 * LANE_WIDTH as f64);

        let cobra = CobraWalk::standard();
        let driver = CoverDriver::new(&g);
        let serial_trials = 512;
        let mut serial_sum = 0.0;
        for i in 0..serial_trials {
            let mut rng = StdRng::seed_from_u64(50_000 + i);
            let res = driver.run_typed(&cobra, 0, 100_000, &mut rng).unwrap();
            serial_sum += res.steps as f64;
        }
        let serial_mean = serial_sum / serial_trials as f64;
        assert!(
            (lane_mean - serial_mean).abs() / serial_mean < 0.15,
            "lane mean {lane_mean:.2} vs serial mean {serial_mean:.2}"
        );
    }
}
