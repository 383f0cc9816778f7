//! Bit-sliced multi-trial cover kernel: 64 independent trials per pass.
//!
//! The dense-phase [`crate::frontier::Frontier`] is already a bitset whose
//! cobra step is word-parallel ORs. This module transposes that layout
//! across *trials* instead of vertices: one `u64` per vertex, where bit
//! `j` of `cur[v]` means "trial (lane) `j`'s frontier currently contains
//! `v`". One pass over the vertices then advances up to [`LANE_WIDTH`]
//! trials at once — the SIMD-across-instances trick of bit-parallel
//! BFS/reachability kernels — which is exactly the regime where the
//! per-trial scratch engine loses: small `n`, cheap covers, thousands of
//! trials, dispatch overhead per trial comparable to the cover itself.
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
/// coverage words, one `u64` per vertex each. Build once per worker (the
/// lane analogue of [`crate::TrialScratch`]) and reuse across batches;
/// [`run_lane_cover`] re-zeroes in O(n) words per batch, amortized over
/// the up-to-64 trials the batch carries.
#[derive(Clone, Debug)]
pub struct LaneScratch {
    /// Current frontier, transposed: bit `j` of `cur[v]` = lane `j` is at
    /// `v` this round.
    cur: Vec<u64>,
    /// Next frontier being built by the in-flight round.
    next: Vec<u64>,
    /// Transposed coverage: bit `j` of `cov[v]` = lane `j` has covered `v`.
    cov: Vec<u64>,
}

impl LaneScratch {
    /// Buffers sized for `g`.
    pub fn new(g: &Graph) -> Self {
        let n = g.num_vertices();
        LaneScratch {
            cur: vec![0; n],
            next: vec![0; n],
            cov: vec![0; n],
        }
    }

    /// Vertex capacity the buffers are currently sized for.
    pub fn capacity(&self) -> usize {
        self.cur.len()
    }

    /// Resize (if the graph changed) and zero everything for a new batch.
    fn prepare(&mut self, n: usize) {
        if self.cur.len() != n {
            self.cur.resize(n, 0);
            self.next.resize(n, 0);
            self.cov.resize(n, 0);
        }
        self.cur.fill(0);
        self.next.fill(0);
        self.cov.fill(0);
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
    let LaneScratch { cur, next, cov } = scratch;

    let mut counts = [0u32; LANE_WIDTH];
    let mut steps = [0u32; LANE_WIDTH];
    let mut completed = 0u64;
    let mut alive = lane_mask;

    // Initial configuration: every lane's pebble (and coverage) at start.
    cur[start as usize] = lane_mask;
    cov[start as usize] = lane_mask;
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
    let mut last_round = 0u64;
    for t in 1..=max_steps {
        // Advance every live lane one round. The draw counter feeds only
        // the probe; under `NoopProbe` it is dead and optimized away.
        let mut round_draws = 0u64;
        for (v, &cur_v) in cur.iter().enumerate() {
            let lanes = cur_v & alive;
            if lanes == 0 {
                continue;
            }
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

        // Union the new frontier into coverage and retire finished lanes.
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
                    if counts[j] == n_u32 {
                        finished |= 1u64 << j;
                    }
                    m &= m - 1;
                }
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

        std::mem::swap(cur, next);
        next.fill(0);
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
    use cobra_graph::generators::classic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
