//! Hybrid sparse/dense frontier engine for walk kernels.
//!
//! Every process in the paper is a frontier evolution: the active set
//! `S_{t+1}` is a union of random out-choices from `S_t` (§2). On
//! expanders that frontier goes from a single pebble to Θ(n) vertices
//! within O(log n) rounds, so no single set representation is right for a
//! whole run:
//!
//! * **sparse** (insertion-order `Vec<Vertex>` + membership bits):
//!   iteration touches only `|S|` entries and clearing is per-member.
//!   Wins while the frontier is a vanishing fraction of the graph.
//! * **dense** (`u64` bitset only): insertion is a single unconditional
//!   OR — no membership test, no append, and crucially **no
//!   data-dependent branch** — with `len` recovered by a word-parallel
//!   popcount once per round. Wins once the frontier is a constant
//!   fraction of the graph, where a tested insert mispredicts ~50% of the
//!   time and dominates the whole walk kernel (measured ~16 of 21 ns per
//!   vertex-step on the 64×64 grid at steady state).
//!
//! **Load-factor heuristic.** [`Frontier`] switches sparse → dense when
//! `|S| ≥ max(8, n/64)`, i.e. when the member count reaches the number of
//! `u64` words the bitset needs. Below that point per-member bookkeeping
//! is cheaper than any whole-bitset operation (clear, popcount, scan —
//! each O(n/64) words); above it those word-parallel passes cost no more
//! than the member count, so the branch-free OR-insert wins outright. The
//! switch is one-way within a round and resets on [`Frontier::clear`],
//! matching the direction-switching trick of hybrid BFS engines.
//!
//! Membership bits are maintained in *both* modes, so `contains` is O(1)
//! throughout and the representation switch never changes which set is
//! stored — only how it is traversed. Iteration order is insertion order
//! while sparse and ascending once dense; it is deterministic either way,
//! and every route runs a walk's one round body, so the
//! seed-equivalence harness holds bit-for-bit across the switch.
//!
//! **Traversal.** The crate-private `for_each_member!` macro is the one
//! traversal: it pastes a per-member body into both loops, the sparse
//! member list and the dense word scan, and `continue` in the body skips
//! a member. [`Frontier::for_each`] is that macro with a closure call as
//! its body. The cobra, faulty-cobra and scheduled rounds write their
//! draws in the body itself, not in a closure: called from two loops, a
//! round's closure is not inlined, so every active vertex pays a call
//! that reloads the RNG state and the next frontier's fields. Inline, a
//! 2-cobra draw on a random 4-regular graph with n = 65,536 costs about
//! 4 ns where the closure's cost 5–7 ns (see the README's frontier-engine
//! section). Each of these rounds also holds one graph cursor
//! (`ImplicitGraph::Cursor`) across the traversal and binds every member
//! through it, so a hypercube builds its block order once per dense
//! word instead of once per member.

use cobra_graph::Vertex;

/// Member-count threshold divisor: go dense once `len ≥ n / 64` (one
/// member per bitset word).
const DENSE_DIVISOR: usize = 64;

/// Minimum threshold so tiny graphs keep a useful sparse phase.
const MIN_THRESHOLD: usize = 8;

/// Run a body once per member of a [`Frontier`], with the member bound
/// to a `Vertex`: `for_each_member!(v in frontier => { ... })`. Members
/// come in [`Frontier::for_each`] order, insertion order while sparse
/// and ascending once dense. The body is pasted into both loops, so it
/// runs inline in the caller with no closure call per member (see the
/// module docs). `continue` in the body skips to the next member; the
/// body must not `break`, which would leave only the current bitset
/// word.
macro_rules! for_each_member {
    ($v:ident in $frontier:expr => $body:block) => {{
        let frontier: &$crate::frontier::Frontier = $frontier;
        match frontier.as_sparse() {
            Some(members) => {
                for &$v in members {
                    $body
                }
            }
            None => {
                for (w, &word) in frontier.as_words().iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let $v =
                            ((w << 6) + bits.trailing_zeros() as usize) as ::cobra_graph::Vertex;
                        bits &= bits - 1;
                        $body
                    }
                }
            }
        }
    }};
}
pub(crate) use for_each_member;

/// A set over dense vertex ids `0..n` that adapts its representation to
/// its load factor: insertion-order vector + membership bits while small,
/// branch-free pure bitset once it crosses the load-factor threshold (see
/// the module docs).
#[derive(Clone, Debug)]
pub struct Frontier {
    /// Id-space size `n`.
    n: usize,
    /// Member count at which the representation switches to dense.
    threshold: usize,
    /// Membership bitset; maintained in both modes.
    words: Vec<u64>,
    /// Unique members in insertion order (sparse mode only; capacity
    /// `threshold`, abandoned after the switch).
    buf: Vec<Vertex>,
    /// Which representation is live.
    dense: bool,
    /// Member count. Exact through the public API; after
    /// [`Frontier::insert_quiet`] bursts it is only exact again once
    /// [`Frontier::finalize_len`] runs (crate-internal contract).
    len: usize,
}

impl Frontier {
    /// An empty frontier over the id space `0..n`.
    pub fn new(n: usize) -> Self {
        let threshold = (n / DENSE_DIVISOR).max(MIN_THRESHOLD);
        Frontier {
            n,
            threshold,
            words: vec![0; n.div_ceil(64)],
            buf: Vec::with_capacity(threshold),
            dense: false,
            len: 0,
        }
    }

    /// Capacity of the id space.
    pub fn capacity(&self) -> usize {
        self.n
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the dense (pure bitset) representation is live.
    pub fn is_dense(&self) -> bool {
        self.dense
    }

    /// The member count at which this frontier goes dense.
    pub fn dense_threshold(&self) -> usize {
        self.threshold
    }

    /// Whether `v` is a member (O(1) in both modes).
    #[inline]
    pub fn contains(&self, v: Vertex) -> bool {
        let i = v as usize;
        self.words[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Insert `v`; returns `true` if it was newly inserted. Keeps `len`
    /// exact; walk kernels use `Frontier::insert_quiet` instead, which
    /// skips everything a hot loop does not need.
    #[inline]
    pub fn insert(&mut self, v: Vertex) -> bool {
        debug_assert!((v as usize) < self.n, "vertex {v} out of range");
        let i = v as usize;
        let word = &mut self.words[i >> 6];
        let bit = 1u64 << (i & 63);
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.len += 1;
        if !self.dense {
            self.buf.push(v);
            if self.len >= self.threshold {
                self.dense = true;
                self.buf.clear();
            }
        }
        true
    }

    /// Hot-path insert for walk kernels: no return value, no exact `len`
    /// maintenance while dense. In dense mode this is a single
    /// unconditional OR (branch-free); in sparse mode a branchless
    /// conditional append. Callers must run [`Frontier::finalize_len`]
    /// after the insert burst and before reading `len`.
    #[inline]
    pub(crate) fn insert_quiet(&mut self, v: Vertex) {
        debug_assert!((v as usize) < self.n, "vertex {v} out of range");
        let i = v as usize;
        let word = &mut self.words[i >> 6];
        let bit = 1u64 << (i & 63);
        if self.dense {
            *word |= bit;
        } else {
            // Branchless "push if new": unconditional store to the next
            // slot, advance only when the bit was actually fresh. A tested
            // push mispredicts ~50% at high occupancy; this never does.
            let newly = (*word & bit == 0) as usize;
            *word |= bit;
            debug_assert!(self.len < self.buf.capacity());
            unsafe {
                // SAFETY: `buf` is allocated with capacity `threshold` and
                // `len < threshold` in sparse mode (the switch below fires
                // the moment `len` reaches it).
                *self.buf.as_mut_ptr().add(self.len) = v;
            }
            self.len += newly;
            if self.len >= self.threshold {
                self.dense = true;
            }
        }
    }

    /// Restore the exact `len` after a burst of
    /// [`Frontier::insert_quiet`] calls: a word-parallel popcount in dense
    /// mode, a no-op in sparse mode (where `len` stays exact).
    #[inline]
    pub(crate) fn finalize_len(&mut self) {
        if self.dense {
            self.len = self.words.iter().map(|w| w.count_ones() as usize).sum();
        } else {
            // SAFETY: elements 0..len were initialized by insert_quiet /
            // insert before len advanced past them.
            unsafe { self.buf.set_len(self.len) }
        }
    }

    /// Remove all members and return to the sparse representation.
    /// Per-member bit clears while sparse; O(n/64) word fill once dense —
    /// which is still O(dirty): the dense switch only fires at
    /// `len ≥ max(8, n/64)`, so a dense frontier has at least as many
    /// members as the bitset has words. Trial-scratch reuse therefore
    /// never pays more to clear than the run paid to fill.
    pub fn clear(&mut self) {
        if self.dense {
            self.words.fill(0);
            self.dense = false;
        } else {
            for &v in &self.buf {
                self.words[v as usize >> 6] &= !(1u64 << (v as usize & 63));
            }
        }
        self.buf.clear();
        self.len = 0;
    }

    /// The bitset words. In dense mode this is the whole story; in sparse
    /// mode the same bits are set but [`Frontier::as_sparse`] is the
    /// cheaper traversal.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// The members in insertion order while sparse, `None` once dense.
    pub fn as_sparse(&self) -> Option<&[Vertex]> {
        (!self.dense).then_some(self.buf.as_slice())
    }

    /// Visit every member: insertion order while sparse, ascending vertex
    /// order once dense. Deterministic in both modes. The walk kernels
    /// use `for_each_member!`, this traversal with the body pasted in.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(Vertex)) {
        for_each_member!(v in self => { f(v) });
    }

    /// Materialize the members as a sorted vector (tests and table code;
    /// hot paths use [`Frontier::for_each`] or [`Frontier::as_words`]).
    pub fn to_sorted_vec(&self) -> Vec<Vertex> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each(|v| out.push(v));
        out.sort_unstable();
        out
    }
}

/// Reinitialize a frontier-pair walk state (cobra, scheduled cobra) for
/// a new run from `start`: O(dirty) clears of both frontiers and the
/// start re-seeded — exactly the observable state `spawn_typed`
/// produces. One shared body so the `respawn_typed` impls cannot drift
/// from the spawn shape independently. Callers have already checked the
/// capacity matches the graph.
pub(crate) fn reinit_frontier_run(cur: &mut Frontier, next: &mut Frontier, start: Vertex) {
    cur.clear();
    cur.insert(start);
    next.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::SuccinctCoverage;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn starts_sparse_and_switches_at_threshold() {
        let n = 64 * DENSE_DIVISOR; // threshold = 64
        let mut f = Frontier::new(n);
        assert_eq!(f.dense_threshold(), 64);
        for v in 0..63u32 {
            assert!(f.insert(2 * v));
            assert!(!f.is_dense(), "must stay sparse below the threshold");
        }
        assert!(f.insert(4000));
        assert!(f.is_dense(), "64th member must trip the switch");
        assert_eq!(f.len(), 64);
        // Same members visible on both sides of the switch.
        for v in 0..63u32 {
            assert!(f.contains(2 * v));
        }
        assert!(f.contains(4000));
        assert!(!f.contains(1));
    }

    #[test]
    fn small_id_spaces_use_min_threshold() {
        let f = Frontier::new(100);
        assert_eq!(f.dense_threshold(), MIN_THRESHOLD);
    }

    #[test]
    fn insert_dedups_in_both_representations() {
        let mut f = Frontier::new(1024);
        assert!(f.insert(5));
        assert!(!f.insert(5));
        for v in 0..40u32 {
            f.insert(v);
        }
        assert!(f.is_dense());
        assert!(!f.insert(5));
        assert_eq!(f.len(), 40);
    }

    #[test]
    fn clear_resets_to_sparse() {
        let mut f = Frontier::new(256);
        for v in 0..200u32 {
            f.insert(v);
        }
        assert!(f.is_dense());
        f.clear();
        assert!(f.is_empty());
        assert!(!f.is_dense());
        assert!(!f.contains(0));
        assert!(f.insert(0));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn quiet_inserts_match_exact_inserts() {
        // Drive one frontier with the hot-path API and one with the exact
        // API through the sparse→dense switch; they must agree.
        let vs: Vec<u32> = (0..400u32).map(|i| (i * 37) % 300).collect();
        let mut quiet = Frontier::new(300);
        let mut exact = Frontier::new(300);
        for &v in &vs {
            quiet.insert_quiet(v);
            exact.insert(v);
        }
        quiet.finalize_len();
        assert_eq!(quiet.len(), exact.len());
        assert_eq!(quiet.to_sorted_vec(), exact.to_sorted_vec());
    }

    #[test]
    fn quiet_inserts_stay_exact_while_sparse() {
        let mut f = Frontier::new(4096); // threshold 64
        f.insert_quiet(7);
        f.insert_quiet(7);
        f.insert_quiet(9);
        f.finalize_len();
        assert_eq!(f.len(), 2);
        assert!(!f.is_dense());
        assert_eq!(f.as_sparse(), Some(&[7, 9][..]));
    }

    #[test]
    fn sparse_iteration_is_insertion_order_dense_is_ascending() {
        let mut f = Frontier::new(4096);
        for &v in &[77u32, 3, 4090] {
            f.insert(v);
        }
        assert_eq!(f.as_sparse(), Some(&[77, 3, 4090][..]));
        assert_eq!(f.to_sorted_vec(), vec![3, 77, 4090]);
        for v in 1000..1100u32 {
            f.insert(v);
        }
        assert!(f.is_dense());
        let mut got = Vec::new();
        f.for_each(|v| got.push(v));
        let mut expect: Vec<u32> = vec![77, 3, 4090];
        expect.extend(1000..1100u32);
        expect.sort_unstable();
        assert_eq!(got, expect, "dense iteration must be ascending");
    }

    /// The members in `for_each_member!` order, skipping through
    /// `continue` those `skip` picks.
    fn visit_skipping(f: &Frontier, skip: impl Fn(Vertex) -> bool) -> Vec<Vertex> {
        let mut seen = Vec::new();
        for_each_member!(v in f => {
            if skip(v) {
                continue;
            }
            seen.push(v);
        });
        seen
    }

    // The coverage tests below feed the bitmap from frontiers: its
    // union reads `as_sparse` while sparse and `as_words` once dense.

    #[test]
    fn coverage_mask_counts_and_completes() {
        let mut c = SuccinctCoverage::new(70);
        assert_eq!(c.mark_slice(&[0, 1, 1, 69]), 3);
        assert_eq!(c.count(), 3);
        assert!(c.contains(69));
        assert!(!c.contains(2));
        let mut f = Frontier::new(70);
        for v in 0..70u32 {
            f.insert(v);
        }
        assert!(f.is_dense());
        assert_eq!(c.union_from_frontier(&f), 67);
        assert!(c.is_complete());
    }

    #[test]
    fn coverage_reset_interleaves_with_runs() {
        // Many reset cycles with different touch patterns, alternating
        // per-vertex marks and frontier unions: no bit may survive a
        // reset into the next run.
        let n = 320;
        let mut c = SuccinctCoverage::new(n);
        for round in 0..50u32 {
            let stride = (round % 7 + 1) as usize;
            let marked: Vec<u32> = (0..n as u32).step_by(stride).collect();
            if round % 2 == 0 {
                for &v in &marked {
                    c.mark(v);
                }
            } else {
                let mut f = Frontier::new(n);
                for &v in &marked {
                    f.insert(v);
                }
                assert_eq!(c.union_from_frontier(&f), marked.len());
            }
            assert_eq!(c.count(), marked.len());
            for v in 0..n as u32 {
                assert_eq!(c.contains(v), marked.contains(&v), "round {round}, v {v}");
            }
            c.reset();
        }
    }

    #[test]
    fn coverage_union_matches_mark_slice() {
        let mut f = Frontier::new(300);
        for v in (0..300u32).step_by(3) {
            f.insert(v);
        }
        assert!(f.is_dense());
        let mut via_union = SuccinctCoverage::new(300);
        via_union.mark(0);
        via_union.mark(1);
        let mut via_marks = via_union.clone();
        assert_eq!(
            via_union.union_from_frontier(&f),
            via_marks.mark_slice(&f.to_sorted_vec())
        );
        assert_eq!(via_union.count(), via_marks.count());
        for v in 0..300u32 {
            assert_eq!(via_union.contains(v), via_marks.contains(v));
        }
    }

    /// Random op sequence for the oracle test: insert (exact or quiet)
    /// or clear.
    #[derive(Clone, Debug)]
    enum Op {
        Insert(u32),
        QuietBurst(Vec<u32>),
        Clear,
    }

    fn arb_ops(n: u32, len: usize) -> impl Strategy<Value = Vec<Op>> {
        // Weighted mix (the vendored proptest has no `prop_oneof`):
        // selector 0 → clear, 1–4 → quiet burst, 5+ → insert.
        proptest::collection::vec(
            (0u8..11, 0..n, proptest::collection::vec(0..n, 0..40)).prop_map(|(sel, v, vs)| {
                match sel {
                    0 => Op::Clear,
                    1..=4 => Op::QuietBurst(vs),
                    _ => Op::Insert(v),
                }
            }),
            1..len,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The hybrid frontier agrees with a `HashSet` oracle under random
        /// insert/clear sequences. `n = 600` with threshold
        /// `max(8, 600/64) = 9` makes the sparse↔dense switch and the
        /// post-clear re-sparsification both routine events.
        #[test]
        fn frontier_matches_hashset_oracle(ops in arb_ops(600, 120)) {
            let n = 600usize;
            let mut f = Frontier::new(n);
            let mut oracle: HashSet<u32> = HashSet::new();
            for op in ops {
                match op {
                    Op::Insert(v) => {
                        prop_assert_eq!(f.insert(v), oracle.insert(v));
                    }
                    Op::QuietBurst(vs) => {
                        for v in vs {
                            f.insert_quiet(v);
                            oracle.insert(v);
                        }
                        f.finalize_len();
                    }
                    Op::Clear => {
                        f.clear();
                        oracle.clear();
                        prop_assert!(!f.is_dense(), "clear must re-sparsify");
                    }
                }
                prop_assert_eq!(f.len(), oracle.len());
            }
            let mut expect: Vec<u32> = oracle.iter().copied().collect();
            expect.sort_unstable();
            prop_assert_eq!(f.to_sorted_vec(), expect);
            for v in 0..n as u32 {
                prop_assert_eq!(f.contains(v), oracle.contains(&v));
            }
        }

        /// `for_each_member!` and [`Frontier::for_each`] visit the
        /// members in insertion order while sparse and ascending once
        /// dense, after every op. With threshold 9 at `n = 600`, quiet
        /// bursts of up to 39 draws routinely cross the dense switch
        /// mid-burst; the closing burst, 12 new members after a clear,
        /// always does. A body that `continue`s past the multiples of
        /// `modulus` still visits every other member, in order.
        #[test]
        fn traversal_is_insertion_order_then_ascending(
            ops in arb_ops(600, 120),
            modulus in 2u32..7,
        ) {
            let mut f = Frontier::new(600);
            let mut order: Vec<u32> = Vec::new();
            let crossing = Op::QuietBurst((0..12u32).map(|i| 590 - 37 * i).collect());
            for op in ops.into_iter().chain([Op::Clear, crossing]) {
                match op {
                    Op::Insert(v) => {
                        if f.insert(v) {
                            order.push(v);
                        }
                    }
                    Op::QuietBurst(vs) => {
                        for v in vs {
                            if !f.contains(v) {
                                order.push(v);
                            }
                            f.insert_quiet(v);
                        }
                        f.finalize_len();
                    }
                    Op::Clear => {
                        f.clear();
                        order.clear();
                    }
                }
                let mut expect = order.clone();
                if f.is_dense() {
                    expect.sort_unstable();
                }
                let mut via_for_each = Vec::new();
                f.for_each(|v| via_for_each.push(v));
                prop_assert_eq!(&via_for_each, &expect);
                prop_assert_eq!(&visit_skipping(&f, |_| false), &expect);
                expect.retain(|v| v % modulus != 0);
                prop_assert_eq!(visit_skipping(&f, |v| v % modulus == 0), expect);
            }
        }

        /// The coverage bitmap agrees with a `HashSet` oracle when fed a
        /// mix of slice marks, frontier unions (sparse and dense), and
        /// resets (every fifth batch).
        #[test]
        fn coverage_matches_hashset_oracle(batches in proptest::collection::vec(
            proptest::collection::vec(0u32..400, 0..60), 1..20))
        {
            let n = 400usize;
            let mut c = SuccinctCoverage::new(n);
            let mut oracle: HashSet<u32> = HashSet::new();
            for (i, batch) in batches.iter().enumerate() {
                if i % 5 == 4 {
                    c.reset();
                    oracle.clear();
                }
                let newly_oracle = batch.iter().filter(|&&v| oracle.insert(v)).count();
                if i % 2 == 0 {
                    prop_assert_eq!(c.mark_slice(batch), newly_oracle);
                } else {
                    let mut f = Frontier::new(n);
                    for &v in batch {
                        f.insert(v);
                    }
                    prop_assert_eq!(c.union_from_frontier(&f), newly_oracle);
                }
                prop_assert_eq!(c.count(), oracle.len());
                prop_assert_eq!(c.is_complete(), oracle.len() == n);
            }
            for v in 0..n as u32 {
                prop_assert_eq!(c.contains(v), oracle.contains(&v));
            }
        }
    }
}
