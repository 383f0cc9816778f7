//! The coverage bitmap of a cover run.
//!
//! Every cover loop unions each round's active set into a
//! [`SuccinctCoverage`] and stops once all `n` vertices are marked. It
//! is one bit per vertex id in 64-bit words plus a running count, so
//! `count`/`is_complete` are O(1) and a dense [`Frontier`] unions in
//! word-parallel, O(n/64) per round whatever its population.
//!
//! [`SuccinctCoverage::reset`] zeroes the words when anything is
//! covered. A completed cover has already written every word, so reuse
//! across trials costs one pass per trial, the same as one dense union
//! round. At `n/8` bytes the bitmap is also the whole coverage cost of a
//! giant implicit run: about 16 MB for a 1.3·10⁸-vertex cover, far below
//! the multi-GB CSR adjacency the implicit graph replaces (see
//! `tests/implicit_scale.rs`).

use crate::frontier::Frontier;
use crate::process::Active;
use cobra_graph::Vertex;

/// A coverage bitmap over vertex ids `0..n` with a running count: O(1)
/// mark/contains/count/is-complete and word-parallel frontier union.
#[derive(Clone, Debug)]
pub struct SuccinctCoverage {
    n: usize,
    words: Vec<u64>,
    covered: usize,
}

impl SuccinctCoverage {
    /// An empty coverage map over vertex ids `0..n`.
    pub fn new(n: usize) -> Self {
        SuccinctCoverage {
            n,
            words: vec![0; n.div_ceil(64)],
            covered: 0,
        }
    }

    /// The id-space size `n`.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.n
    }

    /// Number of covered vertices (O(1)).
    #[inline]
    pub fn count(&self) -> usize {
        self.covered
    }

    /// Whether all `n` vertices are covered (O(1)).
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.covered == self.n
    }

    /// Whether `v` is covered.
    #[inline]
    pub fn contains(&self, v: Vertex) -> bool {
        let i = v as usize;
        self.words[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Cover `v`; returns `true` if it was newly covered. Branch-free
    /// apart from the return itself.
    #[inline]
    pub fn mark(&mut self, v: Vertex) -> bool {
        let i = v as usize;
        debug_assert!(i < self.n, "vertex {v} out of range");
        let word = &mut self.words[i >> 6];
        let bit = 1u64 << (i & 63);
        let newly = *word & bit == 0;
        *word |= bit;
        // Not `newly as usize` (nor `usize::from`): rustc 1.95's release
        // MIR drops that update when an inlined caller branches on the
        // result. See `mark_contains_across_word_boundaries`.
        self.covered += if newly { 1 } else { 0 };
        newly
    }

    /// Cover every vertex in `vs` (duplicates welcome); returns how many
    /// were newly covered.
    pub fn mark_slice(&mut self, vs: &[Vertex]) -> usize {
        let before = self.covered;
        for &v in vs {
            self.mark(v);
        }
        self.covered - before
    }

    /// Union a [`Frontier`] in; returns how many vertices were newly
    /// covered. Sparse frontiers mark per member; dense frontiers OR
    /// their words in with a popcount of the fresh bits.
    pub fn union_from_frontier(&mut self, f: &Frontier) -> usize {
        assert_eq!(self.n, f.capacity(), "id spaces must match");
        match f.as_sparse() {
            Some(members) => self.mark_slice(members),
            None => {
                let mut added = 0usize;
                for (mine, &w) in self.words.iter_mut().zip(f.as_words()) {
                    added += (w & !*mine).count_ones() as usize;
                    *mine |= w;
                }
                self.covered += added;
                added
            }
        }
    }

    /// Union a round's [`Active`] set in; returns how many vertices were
    /// newly covered.
    #[inline]
    pub(crate) fn union_active(&mut self, active: Active<'_>) -> usize {
        match active {
            Active::Set(f) => self.union_from_frontier(f),
            Active::Pebbles(p) => self.mark_slice(p),
        }
    }

    /// Un-cover everything: one zeroing pass when anything is covered.
    pub fn reset(&mut self) {
        if self.covered != 0 {
            self.words.fill(0);
            self.covered = 0;
        }
    }

    /// Cover every vertex but `v`, in one pass: what is left to cover is
    /// `{v}`, so a cover run from here completes when it hits `v`.
    pub fn cover_all_but(&mut self, v: Vertex) {
        let i = v as usize;
        assert!(i < self.n, "vertex {v} out of range");
        self.words.fill(!0);
        // The bits past `n` in the last word stay clear.
        *self.words.last_mut().expect("n > 0") = !0u64 >> (self.n.wrapping_neg() % 64);
        self.words[i >> 6] &= !(1u64 << (i & 63));
        self.covered = self.n - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_and_complete() {
        let mut c = SuccinctCoverage::new(5);
        assert_eq!(c.capacity(), 5);
        assert_eq!(c.count(), 0);
        assert!(!c.is_complete());
        assert_eq!(c.mark_slice(&[0, 1, 2, 3, 4, 2, 0]), 5);
        assert!(c.is_complete());
        c.reset();
        assert_eq!(c.count(), 0);
        assert!(!c.contains(3));
    }

    /// Also the regression test for a release-profile miscompile: with
    /// `covered += newly as usize`, rustc 1.95.0's MIR pass
    /// `SimplifyComparisonIntegral` dropped the count update once the
    /// `assert!(c.mark(..))` below branched on the inlined result, so
    /// `count()` stayed 0 under `cargo test --release`.
    #[test]
    fn mark_contains_across_word_boundaries() {
        let n = 64 * 3 + 5;
        let mut c = SuccinctCoverage::new(n);
        let picks = [0usize, 62, 63, 64, 127, 128, n - 1];
        for (i, &v) in picks.iter().enumerate() {
            assert!(c.mark(v as Vertex));
            assert!(!c.mark(v as Vertex), "remark of {v} reported new");
            assert_eq!(c.count(), i + 1);
        }
        for v in 0..n {
            assert_eq!(c.contains(v as Vertex), picks.contains(&v), "vertex {v}");
        }
    }

    #[test]
    fn reset_uncovers_everything() {
        let mut c = SuccinctCoverage::new(200);
        c.mark_slice(&[0, 5, 64, 199]);
        assert_eq!(c.count(), 4);
        c.reset();
        assert_eq!(c.count(), 0);
        for v in [0u32, 5, 64, 199] {
            assert!(!c.contains(v), "vertex {v} survived reset");
        }
        // Both write paths start from zero again.
        assert_eq!(c.mark_slice(&[5, 5, 64]), 2);
        let mut f = Frontier::new(200);
        for v in 0..200u32 {
            f.insert(v);
        }
        assert!(f.is_dense());
        assert_eq!(c.union_from_frontier(&f), 198);
        assert!(c.is_complete());
    }

    #[test]
    fn cover_all_but_leaves_exactly_the_target() {
        for (n, v) in [(1usize, 0u32), (64, 63), (65, 64), (200, 0), (200, 130)] {
            let mut c = SuccinctCoverage::new(n);
            c.mark(0);
            c.cover_all_but(v);
            assert_eq!(c.count(), n - 1, "n = {n}");
            assert!(!c.is_complete());
            for u in 0..n as Vertex {
                assert_eq!(c.contains(u), u != v, "n = {n}, vertex {u}");
            }
            assert!(c.mark(v));
            assert!(c.is_complete());
            c.reset();
            assert_eq!(c.count(), 0);
        }
    }

    #[test]
    fn union_repacks_dense_frontier_words() {
        // A frontier past its dense threshold takes the word-OR path;
        // compare against marking its members one at a time.
        let n = 4096;
        let mut f = Frontier::new(n);
        for v in (0..n as u32).step_by(3) {
            f.insert(v);
        }
        assert!(f.is_dense(), "step-3 fill must trip the dense threshold");
        let mut c = SuccinctCoverage::new(n);
        c.mark(1);
        let mut by_mark = c.clone();
        assert_eq!(
            c.union_from_frontier(&f),
            by_mark.mark_slice(&f.to_sorted_vec()),
            "newly-covered counts must agree"
        );
        assert_eq!(c.count(), by_mark.count());
        for v in 0..n as u32 {
            assert_eq!(c.contains(v), by_mark.contains(v));
        }
        // A second union adds nothing.
        assert_eq!(c.union_from_frontier(&f), 0);
    }

    #[test]
    fn union_sparse_frontier_matches_mask() {
        let n = 1000;
        let mut f = Frontier::new(n);
        for v in [3u32, 999, 63, 64, 126, 3] {
            f.insert(v);
        }
        assert!(f.as_sparse().is_some());
        let mut c = SuccinctCoverage::new(n);
        let mut mask = vec![false; n];
        for v in [3usize, 999, 63, 64, 126] {
            mask[v] = true;
        }
        assert_eq!(c.union_from_frontier(&f), 5);
        assert_eq!(c.count(), 5);
        for (v, &covered) in mask.iter().enumerate() {
            assert_eq!(c.contains(v as Vertex), covered, "vertex {v}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bitmap agrees with a plain `Vec<bool>` mask under an
        /// arbitrary mark/reset workload over any id-space size,
        /// including sizes that are not a multiple of 64.
        #[test]
        fn agrees_with_coverage_mask_oracle(
            n in 1usize..700,
            ops in proptest::collection::vec((0u8..10, 0u32..700u32), 1..120),
        ) {
            let mut c = SuccinctCoverage::new(n);
            let mut mask = vec![false; n];
            let mut covered = 0usize;
            for (sel, raw) in ops {
                let v = raw % n as u32;
                if sel == 0 {
                    c.reset();
                    mask.fill(false);
                    covered = 0;
                } else {
                    let newly = !mask[v as usize];
                    mask[v as usize] = true;
                    covered += newly as usize;
                    prop_assert_eq!(c.mark(v), newly);
                }
                prop_assert_eq!(c.count(), covered);
                prop_assert_eq!(c.is_complete(), covered == n);
                prop_assert_eq!(c.contains(v), mask[v as usize]);
            }
            for (v, &m) in mask.iter().enumerate() {
                prop_assert_eq!(c.contains(v as Vertex), m);
            }
        }
    }
}
