//! Stage-seed registry: namespaced master-seed derivation for the
//! experiment binaries.
//!
//! Every experiment binary runs several *stages* — graph construction,
//! per-arm trial batches, control sweeps — and each stage needs its own
//! independent seed stream derived from the run's one `--seed` master.
//! Historically each binary improvised its own offsets
//! (`cfg.seed.wrapping_add(1000 + k)`, `seq.child(4242 + k)`, raw XORs),
//! which had two failure modes:
//!
//! * **collision by growth** — `wrapping_add(k)` and
//!   `wrapping_add(1000 + k)` silently alias the moment a sweep grows
//!   past 1000 arms, correlating two stages that the experiment's
//!   statistics assume independent;
//! * **weak separation** — master seeds differing by small additive
//!   offsets lean entirely on the downstream generator's avalanche;
//!   [`SeedSequence::child`] exists precisely to give each label an
//!   independently mixed stream.
//!
//! This module replaces the improvisation with a declared registry: each
//! `(binary, stage)` pair owns a fixed label block `[base, base + width)`
//! in the child-label space of the run's master [`SeedSequence`], blocks
//! are globally disjoint (binary `b` owns `b·0x1_0000`, stage slot `s`
//! owns `0x1000` labels at `b·0x1_0000 + s·0x1000`), and every
//! derivation goes through [`stage_seed`] / [`stage_sequence`], which
//! assert the arm fits its block. The collision test below proves the
//! registry's blocks are pairwise disjoint, so adding a stage can never
//! silently alias an existing one.

use cobra_sim::SeedSequence;

/// One stage's label block: `width` consecutive child labels starting at
/// `base`, owned by one `(binary, stage)` pair.
#[derive(Clone, Copy, Debug)]
pub struct StageBlock {
    /// The experiment binary that owns the block (`"e7"`, `"e9"`, …).
    pub binary: &'static str,
    /// Stage name within the binary (`"graphs"`, `"cobra-hitting"`, …).
    pub stage: &'static str,
    /// First child label of the block.
    pub base: u64,
    /// Number of labels (arms) the block may use.
    pub width: u64,
}

impl StageBlock {
    /// The block's half-open label range.
    pub fn range(&self) -> std::ops::Range<u64> {
        self.base..self.base + self.width
    }
}

/// Stage slot helper: binary `b`, slot `s` → base label.
const fn slot(b: u64, s: u64) -> u64 {
    b * 0x1_0000 + s * 0x1000
}

/// Default block width: 4096 arms. Composite arms (e.g. `d * 1000 + i`)
/// must still land inside the block — [`stage_seed`] asserts it.
const WIDTH: u64 = 0x1000;

/// The registry: every seeded stage of every experiment binary. New
/// stages append here with a fresh slot; the `blocks_are_disjoint` test
/// makes aliasing a compile-adjacent failure instead of a silent
/// correlation.
pub const STAGE_BLOCKS: &[StageBlock] = &[
    // e1: grid cover sweep.
    block("e1", "graphs", slot(1, 0)),
    // e2: multi-dimensional drift chain (Theorem 3's queueing system).
    block("e2", "step-stats", slot(2, 0)),
    block("e2", "emptying", slot(2, 1)), // arm = d * 1000 + i
    block("e2", "excursion", slot(2, 2)),
    // e3: conductance sweep.
    block("e3", "cover-cells", slot(3, 0)),
    block("e3", "graphs", slot(3, 1)),
    // e4: expander cover + simple-walk contrast.
    block("e4", "rr-sweep", slot(4, 0)), // arm = degree d
    block("e4", "rw-contrast", slot(4, 1)),
    block("e4", "graphs", slot(4, 2)), // arm = d * 100 + i
    block("e4", "rw-graphs", slot(4, 3)),
    // e5: Walt dominance (Lemma 10).
    block("e5", "graphs", slot(5, 0)),
    block("e5", "cobra", slot(5, 1)),
    block("e5", "walt", slot(5, 2)),
    // e6: tensor-chain collision (Lemma 11).
    block("e6", "graphs", slot(6, 0)),
    block("e6", "collision-freq", slot(6, 1)),
    // e7: regular-graph hitting (Lemmas 14-16, Theorem 15).
    block("e7", "graphs", slot(7, 0)),
    block("e7", "cobra-hitting", slot(7, 1)),
    block("e7", "biased-hitting", slot(7, 2)),
    block("e7", "cycle-cobra", slot(7, 3)),
    block("e7", "cycle-rw", slot(7, 4)),
    block("e7", "return-time", slot(7, 5)),
    // e8: lollipop worst case.
    block("e8", "cobra", slot(8, 0)),
    block("e8", "rw", slot(8, 1)),
    block("e8", "bootstrap", slot(8, 2)),
    // e9: Matthews bound (Theorem 1).
    block("e9", "estimator-sanity", slot(9, 0)),
    block("e9", "graphs", slot(9, 1)),
    block("e9", "hmax", slot(9, 2)),
    block("e9", "cover", slot(9, 3)),
    // e10: k-ary trees.
    block("e10", "cover", slot(10, 0)), // arm = k * 100 + i
    // e11: star lower bound vs push gossip.
    block("e11", "cobra", slot(11, 0)),
    block("e11", "push", slot(11, 1)),
    // e12: branching-factor ablation.
    block("e12", "cover", slot(12, 0)), // arm = c * 10 + i
    block("e12", "graphs", slot(12, 1)),
    // e13: Walt ablation.
    block("e13", "ablation", slot(13, 0)), // arm = c * 100 + variant
    block("e13", "graphs", slot(13, 1)),
    // e14: branching schedules.
    block("e14", "cover", slot(14, 0)), // arm = c * 10 + i
    block("e14", "graphs", slot(14, 1)),
    block("e14", "star-branching", slot(14, 2)), // arm = schedule index
    // e15: growth-phase decomposition.
    block("e15", "graphs", slot(15, 0)),
    block("e15", "growth", slot(15, 1)),
    block("e15", "cycle-refresh", slot(15, 2)),
    // e16: fault-model degradation (loss sweep + structured regimes).
    block("e16", "loss-sweep", slot(16, 0)), // arm = loss-level index
    block("e16", "regimes", slot(16, 1)),    // arm = regime index
    block("e16", "graphs", slot(16, 2)),
];

const fn block(binary: &'static str, stage: &'static str, base: u64) -> StageBlock {
    StageBlock {
        binary,
        stage,
        base,
        width: WIDTH,
    }
}

/// Look up a registered block; panics on an unregistered pair so a typo
/// fails the first run instead of silently deriving from label 0.
pub fn stage_block(binary: &str, stage: &str) -> &'static StageBlock {
    STAGE_BLOCKS
        .iter()
        .find(|b| b.binary == binary && b.stage == stage)
        .unwrap_or_else(|| panic!("unregistered stage {binary}/{stage} — add it to STAGE_BLOCKS"))
}

/// The [`SeedSequence`] for arm `arm` of a registered stage, derived
/// from the run's master seed. Use this when a stage draws several
/// seeds/RNGs itself; for a single master-seed value use [`stage_seed`].
pub fn stage_sequence(master: u64, binary: &str, stage: &str, arm: u64) -> SeedSequence {
    let b = stage_block(binary, stage);
    assert!(
        arm < b.width,
        "arm {arm} outside {binary}/{stage}'s block (width {})",
        b.width
    );
    SeedSequence::new(master).child(b.base + arm)
}

/// A single derived master seed for arm `arm` of a registered stage —
/// what [`cobra_sim::TrialPlan`]-style call sites consume.
pub fn stage_seed(master: u64, binary: &str, stage: &str, arm: u64) -> u64 {
    stage_sequence(master, binary, stage, arm).seed_at(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_disjoint() {
        // Global pairwise disjointness: no stage of any binary can ever
        // alias another, regardless of arm. This is the whole point of
        // the registry — the old wrapping_add offsets had no such proof.
        for (i, a) in STAGE_BLOCKS.iter().enumerate() {
            assert!(a.width >= 1, "{}/{} has empty block", a.binary, a.stage);
            for b in &STAGE_BLOCKS[i + 1..] {
                assert!(
                    !(a.binary == b.binary && a.stage == b.stage),
                    "duplicate registration {}/{}",
                    a.binary,
                    a.stage
                );
                let disjoint = a.base + a.width <= b.base || b.base + b.width <= a.base;
                assert!(
                    disjoint,
                    "{}/{} [{:#x}, {:#x}) overlaps {}/{} [{:#x}, {:#x})",
                    a.binary,
                    a.stage,
                    a.base,
                    a.base + a.width,
                    b.binary,
                    b.stage,
                    b.base,
                    b.base + b.width
                );
            }
        }
    }

    #[test]
    fn derived_seeds_are_distinct_across_stages_and_arms() {
        // Spot-check the end product: across every registered stage and a
        // handful of arms, all derived master seeds differ (for a fixed
        // run master). A collision here would correlate two stages'
        // entire trial streams.
        let master = 0xC0B7A;
        let mut seen = std::collections::HashMap::new();
        for b in STAGE_BLOCKS {
            for arm in [0u64, 1, 7, 1000, WIDTH - 1] {
                let s = stage_seed(master, b.binary, b.stage, arm);
                if let Some(prev) = seen.insert(s, (b.binary, b.stage, arm)) {
                    panic!(
                        "seed collision: {}/{} arm {arm} == {}/{} arm {}",
                        b.binary, b.stage, prev.0, prev.1, prev.2
                    );
                }
            }
        }
    }

    #[test]
    fn stage_seed_is_deterministic_and_master_sensitive() {
        let a = stage_seed(1, "e7", "cobra-hitting", 2);
        assert_eq!(a, stage_seed(1, "e7", "cobra-hitting", 2));
        assert_ne!(a, stage_seed(2, "e7", "cobra-hitting", 2));
        assert_ne!(a, stage_seed(1, "e7", "cobra-hitting", 3));
        assert_ne!(a, stage_seed(1, "e7", "biased-hitting", 2));
    }

    #[test]
    fn stage_sequence_matches_stage_seed() {
        let seq = stage_sequence(9, "e9", "hmax", 1);
        assert_eq!(seq.seed_at(0), stage_seed(9, "e9", "hmax", 1));
    }

    #[test]
    #[should_panic(expected = "unregistered stage")]
    fn unregistered_stage_panics() {
        stage_seed(0, "e99", "nope", 0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn oversized_arm_panics() {
        stage_seed(0, "e3", "cover-cells", WIDTH);
    }
}
