//! Integration tests for the paper's two coupling/dominance results:
//! Lemma 10 (Walt ⪰ cobra on cover time) and Lemma 14 (cobra hitting ≤
//! inverse-degree-biased hitting), at test-suite scale.
//!
//! The `#[ignore]`-gated cases rerun the dominance checks at paper-scale
//! trial counts, where quantile-wise ordering must hold with essentially
//! no statistical slack. Run them with `cargo test -- --ignored`.

use cobra_repro::graph::generators::{classic, hypercube, random_regular};
use cobra_repro::sim::runner::{run_cover_trials_typed, run_hitting_trials_typed, TrialPlan};
use cobra_repro::walks::{BiasedWalk, CobraWalk, WaltProcess};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn walt_cover_dominates_cobra_on_hypercube() {
    let g = hypercube::hypercube(5);
    let trials = 300;
    let cobra = run_cover_trials_typed(
        &g,
        &CobraWalk::standard(),
        0,
        &TrialPlan::new(trials, 1_000_000, 1),
    );
    let walt = run_cover_trials_typed(
        &g,
        &WaltProcess::standard(0.5),
        0,
        &TrialPlan::new(trials, 1_000_000, 2),
    );
    // Mean ordering with generous statistical room: Walt is lazy, so it
    // should actually be ≥ 1.5× slower here.
    assert!(
        walt.summary.mean() > cobra.summary.mean(),
        "walt {} vs cobra {}",
        walt.summary.mean(),
        cobra.summary.mean()
    );
    // Quantile-wise (stochastic) ordering at the quartiles.
    for q in [0.25, 0.5, 0.75, 0.95] {
        assert!(
            walt.summary.quantile(q) >= cobra.summary.quantile(q),
            "q = {q}: walt {} < cobra {}",
            walt.summary.quantile(q),
            cobra.summary.quantile(q)
        );
    }
}

#[test]
fn walt_cover_dominates_cobra_on_complete_graph() {
    let g = classic::complete(32).unwrap();
    let trials = 300;
    let cobra = run_cover_trials_typed(
        &g,
        &CobraWalk::standard(),
        0,
        &TrialPlan::new(trials, 100_000, 3),
    );
    let walt = run_cover_trials_typed(
        &g,
        &WaltProcess::standard(0.5),
        0,
        &TrialPlan::new(trials, 100_000, 4),
    );
    assert!(walt.summary.mean() > cobra.summary.mean());
    assert!(walt.summary.median() >= cobra.summary.median());
}

#[test]
fn non_lazy_walt_still_dominates_cobra() {
    // Laziness accounts for a 2x factor, but the dominance (Lemma 10) is
    // about the branching deficit; it must hold for eager Walt too.
    let g = hypercube::hypercube(5);
    let trials = 400;
    let cobra = run_cover_trials_typed(
        &g,
        &CobraWalk::standard(),
        0,
        &TrialPlan::new(trials, 1_000_000, 5),
    );
    let walt = run_cover_trials_typed(
        &g,
        &WaltProcess::standard(0.5).lazy(false),
        0,
        &TrialPlan::new(trials, 1_000_000, 6),
    );
    // Allow a small statistical cushion.
    assert!(
        walt.summary.mean() >= 0.95 * cobra.summary.mean(),
        "eager walt {} vs cobra {}",
        walt.summary.mean(),
        cobra.summary.mean()
    );
}

#[test]
#[ignore = "high-trial Monte-Carlo tier; run with: cargo test -- --ignored"]
fn high_trial_walt_dominates_cobra_quantilewise() {
    // Lemma 10 at paper scale: with 5k trials the quantile ordering must
    // hold at every decile, not just the quartiles.
    let g = hypercube::hypercube(5);
    let trials = 5_000;
    let cobra = run_cover_trials_typed(
        &g,
        &CobraWalk::standard(),
        0,
        &TrialPlan::new(trials, 1_000_000, 31),
    );
    let walt = run_cover_trials_typed(
        &g,
        &WaltProcess::standard(0.5),
        0,
        &TrialPlan::new(trials, 1_000_000, 32),
    );
    assert!(walt.summary.mean() > 1.5 * cobra.summary.mean());
    for i in 1..10 {
        let q = i as f64 / 10.0;
        assert!(
            walt.summary.quantile(q) >= cobra.summary.quantile(q),
            "q = {q}: walt {} < cobra {}",
            walt.summary.quantile(q),
            cobra.summary.quantile(q)
        );
    }
}

#[test]
#[ignore = "high-trial Monte-Carlo tier; run with: cargo test -- --ignored"]
fn high_trial_cobra_hitting_dominated_on_expander() {
    // Lemma 14 at paper scale: 3k trials leave only a 1-stderr cushion.
    let mut rng = StdRng::seed_from_u64(33);
    let g = random_regular::random_regular(128, 3, &mut rng).unwrap();
    let target = 100u32;
    let trials = 3_000;
    let cobra = run_hitting_trials_typed(
        &g,
        &CobraWalk::standard(),
        0,
        target,
        &TrialPlan::new(trials, 1_000_000, 34),
    );
    let biased = BiasedWalk::inverse_degree_toward(&g, target);
    let b = run_hitting_trials_typed(
        &g,
        &biased,
        0,
        target,
        &TrialPlan::new(trials, 1_000_000, 35),
    );
    let slack = cobra.summary.stderr() + b.summary.stderr();
    assert!(
        cobra.summary.mean() <= b.summary.mean() + slack,
        "cobra {} > biased {} + slack {slack}",
        cobra.summary.mean(),
        b.summary.mean()
    );
}

#[test]
fn cobra_hitting_dominated_by_biased_walk_on_cycle() {
    // Lemma 14: H_cobra(u, v) ≤ H*(u, v).
    let n = 48;
    let g = classic::cycle(n).unwrap();
    let target = (n / 2) as u32;
    let trials = 300;
    let cobra = run_hitting_trials_typed(
        &g,
        &CobraWalk::standard(),
        0,
        target,
        &TrialPlan::new(trials, 1_000_000, 7),
    );
    let biased = BiasedWalk::inverse_degree_toward(&g, target);
    let b = run_hitting_trials_typed(
        &g,
        &biased,
        0,
        target,
        &TrialPlan::new(trials, 1_000_000, 8),
    );
    let slack = 2.0 * (cobra.summary.stderr() + b.summary.stderr());
    assert!(
        cobra.summary.mean() <= b.summary.mean() + slack,
        "cobra {} > biased {} + slack {slack}",
        cobra.summary.mean(),
        b.summary.mean()
    );
}

#[test]
fn cobra_hitting_dominated_by_biased_walk_on_expander() {
    let mut rng = StdRng::seed_from_u64(9);
    let g = random_regular::random_regular(128, 3, &mut rng).unwrap();
    let target = 100u32;
    let trials = 300;
    let cobra = run_hitting_trials_typed(
        &g,
        &CobraWalk::standard(),
        0,
        target,
        &TrialPlan::new(trials, 1_000_000, 10),
    );
    let biased = BiasedWalk::inverse_degree_toward(&g, target);
    let b = run_hitting_trials_typed(
        &g,
        &biased,
        0,
        target,
        &TrialPlan::new(trials, 1_000_000, 11),
    );
    let slack = 2.0 * (cobra.summary.stderr() + b.summary.stderr());
    assert!(
        cobra.summary.mean() <= b.summary.mean() + slack,
        "cobra {} > biased {} + slack {slack}",
        cobra.summary.mean(),
        b.summary.mean()
    );
}
