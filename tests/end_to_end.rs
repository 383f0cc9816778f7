//! Cross-crate integration: Monte-Carlo walk measurements validated
//! against the exact linear-algebra ground truth from `cobra-spectral`.
//!
//! Two tiers:
//!
//! * default — trial counts sized so the whole file runs in seconds and
//!   the suite stays within the tier-1 time budget;
//! * `#[ignore]`-gated — paper-scale trial counts with tolerances tight
//!   enough to catch subtle RNG/dynamics bias. Run them with
//!   `cargo test -- --ignored` (or `--include-ignored` for both tiers).

use cobra_repro::graph::generators::classic;
use cobra_repro::sim::runner::{run_cover_trials_typed, run_hitting_trials_typed, TrialPlan};
use cobra_repro::spectral::exact::{exact_hitting_times, exact_return_time};
use cobra_repro::spectral::walk_matrix::{delta, evolve, transition_matrix, tv_distance};
use cobra_repro::walks::{CobraWalk, SimpleWalk};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn plan(trials: usize, steps: usize, seed: u64) -> TrialPlan {
    TrialPlan::new(trials, steps, seed)
}

#[test]
fn simulated_hitting_matches_exact_on_cycle() {
    let n = 16;
    let g = classic::cycle(n).unwrap();
    let exact = exact_hitting_times(&g, 0);
    // Antipodal start: H(n/2, 0) = (n/2)·(n − n/2) = 64.
    let out = run_hitting_trials_typed(
        &g,
        &SimpleWalk::new(),
        (n / 2) as u32,
        0,
        &plan(4000, 1_000_000, 1),
    );
    assert_eq!(out.censored, 0);
    let measured = out.summary.mean();
    let truth = exact[n / 2];
    assert!(
        (measured - truth).abs() < 0.05 * truth,
        "measured {measured} vs exact {truth}"
    );
}

#[test]
fn simulated_hitting_matches_exact_on_lollipop() {
    // Irregular graph: exercises degree-weighted dynamics end to end.
    let g = classic::lollipop(14).unwrap();
    let target = (g.num_vertices() - 1) as u32; // path tip
    let exact = exact_hitting_times(&g, target);
    let start = 1u32; // clique interior
    let out = run_hitting_trials_typed(
        &g,
        &SimpleWalk::new(),
        start,
        target,
        &plan(3000, 10_000_000, 2),
    );
    assert_eq!(out.censored, 0);
    let measured = out.summary.mean();
    let truth = exact[start as usize];
    assert!(
        (measured - truth).abs() < 0.08 * truth,
        "measured {measured} vs exact {truth}"
    );
}

#[test]
fn return_time_kac_formula_via_simulation() {
    let g = classic::star(9).unwrap();
    // Return time to a leaf = 2m/d(leaf) = 16.
    let truth = exact_return_time(&g, 1);
    // Simulate: hitting time back to 1 after one forced step equals
    // H(hub, leaf) + 1; from a leaf the walk must go to the hub, so
    // return = 1 + H(hub, leaf).
    let h = exact_hitting_times(&g, 1);
    assert!((1.0 + h[0] - truth).abs() < 1e-9);
    let out = run_hitting_trials_typed(&g, &SimpleWalk::new(), 0, 1, &plan(4000, 1_000_000, 3));
    let measured = 1.0 + out.summary.mean();
    assert!(
        (measured - truth).abs() < 0.06 * truth,
        "measured return {measured} vs Kac {truth}"
    );
}

#[test]
fn empirical_distribution_matches_exact_evolution() {
    // Simulate many independent simple walks for t steps; the empirical
    // occupancy distribution must match P^t evolution.
    let g = classic::lollipop(10).unwrap();
    let n = g.num_vertices();
    let t = 6usize;
    let trials = 60_000usize;
    let p = transition_matrix(&g);
    let exact_dist = evolve(&p, &delta(n, 0), t);

    let mut rng = StdRng::seed_from_u64(11);
    let mut counts = vec![0u64; n];
    let spec = SimpleWalk::new();
    use cobra_repro::walks::{StateView, TypedProcess, TypedState};
    for _ in 0..trials {
        let mut st = spec.spawn_typed(&g, 0);
        for _ in 0..t {
            st.step(&g, &mut rng);
        }
        st.active().for_each(|v| counts[v as usize] += 1);
    }
    let empirical: Vec<f64> = counts.iter().map(|&c| c as f64 / trials as f64).collect();
    let tv = tv_distance(&empirical, &exact_dist);
    assert!(tv < 0.01, "TV between simulation and exact evolution: {tv}");
}

#[test]
fn cobra_cover_on_complete_graph_is_logarithmic() {
    // On K_n the 2-cobra active set roughly doubles until saturation,
    // then coupon-collects; cover should be Θ(log n) and far below n.
    let g = classic::complete(256).unwrap();
    let out = run_cover_trials_typed(&g, &CobraWalk::standard(), 0, &plan(60, 100_000, 4));
    assert_eq!(out.censored, 0);
    let mean = out.summary.mean();
    assert!(
        mean >= 8.0,
        "cannot double 1 → 256 in < 8 rounds, got {mean}"
    );
    assert!(mean <= 60.0, "cover {mean} far above Θ(log n) expectation");
}

#[test]
#[ignore = "high-trial Monte-Carlo tier; run with: cargo test -- --ignored"]
fn high_trial_hitting_matches_exact_on_cycle_tightly() {
    // Paper-scale statistics: 40k trials shrink the standard error enough
    // to hold a 1.5% tolerance against the exact value H(8, 0) = 64.
    let n = 16;
    let g = classic::cycle(n).unwrap();
    let exact = exact_hitting_times(&g, 0);
    let out = run_hitting_trials_typed(
        &g,
        &SimpleWalk::new(),
        (n / 2) as u32,
        0,
        &plan(40_000, 1_000_000, 21),
    );
    assert_eq!(out.censored, 0);
    let measured = out.summary.mean();
    let truth = exact[n / 2];
    assert!(
        (measured - truth).abs() < 0.015 * truth,
        "measured {measured} vs exact {truth}"
    );
}

#[test]
#[ignore = "high-trial Monte-Carlo tier; run with: cargo test -- --ignored"]
fn high_trial_lollipop_hitting_tightly() {
    let g = classic::lollipop(14).unwrap();
    let target = (g.num_vertices() - 1) as u32;
    let exact = exact_hitting_times(&g, target);
    let start = 1u32;
    let out = run_hitting_trials_typed(
        &g,
        &SimpleWalk::new(),
        start,
        target,
        &plan(30_000, 10_000_000, 22),
    );
    assert_eq!(out.censored, 0);
    let measured = out.summary.mean();
    let truth = exact[start as usize];
    assert!(
        (measured - truth).abs() < 0.03 * truth,
        "measured {measured} vs exact {truth}"
    );
}

#[test]
fn cover_time_exceeds_hitting_time() {
    let g = classic::cycle(32).unwrap();
    let cover = run_cover_trials_typed(&g, &CobraWalk::standard(), 0, &plan(60, 1_000_000, 5));
    let hit = run_hitting_trials_typed(&g, &CobraWalk::standard(), 0, 16, &plan(60, 1_000_000, 5));
    assert!(
        cover.summary.mean() >= hit.summary.mean(),
        "cover {} < hitting {}",
        cover.summary.mean(),
        hit.summary.mean()
    );
}
