//! **E9 — Theorem 1 (Matthews extension):** the cobra-walk cover time is
//! O(h_max · log n), where `h_max` is the maximum pairwise hitting time.
//!
//! For a spread of families we estimate `h_max` by sampling pairs,
//! measure the cover time, and check the Matthews ratio
//! `cover / (h_max·ln n)` stays bounded by a small constant across
//! families and sizes. As a cross-check, on tiny graphs we also verify
//! that the *simple-walk* h_max estimator agrees with the exact
//! linear-solve values from `cobra-spectral`.

use cobra_bench::report::{banner, verdict};
use cobra_bench::stages::stage_seed;
use cobra_bench::{ExpConfig, Family};
use cobra_core::measure::{estimate_hmax, matthews_ratio};
use cobra_core::{CobraWalk, SimpleWalk};
use cobra_sim::runner::{run_cover_trials_typed, TrialPlan};
use cobra_spectral::exact::exact_hmax;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cfg = ExpConfig::from_env();
    banner(
        "E9",
        "Theorem 1: cover time ≤ O(h_max · log n) for cobra walks",
        &cfg,
    );

    // ---- Estimator sanity: simple-walk h_max vs exact ------------------
    let tiny = Family::Cycle.build(12, 0);
    let mut rng = StdRng::seed_from_u64(stage_seed(cfg.seed, "e9", "estimator-sanity", 0));
    let est = estimate_hmax(
        &tiny,
        &SimpleWalk::new(),
        144,
        cfg.scale(100, 400),
        200_000,
        &mut rng,
    );
    let exact = exact_hmax(&tiny);
    println!("estimator sanity (C12, simple walk): estimated h_max {est:.1} vs exact {exact:.1}\n");
    verdict(
        "h_max estimator agrees with exact linear solve (within 15%)",
        (est - exact).abs() / exact < 0.15,
        &format!("{est:.1} vs {exact:.1}"),
    );
    println!();

    // ---- Matthews ratio across families ---------------------------------
    let cobra = CobraWalk::standard();
    let cases: Vec<(Family, usize)> = vec![
        (Family::Cycle, cfg.scale(64, 256)),
        (Family::Grid { d: 2 }, cfg.scale(10, 24)),
        (Family::Hypercube, cfg.scale(6, 9)),
        (Family::Complete, cfg.scale(64, 256)),
        (Family::Star, cfg.scale(64, 256)),
        (Family::Lollipop, cfg.scale(40, 96)),
        (Family::RandomRegular { d: 3 }, cfg.scale(128, 512)),
        (Family::KaryTree { k: 2 }, cfg.scale(5, 7)),
    ];
    let pairs = cfg.scale(30, 80);
    let htrials = cfg.scale(10, 30);
    let ctrials = cfg.scale(20, 50);

    println!("| family | n | h_max est | cover mean | Matthews ratio |");
    println!("|--------|---|-----------|------------|----------------|");
    let mut worst_ratio = 0.0f64;
    for (k, (fam, scale)) in cases.iter().enumerate() {
        let g = fam.build(*scale, stage_seed(cfg.seed, "e9", "graphs", k as u64));
        let n = g.num_vertices();
        let budget = 2000 * n + 500_000;
        let mut rng = StdRng::seed_from_u64(stage_seed(cfg.seed, "e9", "hmax", k as u64));
        let hmax = estimate_hmax(&g, &cobra, pairs, htrials, budget, &mut rng);
        let out = run_cover_trials_typed(
            &g,
            &cobra,
            fam.adversarial_start(&g),
            &TrialPlan::new(
                ctrials,
                budget,
                stage_seed(cfg.seed, "e9", "cover", k as u64),
            ),
        );
        assert_eq!(out.censored, 0, "{}: raise budget", fam.name());
        let ratio = matthews_ratio(out.summary.mean(), hmax, n);
        worst_ratio = worst_ratio.max(ratio);
        println!(
            "| {} | {n} | {hmax:.1} | {:.1} | {ratio:.3} |",
            fam.name(),
            out.summary.mean()
        );
    }
    println!();
    // The constant in Theorem 1 is modest; empirically the ratio should
    // stay well below ~2 (sampled h_max underestimates the true max a
    // little, which inflates the ratio slightly).
    verdict(
        "Theorem 1: Matthews ratio cover/(h_max·ln n) bounded across families",
        worst_ratio < 2.5,
        &format!("worst ratio {worst_ratio:.3}"),
    );
}
