//! **E5 — Lemma 10:** the cover time of the Walt process stochastically
//! dominates the cover time of the cobra walk started from the same
//! vertex (Walt is the analyzable pessimistic stand-in: any upper bound
//! proved for Walt transfers to the cobra walk).
//!
//! For several graph families we sample both cover-time distributions
//! from the same start and check first-order stochastic dominance of the
//! empirical CDFs: `F_walt(t) ≤ F_cobra(t) + ε_stat` for all `t` (Walt is
//! slower at every quantile), plus the implied mean/median orderings.

use cobra_bench::report::{banner, verdict};
use cobra_bench::stages::stage_seed;
use cobra_bench::{ExpConfig, Family};
use cobra_core::{CobraWalk, WaltProcess};
use cobra_sim::runner::{run_cover_trials_typed, TrialPlan};

/// Maximum CDF crossing allowed by sampling noise: a two-sample DKW-style
/// band at roughly 99% confidence for `trials` samples per side.
fn noise_band(trials: usize) -> f64 {
    2.0 * (((2.0f64 / 0.01).ln()) / (2.0 * trials as f64)).sqrt()
}

/// Empirical CDF evaluated at `t` for sorted samples.
fn ecdf(sorted: &[f64], t: f64) -> f64 {
    let idx = sorted.partition_point(|&x| x <= t);
    idx as f64 / sorted.len() as f64
}

fn main() {
    let cfg = ExpConfig::from_env_without_cells();
    banner(
        "E5",
        "Lemma 10: Walt cover time stochastically dominates cobra cover time",
        &cfg,
    );

    let trials = cfg.scale(200, 1000);
    let band = noise_band(trials);
    println!("trials per process per family: {trials}; CDF noise band ±{band:.3}\n");

    let cases: Vec<(Family, usize)> = vec![
        (Family::Complete, cfg.scale(48, 128)),
        (Family::Hypercube, cfg.scale(6, 9)),
        (Family::RandomRegular { d: 4 }, cfg.scale(96, 512)),
        (Family::Torus { d: 2 }, cfg.scale(7, 15)),
    ];

    let cobra = CobraWalk::standard();
    let walt = WaltProcess::standard(0.5);

    println!("| family | n | cobra mean | walt mean | cobra p95 | walt p95 | max CDF violation |");
    println!("|--------|---|------------|-----------|-----------|----------|-------------------|");

    let mut all_pass = true;
    for (k, (fam, scale)) in cases.iter().enumerate() {
        let g = fam.build(*scale, stage_seed(cfg.seed, "e5", "graphs", k as u64));
        let n = g.num_vertices();
        let start = fam.adversarial_start(&g);
        let budget = 4000 * n + 100_000;
        let plan_c = TrialPlan::new(
            trials,
            budget,
            stage_seed(cfg.seed, "e5", "cobra", k as u64),
        );
        let plan_w = TrialPlan::new(trials, budget, stage_seed(cfg.seed, "e5", "walt", k as u64));
        let out_c = run_cover_trials_typed(&g, &cobra, start, &plan_c);
        let out_w = run_cover_trials_typed(&g, &walt, start, &plan_w);
        assert_eq!(out_c.censored, 0, "cobra runs censored; raise budget");
        assert_eq!(out_w.censored, 0, "walt runs censored; raise budget");

        // Collect sorted samples via quantiles of the summaries.
        let qs: Vec<f64> = (0..=100).map(|i| i as f64 / 100.0).collect();
        let cobra_samples: Vec<f64> = qs.iter().map(|&q| out_c.summary.quantile(q)).collect();
        let walt_samples: Vec<f64> = qs.iter().map(|&q| out_w.summary.quantile(q)).collect();

        // Dominance: at every probe t, F_walt(t) ≤ F_cobra(t) + band.
        let mut max_violation = 0.0f64;
        for &t in cobra_samples.iter().chain(&walt_samples) {
            let fw = ecdf(&walt_samples, t);
            let fc = ecdf(&cobra_samples, t);
            max_violation = max_violation.max(fw - fc);
        }
        let pass = max_violation <= band && out_w.summary.mean() >= out_c.summary.mean() * 0.95;
        all_pass &= pass;
        println!(
            "| {} | {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.3} |",
            fam.name(),
            n,
            out_c.summary.mean(),
            out_w.summary.mean(),
            out_c.summary.quantile(0.95),
            out_w.summary.quantile(0.95),
            max_violation
        );
    }
    println!();
    verdict(
        "Lemma 10: Walt ⪰ cobra (stochastic dominance of cover times)",
        all_pass,
        &format!("max CDF violation within ±{band:.3} noise band on every family"),
    );
}
