//! **E2 — Lemmas 4–6 (§3):** the per-dimension drift chain ("queueing
//! system") behind the grid proof.
//!
//! Checks three things:
//!
//! 1. **Lemma 4 one-step drift** — in the worst case (only dimension `i`
//!    nonzero), conditioned on `z_i` changing it decreases with
//!    probability exactly `1/2 + 1/(8d−4)`, and the change probability
//!    matches `(2d−1)/d²`;
//! 2. **Lemma 5 emptying time** — from `z = (n, …, n)` the chain hits
//!    all-zeros within `O(d²·n)` steps w.h.p. (we fit the growth in `n`
//!    and check linearity, and report the p95/`d²n` ratio);
//! 3. **Lemma 6 excursions** — after first hitting 0, a dimension stays
//!    below `c·ln n` for the next `Θ(n²)` steps w.h.p.

use cobra_bench::report::{banner, emit_table, fit_and_report, verdict};
use cobra_bench::stages::{stage_seed, stage_sequence};
use cobra_bench::ExpConfig;
use cobra_core::queueing::{one_step_stats, DriftChain};
use cobra_sim::stats::Summary;
use cobra_sim::sweep::{SweepRow, SweepTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cfg = ExpConfig::from_env_without_cells();
    banner(
        "E2",
        "drift/queueing chain of §3: Lemma 4 drift, Lemma 5 O(d²n) emptying, Lemma 6 excursions",
        &cfg,
    );

    // ---- Lemma 4: one-step statistics in the worst-case state ----------
    println!("Lemma 4 one-step drift (worst case: single nonzero dimension):\n");
    println!("| d | P[change] measured | (2d-1)/d² | P[dec|change] measured | 1/2+1/(8d-4) |");
    println!("|---|--------------------|-----------|------------------------|--------------|");
    let mut lemma4_ok = true;
    let trials4 = cfg.scale(100_000, 400_000);
    for d in [2usize, 3, 4, 6] {
        let mut z = vec![0u32; d];
        z[0] = 50;
        let state = DriftChain::new(z, 1000);
        let mut rng = StdRng::seed_from_u64(stage_seed(cfg.seed, "e2", "step-stats", d as u64));
        let (p_change, p_dec) = one_step_stats(&state, 0, trials4, &mut rng);
        let d_f = d as f64;
        let exp_change = (2.0 * d_f - 1.0) / (d_f * d_f);
        let exp_dec = 0.5 + 1.0 / (8.0 * d_f - 4.0);
        println!("| {d} | {p_change:.4} | {exp_change:.4} | {p_dec:.4} | {exp_dec:.4} |");
        lemma4_ok &= (p_change - exp_change).abs() < 0.01 && (p_dec - exp_dec).abs() < 0.01;
    }
    println!();
    verdict(
        "Lemma 4: one-step drift matches the closed form",
        lemma4_ok,
        "tolerance ±0.01",
    );
    println!();

    // ---- Lemma 5: emptying time is linear in n -------------------------
    let trials5 = cfg.scale(30, 100);
    let ns = cfg.scale(vec![50usize, 100, 200, 400], vec![100, 200, 400, 800, 1600]);
    let mut all_linear = true;
    for d in [2usize, 3, 4] {
        let mut table = SweepTable::new(format!("drift-chain emptying time, d={d}"), "n");
        for (i, &n) in ns.iter().enumerate() {
            let child = stage_sequence(cfg.seed, "e2", "emptying", (d * 1000 + i) as u64);
            let mut summary = Summary::new();
            let mut censored = 0usize;
            let budget = 64 * d * d * n + 100_000;
            for t in 0..trials5 {
                let mut rng = StdRng::seed_from_u64(child.seed_at(t as u64));
                let mut chain = DriftChain::uniform(d, n as u32, n as u32);
                match chain.time_to_empty(budget, &mut rng) {
                    Some(steps) => summary.push(steps as f64),
                    None => censored += 1,
                }
            }
            let row = SweepRow::from_summary(n as f64, &summary, censored)
                .with_context("p95_over_d2n", summary.quantile(0.95) / (d * d * n) as f64);
            table.push(row);
        }
        emit_table(&cfg, &table, &format!("e2_empty_d{d}"));
        let fit = fit_and_report(&table);
        all_linear &= fit.slope < 1.25 && fit.r_squared > 0.9;
        verdict(
            &format!("Lemma 5 (d={d}): emptying time grows ~ linearly in n"),
            fit.slope < 1.25 && fit.r_squared > 0.9,
            &format!("exponent {:.3}", fit.slope),
        );
        println!();
    }
    verdict(
        "Lemma 5 overall: O(d²n) emptying across d ∈ {2,3,4}",
        all_linear,
        "all fits ≈ linear",
    );
    println!();

    // ---- Lemma 6: post-zero excursions stay below c·ln n ---------------
    let d = 3usize;
    let n = cfg.scale(200usize, 1000);
    let horizon = cfg.scale(4 * n * n, 10 * n * n);
    let excursion_trials = cfg.scale(20, 60);
    let cap = 12.0 * (n as f64).ln(); // generous c_d
    let child = stage_sequence(cfg.seed, "e2", "excursion", 0);
    let mut violations = 0usize;
    let mut max_seen = 0.0f64;
    for t in 0..excursion_trials {
        let mut rng = StdRng::seed_from_u64(child.seed_at(t as u64));
        // Start at zero in dimension 0 (post-hit state), others small.
        let mut chain = DriftChain::new(vec![0, 3, 3], n as u32);
        let mut worst = 0u32;
        for _ in 0..horizon {
            chain.step(&mut rng);
            worst = worst.max(chain.distances()[0]);
        }
        max_seen = max_seen.max(worst as f64);
        if (worst as f64) > cap {
            violations += 1;
        }
    }
    println!(
        "Lemma 6 excursions: d={d}, n={n}, horizon={horizon}: max z₀ seen = {max_seen} \
         (cap 12·ln n = {cap:.1}), violations {violations}/{excursion_trials}"
    );
    verdict(
        "Lemma 6: post-zero excursions stay O(log n) over Θ(n²) steps",
        violations == 0,
        &format!("max excursion {max_seen:.0} vs cap {cap:.1}"),
    );
}
