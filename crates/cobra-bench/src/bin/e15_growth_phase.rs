//! **E15 — the §4 two-phase picture:** on expanders the cobra walk's
//! active set first grows exponentially (until Θ(n) vertices are active)
//! and then finishes coverage; the prior work analyzed exactly this
//! split, and the paper's Walt machinery exists to *bypass* the growth
//! phase's high-expansion requirement.
//!
//! Measured here:
//!
//! * per-round growth rates of `|S_t|` during the growth phase on random
//!   regular graphs — expect a stable rate strictly between 1 and 2
//!   (2 minus collision losses);
//! * growth-phase length vs `log n` — expect linear in `log n`;
//! * the contrast case: on the cycle (no expansion) the active set grows
//!   only polynomially (the interval's boundary is 2 vertices).

use cobra_analysis::fit::linear_fit;
use cobra_bench::report::{banner, verdict};
use cobra_bench::stages::{stage_seed, stage_sequence};
use cobra_bench::{ExpConfig, Family};
use cobra_core::{record_trajectory, CobraWalk};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cfg = ExpConfig::from_env_without_cells();
    banner(
        "E15",
        "§4 growth phase: exponential active-set growth on expanders, polynomial on the cycle",
        &cfg,
    );

    let cobra = CobraWalk::standard();
    let trials = cfg.scale(20, 60);

    // ---- growth rate and phase length on expanders ----------------------
    let ns = cfg.scale(
        vec![256usize, 512, 1024, 2048],
        vec![512, 1024, 2048, 4096, 8192, 16384],
    );
    println!("random 4-regular graphs — growth to n/4 active:\n");
    println!("| n | ln n | mean growth rate | rounds to n/4 active | rounds / ln n |");
    println!("|---|------|------------------|----------------------|---------------|");
    let mut lens = Vec::new();
    let mut logns = Vec::new();
    let mut rates_all = Vec::new();
    for (i, &n) in ns.iter().enumerate() {
        let fam = Family::RandomRegular { d: 4 };
        let g = fam.build(n, stage_seed(cfg.seed, "e15", "graphs", i as u64));
        let child = stage_sequence(cfg.seed, "e15", "growth", i as u64);
        let mut phase_sum = 0usize;
        let mut rate_sum = 0.0;
        let mut rate_count = 0usize;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(child.seed_at(t as u64));
            let tr = record_trajectory(&g, &cobra, 0, 100_000, &mut rng);
            let phase = tr
                .rounds_to_active_fraction(g.num_vertices(), 0.25)
                .expect("expander reaches n/4 active");
            phase_sum += phase;
            for r in tr.growth_rates() {
                rate_sum += r;
                rate_count += 1;
            }
        }
        let mean_phase = phase_sum as f64 / trials as f64;
        let mean_rate = rate_sum / rate_count as f64;
        let logn = (g.num_vertices() as f64).ln();
        println!(
            "| {n} | {logn:.2} | {mean_rate:.3} | {mean_phase:.1} | {:.2} |",
            mean_phase / logn
        );
        lens.push(mean_phase);
        logns.push(logn);
        rates_all.push(mean_rate);
    }
    println!();
    let fit = linear_fit(&logns, &lens);
    println!(
        "growth-phase length vs ln n: slope {:.2}, intercept {:.2}, R² {:.4}",
        fit.slope, fit.intercept, fit.r_squared
    );
    let rate_lo = rates_all.iter().cloned().fold(f64::MAX, f64::min);
    let rate_hi = rates_all.iter().cloned().fold(f64::MIN, f64::max);

    verdict(
        "growth rates are stable in (1, 2): exponential phase with collision losses",
        rate_lo > 1.2 && rate_hi < 2.0,
        &format!("per-n mean rates in [{rate_lo:.3}, {rate_hi:.3}]"),
    );
    verdict(
        "growth-phase length is Θ(log n)",
        fit.r_squared > 0.95 && fit.slope > 0.0,
        &format!("linear-in-ln-n fit R² {:.3}", fit.r_squared),
    );
    println!();

    // ---- contrast: on the cycle growth is LINEAR, not exponential -------
    // (Reproduction note: the active set on the cycle does eventually
    // reach constant density — the dynamics behind the covered frontier
    // behave like a supercritical discrete contact process — but getting
    // to n/4 active takes Θ(n) rounds, because the covered interval can
    // only expand at its two boundaries. On expanders the same milestone
    // takes Θ(log n).)
    println!("cycle contrast — rounds for the active set to reach n/4:\n");
    println!("| n | rounds to n/4 active | rounds / n | rounds / ln n |");
    println!("|---|----------------------|------------|----------------|");
    let mut cycle_rounds = Vec::new();
    let cycle_ns = cfg.scale(vec![256usize, 512, 1024], vec![512, 1024, 2048, 4096]);
    for (i, &n_cycle) in cycle_ns.iter().enumerate() {
        let g = Family::Cycle.build(n_cycle, 0);
        let child = stage_sequence(cfg.seed, "e15", "cycle-refresh", i as u64);
        let mut total = 0usize;
        let ctrials = cfg.scale(10usize, 30);
        for t in 0..ctrials {
            let mut rng = StdRng::seed_from_u64(child.seed_at(t as u64));
            let tr = record_trajectory(&g, &cobra, 0, 100_000_000, &mut rng);
            total += tr
                .rounds_to_active_fraction(n_cycle, 0.25)
                .expect("density eventually reaches n/4 on the cycle");
        }
        let mean = total as f64 / ctrials as f64;
        println!(
            "| {n_cycle} | {mean:.0} | {:.3} | {:.1} |",
            mean / n_cycle as f64,
            mean / (n_cycle as f64).ln()
        );
        cycle_rounds.push(mean);
    }
    println!();
    // Linear scaling: doubling n should roughly double the rounds.
    let ratio = cycle_rounds[cycle_rounds.len() - 1] / cycle_rounds[cycle_rounds.len() - 2];
    verdict(
        "cycle contrast: reaching n/4 active takes Θ(n) rounds (vs Θ(log n) on expanders)",
        (1.6..=2.4).contains(&ratio),
        &format!("rounds ratio at doubled n = {ratio:.2}"),
    );
}
