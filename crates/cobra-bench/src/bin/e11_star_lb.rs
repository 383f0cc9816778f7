//! **E11 — §6 conclusion:** the star graph shows the worst-case cobra
//! cover time is Ω(n log n); the paper conjectures O(n log n) is also the
//! general upper bound (matching push gossip's universal O(n log n)).
//!
//! On stars of growing size we measure:
//!
//! * the 2-cobra cover time — expect Θ(n log n): from the hub the two
//!   pebbles hit ≤ 2 fresh leaves per 2 rounds, coupon-collector style;
//! * push gossip — also Θ(n log n) on the star (hub informs one random
//!   leaf per round);
//! * the coupon-collector prediction `n·H_n ≈ n ln n` as the reference
//!   curve both should track within constants.

use cobra_analysis::compare::ratio_flatness;
use cobra_analysis::growth::{classify_growth, GrowthShape};
use cobra_bench::report::{banner, emit_table, verdict};
use cobra_bench::stages::stage_seed;
use cobra_bench::{ExpConfig, Family};
use cobra_core::{CobraWalk, PushGossip};
use cobra_sim::runner::{run_cover_trials_typed, TrialPlan};
use cobra_sim::sweep::{SweepRow, SweepTable};

fn main() {
    let cfg = ExpConfig::from_env_without_cells();
    banner(
        "E11",
        "§6: star graph gives Ω(n log n) for cobra walks; push gossip comparison",
        &cfg,
    );

    let fam = Family::Star;
    let ns = cfg.scale(
        vec![64usize, 128, 256, 512, 1024],
        vec![128, 256, 512, 1024, 2048, 4096, 8192],
    );
    let trials = cfg.scale(20, 60);
    let cobra = CobraWalk::standard();
    let push = PushGossip;

    let mut t_cobra = SweepTable::new("cobra(k=2) cover on star", "n");
    let mut t_push = SweepTable::new("push gossip on star", "n");
    for (i, &n) in ns.iter().enumerate() {
        let g = fam.build(n, 0);
        let nf = n as f64;
        let budget = (20.0 * nf * nf.ln()) as usize + 50_000;
        let out_c = run_cover_trials_typed(
            &g,
            &cobra,
            0,
            &TrialPlan::new(
                trials,
                budget,
                stage_seed(cfg.seed, "e11", "cobra", i as u64),
            ),
        );
        t_cobra.push(
            SweepRow::from_summary(nf, &out_c.summary, out_c.censored)
                .with_context("n_ln_n", nf * nf.ln()),
        );
        let out_p = run_cover_trials_typed(
            &g,
            &push,
            0,
            &TrialPlan::new(
                trials,
                budget,
                stage_seed(cfg.seed, "e11", "push", i as u64),
            ),
        );
        t_push.push(
            SweepRow::from_summary(nf, &out_p.summary, out_p.censored)
                .with_context("n_ln_n", nf * nf.ln()),
        );
    }
    emit_table(&cfg, &t_cobra, "e11_cobra");
    emit_table(&cfg, &t_push, "e11_push");

    let (shape_c, slope_c) = classify_growth(&t_cobra.scales(), &t_cobra.means());
    let (shape_p, _) = classify_growth(&t_push.scales(), &t_push.means());
    println!(
        "cobra growth shape on star: {} (residual {slope_c:+.3})",
        shape_c.name()
    );
    println!("push gossip growth shape on star: {}", shape_p.name());

    let nlogn: Vec<f64> = t_cobra.scales().iter().map(|&n| n * n.ln()).collect();
    let rep_c = ratio_flatness(&t_cobra.scales(), &t_cobra.means(), &nlogn);
    let rep_p = ratio_flatness(&t_push.scales(), &t_push.means(), &nlogn);
    println!(
        "cobra cover / (n ln n): log-slope {:+.3}, spread {:.2}×",
        rep_c.log_slope, rep_c.spread
    );
    println!(
        "push cover / (n ln n): log-slope {:+.3}, spread {:.2}×\n",
        rep_p.log_slope, rep_p.spread
    );

    verdict(
        "Ω(n log n) star lower bound: cobra cover grows ≳ n log n",
        matches!(shape_c, GrowthShape::NLogN | GrowthShape::Linear) && rep_c.log_slope > -0.10,
        &format!(
            "shape {}, ratio slope {:+.3}",
            shape_c.name(),
            rep_c.log_slope
        ),
    );
    verdict(
        "…and ≲ n log n (the conjectured general upper bound holds here)",
        rep_c.log_slope < 0.10,
        &format!("ratio slope {:+.3}", rep_c.log_slope),
    );
    verdict(
        "push gossip is Θ(n log n) on the star too",
        rep_p.log_slope.abs() < 0.10,
        &format!("ratio slope {:+.3}", rep_p.log_slope),
    );
    // Constant-factor comparison at the largest size.
    let last = t_cobra.rows.len() - 1;
    let c_over_p = t_cobra.rows[last].mean / t_push.rows[last].mean;
    verdict(
        "cobra and push differ only by a constant factor on the star",
        (0.2..5.0).contains(&c_over_p),
        &format!(
            "cobra/push = {c_over_p:.2} at n = {}",
            t_cobra.rows[last].scale
        ),
    );
}
