//! **E7 — Lemma 14 + Theorem 15:** on `δ`-regular graphs the 2-cobra
//! hitting time is O(n^{2−1/δ}), via domination by the best
//! inverse-degree-biased walk.
//!
//! Three checks:
//!
//! 1. **Lemma 14 dominance** — `H_cobra(u, v) ≤ H*(u, v)` where `H*` is
//!    realized by the inverse-degree-biased walk steered toward the
//!    target along shortest paths;
//! 2. **Theorem 15 shape** — the worst measured cobra hitting time on
//!    cycles (δ=2) grows like `n^{3/2}`, clearly below the simple walk's
//!    `n²`;
//! 3. **Corollary 17** — the Metropolis walk's measured return time to
//!    the target is within its proved bound
//!    `(d(v) + Σ σ̂·d)/d(v)`.

use cobra_analysis::fit::power_law_fit;
use cobra_bench::report::{banner, emit_table, verdict};
use cobra_bench::stages::{stage_seed, stage_sequence};
use cobra_bench::{ExpConfig, ExperimentSpec, Family, Orchestrator};
use cobra_core::biased::{return_time_bound, MetropolisWalk};
use cobra_core::{BiasedWalk, CobraWalk, SimpleWalk, StateView, TypedProcess, TypedState};
use cobra_graph::metrics::farthest_vertex;
use cobra_sim::runner::{run_hitting_trials_typed, TrialPlan};
use cobra_sim::sweep::{SweepRow, SweepTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cfg = ExpConfig::from_env();
    banner(
        "E7",
        "Lemma 14 dominance + Theorem 15 O(n^{2−1/δ}) hitting on δ-regular graphs + Corollary 17",
        &cfg,
    );

    let spec = ExperimentSpec::from_config(
        "e7",
        "Lemma 14 dominance + Theorem 15 hitting exponents + Corollary 17",
        &cfg,
    );
    let mut orch = Orchestrator::for_run(spec, &cfg);

    // The biased-walk reference keeps a fixed plan; size it to the
    // adaptive envelope's cap so its stderr stays comparable.
    let trials = cfg.scale(60, 200);
    let cobra = CobraWalk::standard();

    // ---- (1) Lemma 14: cobra ≤ inverse-degree-biased, per pair ---------
    println!("Lemma 14 — H_cobra(u,v) vs H*(u,v) (inverse-degree bias toward v):\n");
    println!("| family | n | δ | H_cobra mean | H* mean | cobra ≤ H*? |");
    println!("|--------|---|---|--------------|---------|-------------|");
    let dom_cases: Vec<(Family, usize)> = vec![
        (Family::Cycle, cfg.scale(64, 256)),
        (Family::Torus { d: 2 }, cfg.scale(9, 19)),
        (Family::RandomRegular { d: 3 }, cfg.scale(128, 512)),
    ];
    let mut dominance_ok = true;
    for (k, (fam, scale)) in dom_cases.iter().enumerate() {
        let g = fam.build(*scale, stage_seed(cfg.seed, "e7", "graphs", k as u64));
        let n = g.num_vertices();
        let delta = g.regularity().expect("regular family");
        let start = 0u32;
        let (target, _) = farthest_vertex(&g, start);
        let budget = 400 * n * n + 100_000;
        // Cobra side adaptively on the scratch engine; the biased walk on
        // a fixed plan.
        let out_c = orch.hitting_cell(
            "lemma14 cobra hitting",
            n as f64,
            &g,
            &cobra,
            start,
            target,
            budget,
            stage_seed(cfg.seed, "e7", "cobra-hitting", k as u64),
        );
        let biased = BiasedWalk::inverse_degree_toward(&g, target);
        let out_b = run_hitting_trials_typed(
            &g,
            &biased,
            start,
            target,
            &TrialPlan::new(
                trials,
                budget,
                stage_seed(cfg.seed, "e7", "biased-hitting", k as u64),
            ),
        );
        assert_eq!(out_c.censored + out_b.censored, 0, "raise hitting budget");
        // Allow 2 stderr of slack in the comparison.
        let slack = 2.0 * (out_c.summary.stderr() + out_b.summary.stderr());
        let ok = out_c.summary.mean() <= out_b.summary.mean() + slack;
        dominance_ok &= ok;
        println!(
            "| {} | {n} | {delta} | {:.1} | {:.1} | {} |",
            fam.name(),
            out_c.summary.mean(),
            out_b.summary.mean(),
            if ok { "yes" } else { "NO" }
        );
    }
    println!();
    verdict(
        "Lemma 14: cobra hitting ≤ best inverse-degree-biased hitting",
        dominance_ok,
        "2σ slack",
    );
    println!();

    // ---- (2) Theorem 15 on cycles (δ = 2): H = O(n^{3/2}) --------------
    let ns = cfg.scale(vec![32usize, 64, 128, 256], vec![64, 128, 256, 512, 1024]);
    let mut t_cobra = SweepTable::new("cobra(k=2) antipodal hitting on cycle", "n");
    let mut t_rw = SweepTable::new("simple-rw antipodal hitting on cycle", "n");
    for (i, &n) in ns.iter().enumerate() {
        let g = Family::Cycle.build(n, 0);
        let target = (n / 2) as u32;
        let budget = 100 * n * n + 50_000;
        let out_c = orch.hitting_cell(
            "thm15 cobra antipodal on cycle",
            n as f64,
            &g,
            &cobra,
            0,
            target,
            budget,
            stage_seed(cfg.seed, "e7", "cycle-cobra", i as u64),
        );
        t_cobra.push(SweepRow::from_summary(
            n as f64,
            &out_c.summary,
            out_c.censored,
        ));
        let out_r = orch.hitting_cell(
            "thm15 simple-rw antipodal on cycle",
            n as f64,
            &g,
            &SimpleWalk::new(),
            0,
            target,
            budget,
            stage_seed(cfg.seed, "e7", "cycle-rw", i as u64),
        );
        t_rw.push(SweepRow::from_summary(
            n as f64,
            &out_r.summary,
            out_r.censored,
        ));
    }
    emit_table(&cfg, &t_cobra, "e7_cobra_cycle");
    emit_table(&cfg, &t_rw, "e7_rw_cycle");
    let fit_c = power_law_fit(&t_cobra.scales(), &t_cobra.means());
    let fit_r = power_law_fit(&t_rw.scales(), &t_rw.means());
    println!(
        "cobra hitting exponent on cycle: {:.3} (Theorem 15 upper bound: 2−1/δ = 1.5)",
        fit_c.slope
    );
    println!(
        "simple-rw hitting exponent on cycle: {:.3} (classical: 2)",
        fit_r.slope
    );
    // Theorem 15 is an upper bound; the true cycle behaviour is even
    // better (the active interval's boundary drifts outward at constant
    // speed, so ≈ n¹). Pass = measured exponent within the bound and the
    // RW baseline at its classical n².
    verdict(
        "Theorem 15 (δ=2): cobra hitting exponent ≤ 2−1/δ = 1.5, below the RW's 2",
        fit_c.slope < 1.55 && fit_r.slope > 1.85,
        &format!("cobra {:.3} vs rw {:.3}", fit_c.slope, fit_r.slope),
    );
    println!();

    // ---- (3) Corollary 17: Metropolis return time within bound ---------
    println!("Corollary 17 — Metropolis walk return times:\n");
    println!("| family | n | measured return | Corollary 17 bound |");
    println!("|--------|---|-----------------|--------------------|");
    let ret_cases: Vec<(Family, usize)> = vec![
        (Family::Cycle, cfg.scale(24, 64)),
        (Family::Torus { d: 2 }, cfg.scale(5, 9)),
        (Family::Complete, cfg.scale(16, 32)),
    ];
    let mut ret_ok = true;
    let ret_trials = cfg.scale(2000, 10_000);
    for (k, (fam, scale)) in ret_cases.iter().enumerate() {
        let g = fam.build(*scale, 0);
        let n = g.num_vertices();
        let target = 0u32;
        let mw = MetropolisWalk::new(&g, target);
        let bound = return_time_bound(&g, target);
        // Measure mean return time: start at target, step once, count
        // rounds until back.
        let child = stage_sequence(cfg.seed, "e7", "return-time", k as u64);
        let mut total = 0u64;
        for t in 0..ret_trials {
            let mut rng = StdRng::seed_from_u64(child.seed_at(t as u64));
            let mut st = mw.spawn_typed(&g, target);
            let mut steps = 0u64;
            loop {
                st.step(&g, &mut rng);
                steps += 1;
                if st.occupied()[0] == target {
                    break;
                }
                if steps > 10_000_000 {
                    panic!("return walk did not return");
                }
            }
            total += steps;
        }
        let measured = total as f64 / ret_trials as f64;
        // Statistical + stationary-approximation slack: 5%.
        let ok = measured <= bound * 1.05;
        ret_ok &= ok;
        println!("| {} | {n} | {measured:.2} | {bound:.2} |", fam.name());
    }
    println!();
    verdict(
        "Corollary 17: measured Metropolis return time ≤ bound",
        ret_ok,
        "5% slack for sampling noise",
    );
    println!();
    orch.finish(&cfg);
}
