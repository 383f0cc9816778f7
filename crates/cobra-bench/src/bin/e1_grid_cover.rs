//! **E1 — Lemma 2 / Theorem 3:** the 2-cobra walk covers `[0,n]^d` in
//! O(n) steps (constants depending on d), versus Θ̃(n²) for the simple
//! random walk on `d ∈ {1, 2}`.
//!
//! Sweep the side extent `n` for `d ∈ {1, 2, 3}`, fit the growth exponent
//! of the mean cover time in `n`, and verify:
//!
//! * cobra exponent ≈ 1 (pass: < 1.30 with good R²);
//! * simple-walk exponent ≈ 2 (pass: > 1.70), so the separation is real;
//! * p95 tracks the mean (the paper's bounds are w.h.p.).

use cobra_bench::report::{banner, classify_and_report, emit_table, fit_and_report, verdict};
use cobra_bench::stages::stage_seed;
use cobra_bench::{ExpConfig, ExperimentSpec, Family, Orchestrator};
use cobra_core::{CobraWalk, SimpleWalk, TypedProcess};
use cobra_sim::sweep::{SweepCell, SweepTable};

/// Adaptive sweep through the orchestrator: one [`SweepCell`] per scale,
/// each carrying its own `budget_for(scale)` step budget, with per-cell
/// seeds derived from the sweep master and per-cell trial counts decided
/// by the run's stopping rule.
fn sweep_cover<P: TypedProcess>(
    orch: &mut Orchestrator,
    cfg: &ExpConfig,
    family: Family,
    process: &P,
    scales: &[usize],
    budget_for: impl Fn(usize) -> usize,
    label: &str,
) -> SweepTable {
    // Lazy cell iterator: only one cell's graph is alive at a time, as in
    // the pre-sweep loop.
    let cells = scales.iter().enumerate().map(|(i, &scale)| {
        let g = family.build(scale, stage_seed(cfg.seed, "e1", "graphs", i as u64));
        let start = family.adversarial_start(&g);
        SweepCell::new(scale as f64, g, start, budget_for(scale))
    });
    orch.cover_sweep(label, "n", cells, process, cfg.seed)
        .expect("a sweep cell completed zero trials — raise the step budget")
}

fn main() {
    let cfg = ExpConfig::from_env();
    banner(
        "E1",
        "2-cobra cover time on [0,n]^d is O(n) (Theorem 3); simple RW is ~n² on d ≤ 2",
        &cfg,
    );
    let spec = ExperimentSpec::from_config(
        "e1",
        "2-cobra cover on [0,n]^d is O(n); simple RW ~n² on d ≤ 2",
        &cfg,
    );
    let mut orch = Orchestrator::for_run(spec, &cfg);

    let cobra = CobraWalk::standard();
    let rw = SimpleWalk::new();

    // --- d = 1 ---------------------------------------------------------
    let sides1 = cfg.scale(
        vec![64usize, 96, 128, 192, 256],
        vec![256, 384, 512, 768, 1024, 1536],
    );
    let t_cobra1 = sweep_cover(
        &mut orch,
        &cfg,
        Family::Grid { d: 1 },
        &cobra,
        &sides1,
        |n| 4000 + 400 * n,
        "cobra(k=2) on grid d=1",
    );
    emit_table(&cfg, &t_cobra1, "e1_cobra_d1");
    let fit_c1 = fit_and_report(&t_cobra1);
    classify_and_report(&t_cobra1);

    let rw_sides1 = cfg.scale(vec![32usize, 48, 64, 96, 128], vec![64, 96, 128, 192, 256]);
    let t_rw1 = sweep_cover(
        &mut orch,
        &cfg,
        Family::Grid { d: 1 },
        &rw,
        &rw_sides1,
        |n| 200 * n * n + 10_000,
        "simple-rw on grid d=1",
    );
    emit_table(&cfg, &t_rw1, "e1_rw_d1");
    let fit_r1 = fit_and_report(&t_rw1);

    // --- d = 2 ---------------------------------------------------------
    let sides2 = cfg.scale(vec![8usize, 12, 16, 24, 32], vec![16, 24, 32, 48, 64, 96]);
    let t_cobra2 = sweep_cover(
        &mut orch,
        &cfg,
        Family::Grid { d: 2 },
        &cobra,
        &sides2,
        |n| 4000 + 500 * n,
        "cobra(k=2) on grid d=2",
    );
    emit_table(&cfg, &t_cobra2, "e1_cobra_d2");
    let fit_c2 = fit_and_report(&t_cobra2);
    classify_and_report(&t_cobra2);

    let rw_sides2 = cfg.scale(vec![6usize, 8, 12, 16, 20], vec![8, 12, 16, 24, 32]);
    let t_rw2 = sweep_cover(
        &mut orch,
        &cfg,
        Family::Grid { d: 2 },
        &rw,
        &rw_sides2,
        |n| 2000 * n * n + 50_000,
        "simple-rw on grid d=2",
    );
    emit_table(&cfg, &t_rw2, "e1_rw_d2");
    let fit_r2 = fit_and_report(&t_rw2);

    // --- d = 3 (cobra only; RW is hopeless at useful sizes) ------------
    let sides3 = cfg.scale(vec![4usize, 5, 6, 8, 10], vec![6, 8, 10, 12, 16, 20]);
    let t_cobra3 = sweep_cover(
        &mut orch,
        &cfg,
        Family::Grid { d: 3 },
        &cobra,
        &sides3,
        |n| 4000 + 800 * n,
        "cobra(k=2) on grid d=3",
    );
    emit_table(&cfg, &t_cobra3, "e1_cobra_d3");
    let fit_c3 = fit_and_report(&t_cobra3);
    classify_and_report(&t_cobra3);

    // --- Verdicts ------------------------------------------------------
    println!();
    orch.finish(&cfg);
    println!();
    verdict(
        "Theorem 3 (d=1): cobra cover exponent ≈ 1",
        fit_c1.slope < 1.30 && fit_c1.r_squared > 0.9,
        &format!("exponent {:.3}, R² {:.3}", fit_c1.slope, fit_c1.r_squared),
    );
    verdict(
        "Theorem 3 (d=2): cobra cover exponent ≈ 1",
        fit_c2.slope < 1.30 && fit_c2.r_squared > 0.9,
        &format!("exponent {:.3}, R² {:.3}", fit_c2.slope, fit_c2.r_squared),
    );
    verdict(
        "Theorem 3 (d=3): cobra cover exponent ≈ 1",
        fit_c3.slope < 1.40 && fit_c3.r_squared > 0.85,
        &format!("exponent {:.3}, R² {:.3}", fit_c3.slope, fit_c3.r_squared),
    );
    verdict(
        "baseline: simple-rw on d=1 grows ~ n²",
        fit_r1.slope > 1.70,
        &format!("exponent {:.3}", fit_r1.slope),
    );
    verdict(
        "baseline: simple-rw on d=2 grows ≳ n² (·polylog)",
        fit_r2.slope > 1.70,
        &format!("exponent {:.3}", fit_r2.slope),
    );
    let sep = fit_r2.slope - fit_c2.slope;
    verdict(
        "separation: cobra beats RW by ≈ one polynomial degree on d=2",
        sep > 0.5,
        &format!("exponent gap {sep:.3}"),
    );
}
