//! **E4 — Corollary 9:** on bounded-degree `d`-regular ε-expanders the
//! 2-cobra walk covers in O(log²n) rounds w.h.p.
//!
//! Random `d`-regular graphs (d ∈ {3, 4}) are expanders w.h.p. with
//! conductance bounded below by a constant, so the cover time should grow
//! like `log²n` — we sweep `n` over an order of magnitude, classify the
//! growth shape, and check the normalized ratio `cover/log²n` is flat.
//! The contrast series (simple random walk, Θ(n log n) on expanders)
//! shows the separation.

use cobra_analysis::compare::{is_bounded_by, ratio_flatness};
use cobra_analysis::growth::{classify_growth, GrowthShape};
use cobra_bench::report::{banner, emit_table, verdict};
use cobra_bench::stages::stage_seed;
use cobra_bench::{ExpConfig, ExperimentSpec, Family, Orchestrator};
use cobra_core::{CobraWalk, SimpleWalk};
use cobra_sim::sweep::SweepCell;

fn main() {
    let cfg = ExpConfig::from_env();
    banner(
        "E4",
        "Corollary 9: 2-cobra covers d-regular expanders in O(log²n)",
        &cfg,
    );

    let spec = ExperimentSpec::from_config(
        "e4",
        "Corollary 9: 2-cobra covers d-regular expanders in O(log\u{b2}n)",
        &cfg,
    );
    let mut orch = Orchestrator::for_run(spec, &cfg);

    let cobra = CobraWalk::standard();
    let ns = cfg.scale(
        vec![128usize, 256, 512, 1024, 2048],
        vec![256, 512, 1024, 2048, 4096, 8192, 16384],
    );

    let mut all_pass = true;
    for d in [3usize, 4] {
        let fam = Family::RandomRegular { d };
        // Typed scratch-engine sweep: one cell per n, each with its own
        // `O(log²n)` budget, exactly as the pre-sweep loop sized them.
        // Lazy iterator so only one cell's graph is alive at a time.
        let cells = ns.iter().enumerate().map(|(i, &n)| {
            let g = fam.build(
                n,
                stage_seed(cfg.seed, "e4", "graphs", (d as u64) * 100 + i as u64),
            );
            let logn = (g.num_vertices() as f64).ln();
            let budget = (300.0 * logn * logn) as usize + 5_000;
            SweepCell::new(g.num_vertices() as f64, g, 0u32, budget)
        });
        let mut table = orch
            .cover_sweep(
                format!("cobra(k=2) on {}", fam.name()),
                "n",
                cells,
                &cobra,
                stage_seed(cfg.seed, "e4", "rr-sweep", d as u64),
            )
            .expect("an expander sweep cell completed zero trials — raise the budget");
        for row in &mut table.rows {
            let logn = row.scale.ln();
            row.context.push(("log2n".to_string(), logn * logn));
        }
        emit_table(&cfg, &table, &format!("e4_cobra_d{d}"));

        let xs = table.scales();
        let ys = table.means();
        let (shape, slope) = classify_growth(&xs, &ys);
        println!(
            "growth classification (d={d}): {} (residual slope {slope:+.3})",
            shape.name()
        );
        let log2: Vec<f64> = xs.iter().map(|&x| x.ln() * x.ln()).collect();
        let report = ratio_flatness(&xs, &ys, &log2);
        let pass = matches!(shape, GrowthShape::Log | GrowthShape::LogSquared)
            && is_bounded_by(&report, 0.10);
        all_pass &= pass;
        verdict(
            &format!("Corollary 9 (d={d}): cover ≈ O(log²n)"),
            pass,
            &format!(
                "shape {}, cover/log²n log-slope {:+.3}",
                shape.name(),
                report.log_slope
            ),
        );
        println!();
    }

    // Contrast: simple walk on the d=3 expander is Θ(n log n).
    let fam = Family::RandomRegular { d: 3 };
    let rw_ns = cfg.scale(
        vec![64usize, 128, 256, 512],
        vec![128, 256, 512, 1024, 2048],
    );
    let rw_cells = rw_ns.iter().enumerate().map(|(i, &n)| {
        let g = fam.build(n, stage_seed(cfg.seed, "e4", "rw-graphs", i as u64));
        let nn = g.num_vertices() as f64;
        let budget = (200.0 * nn * nn.ln()) as usize + 10_000;
        SweepCell::new(nn, g, 0u32, budget)
    });
    let rw_table = orch
        .cover_sweep(
            "simple-rw on random-regular(d=3)",
            "n",
            rw_cells,
            &SimpleWalk::new(),
            stage_seed(cfg.seed, "e4", "rw-contrast", 0),
        )
        .expect("a contrast sweep cell completed zero trials — raise the budget");
    emit_table(&cfg, &rw_table, "e4_rw_d3");
    let (rw_shape, _) = classify_growth(&rw_table.scales(), &rw_table.means());
    println!("simple-rw growth classification: {}", rw_shape.name());
    verdict(
        "contrast: simple-rw on expanders is ~ n log n (≫ log²n)",
        matches!(rw_shape, GrowthShape::Linear | GrowthShape::NLogN),
        &format!("shape {}", rw_shape.name()),
    );
    verdict("Corollary 9 overall", all_pass, "all degrees polylog");
    println!();
    orch.finish(&cfg);
}
