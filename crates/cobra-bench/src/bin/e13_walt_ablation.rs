//! **E13 — ablation of Walt's design choices (§4):**
//!
//! * **laziness** — the paper makes Walt lazy "for technical reasons"
//!   (the directed Cheeger machinery needs it). Dynamically the lazy coin
//!   should cost almost exactly 2× in cover time and nothing else;
//! * **three-pebble threshold** — the herd rule only activates at 3+
//!   co-located pebbles. Lowering it to 2 couples pairs too and should
//!   slow coverage (it weakens scattering) but not break it;
//! * **pebble budget δ** — the analysis wants δn pebbles; fewer pebbles
//!   degrade gracefully toward multi-walk behavior.

use cobra_bench::report::{banner, verdict};
use cobra_bench::stages::stage_seed;
use cobra_bench::{ExpConfig, Family};
use cobra_core::WaltProcess;
use cobra_sim::runner::{run_cover_trials_typed, TrialPlan};

fn main() {
    let cfg = ExpConfig::from_env();
    banner(
        "E13",
        "ablation: Walt laziness, coalescence threshold, and pebble fraction δ",
        &cfg,
    );

    let trials = cfg.scale(40, 150);
    let cases: Vec<(Family, usize)> = vec![
        (Family::Hypercube, cfg.scale(7, 10)),
        (Family::RandomRegular { d: 4 }, cfg.scale(256, 1024)),
    ];

    let mut lazy_ratio_ok = true;
    let mut threshold_ok = true;
    let mut delta_monotone_ok = true;

    for (c, (fam, scale)) in cases.iter().enumerate() {
        let g = fam.build(*scale, stage_seed(cfg.seed, "e13", "graphs", c as u64));
        let n = g.num_vertices();
        let budget = 3000 * ((n as f64).ln() as usize + 1) * 10 + 200_000;
        println!("### {} (n = {n})\n", fam.name());

        let measure = |proc_: &WaltProcess, tag: u64| -> f64 {
            let out = run_cover_trials_typed(
                &g,
                proc_,
                0,
                &TrialPlan::new(trials, budget, stage_seed(cfg.seed, "e13", "ablation", tag)),
            );
            assert_eq!(out.censored, 0, "raise budget");
            out.summary.mean()
        };

        // Laziness.
        let lazy = measure(&WaltProcess::standard(0.5), (c * 100) as u64);
        let eager = measure(
            &WaltProcess::standard(0.5).lazy(false),
            (c * 100 + 1) as u64,
        );
        let ratio = lazy / eager;
        println!("laziness: lazy {lazy:.1} vs eager {eager:.1} → ratio {ratio:.2} (expect ≈ 2)");
        lazy_ratio_ok &= (1.6..=2.4).contains(&ratio);

        // Threshold 3 (paper) vs 2.
        let thr3 = measure(
            &WaltProcess::standard(0.5).lazy(false),
            (c * 100 + 2) as u64,
        );
        let thr2 = measure(
            &WaltProcess::standard(0.5).lazy(false).threshold(2),
            (c * 100 + 3) as u64,
        );
        println!("threshold: thr=3 {thr3:.1} vs thr=2 {thr2:.1} (herding pairs should not help)");
        threshold_ok &= thr2 >= thr3 * 0.9;

        // Pebble fraction sweep.
        print!("δ sweep:");
        let mut prev = f64::INFINITY;
        let mut monotone = true;
        for (j, delta) in [0.05f64, 0.125, 0.25, 0.5].iter().enumerate() {
            let t = measure(
                &WaltProcess::standard(*delta).lazy(false),
                (c * 100 + 10 + j) as u64,
            );
            print!("  δ={delta}: {t:.1}");
            // Allow 10% noise in the monotonicity check.
            if t > prev * 1.10 {
                monotone = false;
            }
            prev = t;
        }
        println!("\n");
        delta_monotone_ok &= monotone;
    }

    verdict(
        "laziness costs ≈ 2× and nothing else",
        lazy_ratio_ok,
        "lazy/eager cover ratio within [1.6, 2.4]",
    );
    verdict(
        "three-pebble threshold: herding pairs (thr=2) never speeds coverage",
        threshold_ok,
        "thr=2 ≥ 0.9 × thr=3",
    );
    verdict(
        "more pebbles help monotonically (δ sweep)",
        delta_monotone_ok,
        "cover time non-increasing in δ up to 10% noise",
    );
}
