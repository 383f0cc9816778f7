//! **E0 — harness smoke:** a seconds-scale end-to-end pass over the whole
//! pipeline (graph generation → cobra walk → parallel Monte-Carlo →
//! summary), used to validate a fresh checkout or container before the
//! real experiments burn CPU. Every claim it checks is loose on purpose.

use cobra_bench::report::{banner, verdict};
use cobra_bench::{ExpConfig, Family};
use cobra_core::{CobraWalk, SimpleWalk};
use cobra_sim::runner::{run_cover_trials_typed, TrialPlan};

fn main() {
    let cfg = ExpConfig::from_env_without_cells();
    banner(
        "E0",
        "harness smoke: generate, walk, aggregate (loose sanity bounds only)",
        &cfg,
    );

    let trials = cfg.scale(20, 100);
    let mut failures = 0u32;

    for (family, scale, budget) in [
        (Family::Hypercube, 8usize, 50_000usize),
        (Family::Grid { d: 2 }, 15, 200_000),
        (Family::RandomRegular { d: 4 }, 256, 50_000),
    ] {
        let g = family.build(scale, cfg.seed);
        let start = family.adversarial_start(&g);
        let plan = TrialPlan::new(trials, budget, cfg.seed);
        let cobra = run_cover_trials_typed(&g, &CobraWalk::standard(), start, &plan);
        let simple = run_cover_trials_typed(&g, &SimpleWalk::new(), start, &plan);
        let ok = cobra.censored == 0
            && cobra.summary.count() == trials
            && cobra.summary.mean() <= simple.summary.mean();
        if !ok {
            failures += 1;
        }
        verdict(
            &format!(
                "{}: cobra covers, and no slower than simple RW",
                family.name()
            ),
            ok,
            &format!(
                "cobra mean {:.1}, simple mean {:.1}, censored {}/{}",
                cobra.summary.mean(),
                simple.summary.mean(),
                cobra.censored,
                trials
            ),
        );
    }

    if failures > 0 {
        eprintln!("e0_smoke: {failures} family check(s) failed");
        std::process::exit(1);
    }
    println!("e0_smoke: pipeline healthy");
}
