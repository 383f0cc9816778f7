//! **E12 — ablation:** the effect of the branching factor `k`.
//!
//! The paper fixes `k = 2` ("one could further study variations", §1) and
//! notes any constant `k ≥ 2` suffices for the grid result. This ablation
//! quantifies the `k`-dependence on three structurally different graphs:
//!
//! * a 2-d grid (Theorem 3 territory),
//! * a random 4-regular expander (Corollary 9 territory),
//! * a lollipop (Theorem 20 territory),
//!
//! expecting a dramatic k=1 → k=2 cliff (simple walk → cobra walk) and
//! diminishing returns beyond.

use cobra_bench::report::{banner, verdict};
use cobra_bench::stages::stage_seed;
use cobra_bench::{ExpConfig, Family};
use cobra_core::CobraWalk;
use cobra_sim::runner::{run_cover_trials_typed, TrialPlan};

fn main() {
    let cfg = ExpConfig::from_env_without_cells();
    banner("E12", "ablation: branching factor k ∈ {1,2,3,4,8}", &cfg);

    let ks = [1u32, 2, 3, 4, 8];
    let trials = cfg.scale(15, 50);
    let cases: Vec<(Family, usize)> = vec![
        (Family::Grid { d: 2 }, cfg.scale(16, 32)),
        (Family::RandomRegular { d: 4 }, cfg.scale(256, 1024)),
        (Family::Lollipop, cfg.scale(48, 96)),
    ];

    let mut cliff_ok = true;
    let mut diminishing_ok = true;
    for (c, (fam, scale)) in cases.iter().enumerate() {
        let g = fam.build(*scale, stage_seed(cfg.seed, "e12", "graphs", c as u64));
        let n = g.num_vertices();
        let start = fam.adversarial_start(&g);
        println!("### {} (n = {n})\n", fam.name());
        println!("| k | cover mean | cover p95 | speedup vs k=1 |");
        println!("|---|------------|-----------|----------------|");
        let mut means = Vec::new();
        for (i, &k) in ks.iter().enumerate() {
            let process = CobraWalk::new(k);
            let nf = n as f64;
            // k=1 is the plain RW: needs a polynomially larger budget.
            let budget = if k == 1 {
                (4.0 * nf * nf * nf.ln()) as usize + 500_000
            } else {
                3000 * (nf.ln() as usize + 1) * 40 + 40 * n + 100_000
            };
            let out = run_cover_trials_typed(
                &g,
                &process,
                start,
                &TrialPlan::new(
                    trials,
                    budget,
                    stage_seed(cfg.seed, "e12", "cover", (c * 10 + i) as u64),
                ),
            );
            assert_eq!(out.censored, 0, "{} k={k}: raise budget", fam.name());
            means.push(out.summary.mean());
            println!(
                "| {k} | {:.1} | {:.1} | {:.1}× |",
                out.summary.mean(),
                out.summary.quantile(0.95),
                means[0] / out.summary.mean()
            );
        }
        println!();
        // Cliff: k=2 at least 3x faster than k=1 on every family.
        cliff_ok &= means[0] / means[1] > 3.0;
        // Diminishing returns: the k=2→8 gain is much smaller than k=1→2.
        let gain_12 = means[0] / means[1];
        let gain_28 = means[1] / means[4];
        diminishing_ok &= gain_28 < gain_12 / 2.0;
        println!(
            "k=1→2 speedup {:.1}×, k=2→8 speedup {:.1}×\n",
            gain_12, gain_28
        );
    }
    verdict(
        "branching cliff: k=2 ≥ 3× faster than k=1 everywhere",
        cliff_ok,
        "the single extra pebble does most of the work",
    );
    verdict(
        "diminishing returns beyond k=2",
        diminishing_ok,
        "k=2→8 gains are far smaller than k=1→2",
    );
}
