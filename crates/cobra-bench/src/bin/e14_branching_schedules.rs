//! **E14 — extension (§1's open variation):** branching that varies by
//! time step, by randomness, or by vertex.
//!
//! The paper: *"One could further study variations where the branching
//! varied based on the vertex or the time step, or was governed by a
//! random distribution; we do not do that here."* We do it here:
//! schedules with the **same mean branching E\[k\] = 2** are compared
//! against the fixed 2-cobra walk on three graph families, asking whether
//! the mean is the governing quantity — plus a vertex-dependent
//! (degree-scaled) schedule that concentrates branching at hubs.

use cobra_bench::report::{banner, verdict};
use cobra_bench::stages::stage_seed;
use cobra_bench::{ExpConfig, Family};
use cobra_core::{BranchingSchedule, ScheduledCobraWalk};
use cobra_sim::runner::{run_cover_trials_typed, TrialPlan};

fn main() {
    let cfg = ExpConfig::from_env_without_cells();
    banner(
        "E14",
        "extension: time-varying / random / vertex-dependent branching at equal mean E[k]=2",
        &cfg,
    );

    let trials = cfg.scale(30, 100);
    let schedules = [
        BranchingSchedule::Fixed(2),
        BranchingSchedule::Alternating { even: 1, odd: 3 },
        BranchingSchedule::Alternating { even: 3, odd: 1 },
        BranchingSchedule::Bernoulli {
            base: 1,
            extra_prob: 1.0,
        }, // degenerate = fixed 2
        BranchingSchedule::Bernoulli {
            base: 1,
            extra_prob: 0.5,
        }, // mean 1.5
    ];

    let cases: Vec<(Family, usize)> = vec![
        (Family::Grid { d: 2 }, cfg.scale(16, 32)),
        (Family::RandomRegular { d: 4 }, cfg.scale(256, 1024)),
        (Family::Star, cfg.scale(256, 1024)),
    ];

    let mut equal_mean_close = true;
    let mut lower_mean_slower = true;
    let mut star_phase_gap = 0.0f64;
    for (c, (fam, scale)) in cases.iter().enumerate() {
        let g = fam.build(*scale, stage_seed(cfg.seed, "e14", "graphs", c as u64));
        let n = g.num_vertices();
        let start = fam.adversarial_start(&g);
        println!("### {} (n = {n})\n", fam.name());
        println!("| schedule | E[k] | cover mean | cover p95 |");
        println!("|----------|------|------------|-----------|");
        let mut means = Vec::new();
        for (i, sched) in schedules.iter().enumerate() {
            let process = ScheduledCobraWalk::new(*sched);
            let budget = 3000 * n + 500_000;
            let out = run_cover_trials_typed(
                &g,
                &process,
                start,
                &TrialPlan::new(
                    trials,
                    budget,
                    stage_seed(cfg.seed, "e14", "cover", (c * 10 + i) as u64),
                ),
            );
            assert_eq!(
                out.censored,
                0,
                "{} {}: raise budget",
                fam.name(),
                sched.name()
            );
            means.push(out.summary.mean());
            println!(
                "| {} | {} | {:.1} | {:.1} |",
                sched.name(),
                sched.mean_branching(4),
                out.summary.mean(),
                out.summary.quantile(0.95)
            );
        }
        println!();
        let equal_mean = &means[0..4];
        let max = equal_mean.iter().cloned().fold(f64::MIN, f64::max);
        let min = equal_mean.iter().cloned().fold(f64::MAX, f64::min);
        println!(
            "equal-mean schedules spread: {:.2}× (max {max:.1} / min {min:.1})\n",
            max / min
        );
        if matches!(fam, Family::Star) {
            // Finding: the star is 2-periodic (hub occupied on even
            // rounds), so alternation phase matters enormously — means[1]
            // is alt(1,3) (weak at the hub), means[2] is alt(3,1).
            star_phase_gap = means[1] / means[2];
        } else {
            // On aperiodic-ish families E[k] should govern: mean-2
            // schedules agree within ~1.6×, and mean-1.5 is slower than
            // all of them.
            equal_mean_close &= max / min < 1.6;
            lower_mean_slower &= means[4] > max;
        }
    }

    // Degree-scaled branching on the star: branching at the hub is what
    // matters there — compare fixed(2) vs hub-heavy schedule at matched
    // *hub* branching.
    let g = Family::Star.build(cfg.scale(256, 1024), 0);
    let start = 0u32;
    let heavy = ScheduledCobraWalk::new(BranchingSchedule::DegreeScaled {
        divisor: 64,
        max_k: 4,
    });
    let fixed = ScheduledCobraWalk::new(BranchingSchedule::Fixed(2));
    let budget = 3000 * g.num_vertices() + 500_000;
    let out_h = run_cover_trials_typed(
        &g,
        &heavy,
        start,
        &TrialPlan::new(
            trials,
            budget,
            stage_seed(cfg.seed, "e14", "star-branching", 0),
        ),
    );
    let out_f = run_cover_trials_typed(
        &g,
        &fixed,
        start,
        &TrialPlan::new(
            trials,
            budget,
            stage_seed(cfg.seed, "e14", "star-branching", 1),
        ),
    );
    println!(
        "star, vertex-dependent branching: degree-scaled (hub k=4, leaves k=1) covers in {:.1} \
         vs fixed-2 {:.1}",
        out_h.summary.mean(),
        out_f.summary.mean()
    );
    let hub_focus_wins = out_h.summary.mean() < out_f.summary.mean();

    println!();
    verdict(
        "on aperiodic families, E[k] governs: equal-mean schedules within 1.6×",
        equal_mean_close,
        "grid + expander",
    );
    verdict(
        "lower mean branching (1.5) is strictly slower on aperiodic families",
        lower_mean_slower,
        "monotonicity in E[k]",
    );
    verdict(
        "finding: on periodic graphs the schedule PHASE matters — star alt(1,3) ≫ alt(3,1)",
        star_phase_gap > 2.0,
        &format!(
            "alt(1,3)/alt(3,1) = {star_phase_gap:.2}× (hub is occupied on even rounds; \
             branching there is what counts)"
        ),
    );
    verdict(
        "vertex-dependent branching helps where branching is bottlenecked (star hub)",
        hub_focus_wins,
        &format!("{:.1} vs {:.1}", out_h.summary.mean(), out_f.summary.mean()),
    );
}
