//! Distribution-level contract of the bit-sliced 64-lane cover engine.
//!
//! Lane trials share neighbor draws after the burn-in (see
//! `cobra_core::lanes`), so the lane engine's per-trial RNG streams
//! legitimately differ from the serial engine's — outcomes cannot be
//! compared bit-for-bit against `run_cover_trials_typed` the way
//! `tests/engine_equivalence.rs` compares the scratch paths. What the
//! design *does* guarantee, and what this harness pins:
//!
//! * each lane's cover time is exactly cobra-walk distributed (the
//!   serial engine is the oracle) — checked with a two-sample
//!   Kolmogorov–Smirnov test at α = 0.001 on fixed seeds, so the test
//!   is deterministic, not flaky;
//! * truncation, not masking, handles `trials % 64 ≠ 0` — the runner
//!   reports exactly the requested trial count and the retained trials
//!   are the full-width stream's prefix;
//! * censoring is per-lane: lanes that covered within the budget keep
//!   their exact times, lanes that did not are censored individually;
//! * outcomes are bit-identical across rayon worker counts {1, 2, 8}
//!   (batch seeds are positional, collection is order-preserving), for
//!   both fixed-plan and adaptive lane runs;
//! * the adaptive auto router runs the engine [`lane_cover_applies`]
//!   selects, and that is the scratch engine for the simple walk.

mod support;

use cobra_repro::graph::generators::{classic, grid};
use cobra_repro::graph::Graph;
use cobra_repro::sim::runner::{lane_cover_applies, run_cover_trials_typed, TrialPlan};
use cobra_repro::sim::{ks_distance, AdaptivePlan, SeedSequence, StopRule, Summary};
use cobra_repro::walks::{
    run_lane_cover, CobraWalk, CoverDriver, ImplicitDraw, LaneScratch, SimpleWalk, LANE_WIDTH,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use support::{
    adaptive_auto, assert_adaptive_identical, assert_outcomes_identical, in_pool, lanes_fixed,
};

const MAX_STEPS: usize = 200_000;

/// One independent lane-engine cover time per batch: lane 0 of `batches`
/// full-width batch runs. Harvesting a single lane per batch sidesteps
/// the cross-lane correlation of shared draws, so the sample is iid —
/// exactly what the KS test's critical value assumes.
fn lane_sample(g: &Graph, k: u32, batches: u64, master: u64) -> Vec<f64> {
    let seq = SeedSequence::new(master);
    let mut scratch = LaneScratch::new(g);
    (0..batches)
        .map(|b| {
            let mut rng = seq.rng_at(b);
            let out = run_lane_cover(
                g,
                &ImplicitDraw,
                k,
                0,
                u64::MAX,
                MAX_STEPS,
                &mut scratch,
                &mut rng,
            );
            out.cover_time(0).expect("budget generous enough to cover") as f64
        })
        .collect()
}

/// Serial-oracle cover times: `trials` independent `run_typed` trials.
fn serial_sample(g: &Graph, k: u32, trials: u64, master: u64) -> Vec<f64> {
    let seq = SeedSequence::new(master);
    let process = CobraWalk::new(k);
    (0..trials)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(seq.seed_at(i));
            let res = CoverDriver::new(g)
                .run_typed(&process, 0, MAX_STEPS, &mut rng)
                .unwrap();
            assert!(res.completed);
            res.steps as f64
        })
        .collect()
}

#[test]
fn lane_cover_times_match_serial_oracle_in_distribution() {
    // Two-sample KS at α = 0.001: D_crit = 1.95 · sqrt((n + m) / (n·m)).
    // The tight-concentration cell (complete graph), the slow-mixing cell
    // (cycle), and the paper's workhorse geometry (grid).
    let cells: Vec<(&str, Graph)> = vec![
        ("complete-32", classic::complete(32).unwrap()),
        ("cycle-32", classic::cycle(32).unwrap()),
        ("grid-8x8", grid::grid(&[7, 7])),
    ];
    let (n, m) = (128u64, 128u64);
    let d_crit = 1.95 * (((n + m) as f64) / ((n * m) as f64)).sqrt();
    for (name, g) in cells {
        let lanes = lane_sample(&g, 2, n, 0x1A7E5);
        let serial = serial_sample(&g, 2, m, 0x05EB1A5);
        let d = ks_distance(&lanes, &serial);
        assert!(
            d <= d_crit,
            "{name}: lane cover-time distribution diverges from the serial \
             oracle (KS D = {d:.4} > critical {d_crit:.4})"
        );
    }
}

#[test]
fn partial_batch_truncates_the_full_width_stream() {
    // trials = 100 spans one full batch plus a 36-lane tail. The runner
    // must report exactly 100 trials, and they must be the prefix of the
    // full-width two-batch stream (the tail batch still computes all 64
    // lanes; surplus is discarded at aggregation, never masked out of the
    // draw stream).
    let g = grid::grid(&[7, 7]);
    let cobra = CobraWalk::standard();
    let plan = TrialPlan::new(100, MAX_STEPS, 0xBEEF);
    let out = lanes_fixed(&g, &cobra, &plan);
    assert_eq!(out.summary.count() + out.censored, 100);

    // Oracle: flatten both batches by hand and truncate.
    let seq = SeedSequence::new(plan.master_seed);
    let mut scratch = LaneScratch::new(&g);
    let mut times = Vec::new();
    for b in 0..2u64 {
        let mut rng = seq.rng_at(b);
        let batch = run_lane_cover(
            &g,
            &ImplicitDraw,
            2,
            0,
            u64::MAX,
            plan.max_steps,
            &mut scratch,
            &mut rng,
        );
        times.extend((0..LANE_WIDTH).map(|lane| batch.cover_time(lane)));
    }
    times.truncate(100);
    let oracle = Summary::from_slice(
        &times
            .iter()
            .filter_map(|t| t.map(|s| s as f64))
            .collect::<Vec<_>>(),
    );
    assert_eq!(out.summary.count(), oracle.count());
    assert_eq!(out.summary.mean(), oracle.mean());
    assert_eq!(out.summary.median(), oracle.median());
    assert_eq!(out.summary.min(), oracle.min());
    assert_eq!(out.summary.max(), oracle.max());
}

#[test]
fn censoring_is_per_lane_and_budget_monotone() {
    // On a cycle the 64 lanes' cover times spread widely. Run once with a
    // generous budget to learn every lane's true time, pick the median as
    // a tight budget, and rerun on the *same seed*: the draw stream is
    // identical step for step, so lanes under the budget must keep their
    // exact times and lanes over it must be censored — individually.
    let g = classic::cycle(96).unwrap();
    let mut scratch = LaneScratch::new(&g);
    let seed = 0xCE2506;

    let full = run_lane_cover(
        &g,
        &ImplicitDraw,
        2,
        0,
        u64::MAX,
        MAX_STEPS,
        &mut scratch,
        &mut StdRng::seed_from_u64(seed),
    );
    let mut times: Vec<usize> = (0..LANE_WIDTH)
        .map(|lane| full.cover_time(lane).expect("generous budget"))
        .collect();
    times.sort_unstable();
    let budget = times[LANE_WIDTH / 2];

    let cut = run_lane_cover(
        &g,
        &ImplicitDraw,
        2,
        0,
        u64::MAX,
        budget,
        &mut scratch,
        &mut StdRng::seed_from_u64(seed),
    );
    let survivors = cut.completed.count_ones();
    assert!(
        (1..LANE_WIDTH as u32).contains(&survivors),
        "median budget must censor some lanes and spare others, got {survivors}/64"
    );
    for lane in 0..LANE_WIDTH {
        let true_time = full.cover_time(lane).unwrap();
        if true_time <= budget {
            assert_eq!(
                cut.cover_time(lane),
                Some(true_time),
                "lane {lane} covered within budget but lost its exact time"
            );
        } else {
            assert_eq!(
                cut.cover_time(lane),
                None,
                "lane {lane} exceeded the budget but was not censored"
            );
        }
    }
}

#[test]
fn lane_runners_are_worker_count_independent() {
    // Batch seeds are positional (`rng_at(batch_index)`) and the par_iter
    // collect preserves order, so worker count must not leak into either
    // the fixed-plan or the adaptive lane runner.
    let g = grid::grid(&[7, 7]);
    let cobra = CobraWalk::standard();
    let plan = TrialPlan::new(200, MAX_STEPS, 0x9A9A);
    let rule = StopRule::new(64, 512, 0.05);
    let adaptive = AdaptivePlan::new(rule, 32, MAX_STEPS, 0x5151);
    assert!(lane_cover_applies(&g, &cobra, rule.max_trials));

    let at_workers = |threads: usize| {
        in_pool(threads, || {
            (
                lanes_fixed(&g, &cobra, &plan),
                adaptive_auto(&g, &cobra, &adaptive),
            )
        })
    };

    let base = at_workers(1);
    for threads in [2usize, 8] {
        let other = at_workers(threads);
        let label = format!("{threads} workers vs 1");
        assert_outcomes_identical(&base.0, &other.0, &format!("fixed lanes, {label}"));
        assert_adaptive_identical(&base.1, &other.1, &format!("adaptive lanes, {label}"));
    }
}

#[test]
fn auto_routers_match_the_engine_they_select() {
    let cobra = CobraWalk::standard();

    let small = grid::grid(&[7, 7]);
    // Small n, trials ≥ 64: eligible; below one lane width: not.
    assert!(lane_cover_applies(&small, &cobra, 128));
    assert!(!lane_cover_applies(&small, &cobra, 32));

    // Adaptive routing keys on the trial *cap* (engine choice must never
    // depend on how many trials the data ends up consuming): an adaptive
    // lane run is a prefix of the fixed lane run.
    let rule = StopRule::new(64, 256, 0.05);
    let adaptive = AdaptivePlan::new(rule, 32, MAX_STEPS, 11);
    let auto = adaptive_auto(&small, &cobra, &adaptive);
    let prefix = TrialPlan::new(auto.trials_run(), MAX_STEPS, 11);
    assert_outcomes_identical(
        &auto.to_trial_outcome(),
        &lanes_fixed(&small, &cobra, &prefix),
        "adaptive auto, eligible cell",
    );

    // The simple walk's lane form has k = 1, which is never eligible: an
    // auto-routed simple-walk cell with a lane-sized cap runs on the
    // scratch engine, so its consumed prefix is the scratch runner's.
    let walk = SimpleWalk::new();
    assert!(!lane_cover_applies(&small, &walk, rule.max_trials));
    let adaptive = AdaptivePlan::new(rule, 32, MAX_STEPS, 12);
    let auto = adaptive_auto(&small, &walk, &adaptive);
    assert!(auto.precision_met && auto.trials_run() < rule.max_trials);
    let prefix = TrialPlan::new(auto.trials_run(), MAX_STEPS, 12);
    assert_outcomes_identical(
        &auto.to_trial_outcome(),
        &run_cover_trials_typed(&small, &walk, 0, &prefix),
        "adaptive auto, simple walk",
    );
}
