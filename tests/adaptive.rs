//! Determinism and stopping semantics of the adaptive sequential-
//! stopping engine: results must be a pure function of the plan —
//! bit-identical across worker counts AND batch sizes — and a starved
//! cell must fail soft (`precision_met = false`), never panic.
//!
//! The scratch-engine cells here are ones the router sends to scratch
//! (a trial cap below the 64-lane width, or a process without a lane
//! form); `tests/lanes.rs` pins the lane route.

use cobra_repro::graph::{Graph, Vertex};
use cobra_repro::sim::convergence::{run_until_precise, AdaptivePlan, StopRule};
use cobra_repro::sim::runner::{
    run_cover_trials_adaptive_auto_resumable, run_cover_trials_typed,
    run_hitting_trials_adaptive_resumable, AdaptiveOutcome, BatchControl, TrialPlan,
};
use cobra_repro::sim::seeds::SeedSequence;
use cobra_repro::sim::sweep::{run_cover_sweep_cells_adaptive, SweepCell};
use cobra_repro::walks::{CobraWalk, CoverDriver, SimpleWalk, SisProcess, TypedProcess};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An uninterrupted adaptive cover run from vertex 0.
fn cover<P: TypedProcess + Sync>(g: &Graph, process: &P, plan: &AdaptivePlan) -> AdaptiveOutcome {
    run_cover_trials_adaptive_auto_resumable(g, process, 0, plan, Vec::new(), |_| {
        BatchControl::Continue
    })
    .outcome
}

/// An uninterrupted adaptive hitting run `0 → target`.
fn hitting<P: TypedProcess + Sync>(
    g: &Graph,
    process: &P,
    target: Vertex,
    plan: &AdaptivePlan,
) -> AdaptiveOutcome {
    run_hitting_trials_adaptive_resumable(g, process, 0, target, plan, Vec::new(), |_| {
        BatchControl::Continue
    })
    .outcome
}

/// Full-moment equality for two adaptive outcomes (same per-trial value
/// multiset in the same order, same stopping decision).
fn assert_adaptive_identical(a: &AdaptiveOutcome, b: &AdaptiveOutcome, label: &str) {
    assert_eq!(a.precision_met, b.precision_met, "{label}: met flag");
    assert_eq!(a.censored, b.censored, "{label}: censoring");
    assert_eq!(a.summary.count(), b.summary.count(), "{label}: counts");
    assert_eq!(a.trials_run(), b.trials_run(), "{label}: trials consumed");
    if a.summary.count() > 0 {
        assert_eq!(a.summary.mean(), b.summary.mean(), "{label}: means");
        assert_eq!(a.summary.median(), b.summary.median(), "{label}: medians");
        assert_eq!(a.summary.min(), b.summary.min(), "{label}: mins");
        assert_eq!(a.summary.max(), b.summary.max(), "{label}: maxes");
    }
}

#[test]
fn adaptive_engine_is_worker_and_batch_independent() {
    // The pinned matrix from the satellite checklist: worker counts
    // {1, 2, 8} × batch sizes {1, 16, 64} must all produce bit-identical
    // outcomes — seeds are positional in the global trial index, and the
    // stopping decision replays trials in that order regardless of how
    // much speculative work each batch launched.
    let g = cobra_repro::graph::generators::gnp::gnp_connected(
        120,
        0.06,
        100,
        &mut StdRng::seed_from_u64(21),
    )
    .unwrap();
    let cobra = CobraWalk::standard();
    let sis = SisProcess::new(2, 0.7);
    let rule = StopRule::new(12, 300, 0.05);
    // A cap below the lane width keeps the cobra cover cell on scratch.
    let cover_rule = StopRule::new(12, 63, 0.05);

    let run = |workers: usize, batch: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .unwrap();
        pool.install(|| {
            (
                cover(
                    &g,
                    &cobra,
                    &AdaptivePlan::new(cover_rule, batch, 1_000_000, 0xC0B7A),
                ),
                cover(&g, &sis, &AdaptivePlan::new(rule, batch, 1_000_000, 0x5E5)),
                hitting(
                    &g,
                    &cobra,
                    119,
                    &AdaptivePlan::new(rule, batch, 1_000_000, 0x417),
                ),
            )
        })
    };

    let base = run(1, 1);
    assert!(base.0.precision_met && base.1.precision_met && base.2.precision_met);
    for workers in [1usize, 2, 8] {
        for batch in [1usize, 16, 64] {
            let other = run(workers, batch);
            let label = format!("workers={workers} batch={batch}");
            assert_adaptive_identical(&base.0, &other.0, &format!("cobra cover, {label}"));
            assert_adaptive_identical(&base.1, &other.1, &format!("sis cover, {label}"));
            assert_adaptive_identical(&base.2, &other.2, &format!("cobra hitting, {label}"));
        }
    }
}

#[test]
fn adaptive_stops_at_min_trials_on_constant_data() {
    // Cover of path(2) from vertex 0 takes exactly one step for any
    // walk: constant data, so the CI is degenerate-tight the moment the
    // rule is allowed to fire.
    let g = cobra_repro::graph::generators::classic::path(2).unwrap();
    for batch in [1usize, 16, 64] {
        let rule = StopRule::new(7, 500, 0.01);
        let plan = AdaptivePlan::new(rule, batch, 100, 9);
        let out = cover(&g, &SimpleWalk::new(), &plan);
        assert!(out.precision_met, "batch {batch}");
        assert_eq!(out.trials_run(), 7, "batch {batch}: must stop at min");
        assert_eq!(out.summary.mean(), 1.0);
        assert_eq!(out.summary.stddev(), 0.0);
    }
}

#[test]
fn adaptive_fully_censored_cell_fails_soft() {
    // 4 steps cannot cover a 80-path: every trial censors, the engine
    // must consume exactly max_trials and report precision_met = false —
    // with no panic anywhere (the historical failure mode was a panic on
    // the empty summary's mean).
    let g = cobra_repro::graph::generators::classic::path(80).unwrap();
    for batch in [1usize, 16, 64] {
        let rule = StopRule::new(4, 37, 0.05);
        let plan = AdaptivePlan::new(rule, batch, 4, 13);
        let out = cover(&g, &SimpleWalk::new(), &plan);
        assert!(!out.precision_met, "batch {batch}");
        assert_eq!(out.censored, 37, "batch {batch}");
        assert_eq!(out.summary.count(), 0);
        assert_eq!(out.trials_run(), 37);
        assert!(out.completed_summary().is_err());
    }
}

#[test]
fn adaptive_sweep_is_batch_independent_and_reports_per_cell() {
    let cells = |scales: &[usize]| {
        scales
            .iter()
            .map(|&n| {
                SweepCell::new(
                    n as f64,
                    cobra_repro::graph::generators::classic::cycle(n).unwrap(),
                    0u32,
                )
                .with_budget(100_000)
            })
            .collect::<Vec<_>>()
    };
    let rule = StopRule::new(8, 200, 0.05);
    let cobra = CobraWalk::standard();
    let base = run_cover_sweep_cells_adaptive(
        "cobra on cycle",
        "n",
        cells(&[12, 16, 24]),
        &cobra,
        &AdaptivePlan::new(rule, 1, 1, 0xBEE),
    )
    .unwrap();
    assert_eq!(base.table.rows.len(), 3);
    assert_eq!(base.reports.len(), 3);
    assert!(base.all_precise());
    assert_eq!(
        base.total_trials(),
        base.reports.iter().map(|r| r.trials_used).sum::<usize>()
    );
    for (row, rep) in base.table.rows.iter().zip(&base.reports) {
        assert_eq!(row.trials, rep.completed);
        assert_eq!(row.censored, rep.censored);
        assert!(rep.rel_half_width <= rule.rel_precision + 1e-12);
        assert!(rep.trials_used >= rule.min_trials);
    }
    for batch in [16usize, 64] {
        let other = run_cover_sweep_cells_adaptive(
            "cobra on cycle",
            "n",
            cells(&[12, 16, 24]),
            &cobra,
            &AdaptivePlan::new(rule, batch, 1, 0xBEE),
        )
        .unwrap();
        for (a, b) in base.table.rows.iter().zip(&other.table.rows) {
            assert_eq!(a.mean, b.mean, "batch {batch}");
            assert_eq!(a.median, b.median, "batch {batch}");
            assert_eq!(a.trials, b.trials, "batch {batch}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any rule and seed, the parallel batched engine must stop at
    /// exactly the same trial as the serial reference loop, and its
    /// summary must equal the fixed-plan runner truncated at that count
    /// — at every batch size. Caps stay below the lane width, so K10
    /// runs on the scratch engine whose trials the serial loop replays.
    #[test]
    fn engine_matches_serial_reference(
        seed in 0u64..1_000_000,
        min in 2usize..12,
        extra in 0usize..52,
        batch in 1usize..48,
        precision in 0.02f64..0.3,
    ) {
        let max = min + extra;
        let g = cobra_repro::graph::generators::classic::complete(10).unwrap();
        let cobra = CobraWalk::standard();
        let rule = StopRule::new(min, max, precision);
        let plan = AdaptivePlan::new(rule, batch, 10_000, seed);
        let out = cover(&g, &cobra, &plan);

        // Serial oracle over the identical per-trial values.
        let seq = SeedSequence::new(seed);
        let driver = CoverDriver::new(&g);
        let (oracle, ok) = run_until_precise(&rule, |i| {
            let mut rng = seq.rng_at(i as u64);
            let res = driver.run_typed(&cobra, 0, 10_000, &mut rng).unwrap();
            assert!(res.completed, "K10 cover cannot censor at 10k steps");
            res.steps as f64
        });
        prop_assert_eq!(out.precision_met, ok);
        prop_assert_eq!(out.summary.count(), oracle.count());
        prop_assert_eq!(out.summary.mean(), oracle.mean());

        // And the fixed-plan runner truncated at the stopping count.
        let fixed = run_cover_trials_typed(
            &g, &cobra, 0, &TrialPlan::new(out.trials_run(), 10_000, seed));
        prop_assert_eq!(out.summary.mean(), fixed.summary.mean());
        prop_assert_eq!(out.summary.median(), fixed.summary.median());
    }
}
