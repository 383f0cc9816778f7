//! Statistical regression pin for Theorem 3: the 2-cobra walk covers the
//! grid `[0,n]^d` in O(n) rounds — linear in the side extent `n` (the
//! paper's convention; the grid has `(n+1)^d` vertices). A power-law fit
//! of mean cover time against the side extent must therefore have
//! exponent ≈ 1 in d = 2 (empirically ≈ 0.95 at these sizes).
//!
//! Lives in the high-trial `#[ignore]` tier (run via
//! `cargo test -- --ignored`) like the other Monte-Carlo suites; every
//! cell goes through the typed frontier engine, so this doubles as an
//! end-to-end exercise of the fast path at scale.

use cobra_repro::analysis::fit::power_law_fit;
use cobra_repro::graph::generators::grid;
use cobra_repro::graph::ImplicitGrid;
use cobra_repro::sim::runner::{run_cover_trials_implicit, run_cover_trials_typed, TrialPlan};
use cobra_repro::sim::sweep::cell_seed;
use cobra_repro::walks::CobraWalk;

#[test]
#[ignore = "high-trial Monte-Carlo tier"]
fn two_cobra_grid_cover_scales_linearly_in_n() {
    // Side extents n give (n+1)² vertices: 81 … 1089. Each cell draws
    // its own stream under `cell_seed`, as a sweep cell does.
    let sides = [8usize, 12, 16, 24, 32];
    let cobra = CobraWalk::standard();
    let mut scales = Vec::new();
    let mut means = Vec::new();
    for (cell, &n) in sides.iter().enumerate() {
        let plan = TrialPlan::new(24, 1_000_000, cell_seed(0xC0B7A, cell));
        let out = run_cover_trials_typed(&grid::grid(&[n, n]), &cobra, 0, &plan);
        assert_eq!(out.censored, 0, "side {n}: budget must dominate cover time");
        scales.push(n as f64);
        means.push(out.summary.mean());
    }

    let fit = power_law_fit(&scales, &means);
    assert!(
        (0.8..=1.3).contains(&fit.slope),
        "cover-time exponent {:.3} outside the O(n) window [0.8, 1.3] \
         (R² = {:.3}, means = {means:?})",
        fit.slope,
        fit.r_squared,
    );
    assert!(
        fit.r_squared > 0.95,
        "power-law fit too loose: R² = {:.3}",
        fit.r_squared
    );
}

/// Theorem 3 re-pinned an order of magnitude past the CSR sweep above:
/// the implicit-grid runner needs no adjacency, so side extents that
/// would make the materialized sweep memory- and setup-bound (512² ≈
/// 263k vertices per cell, with the CSR edge arrays gone entirely) stay
/// cheap. Debug builds (CI's ignored tier) scale the sides down — same
/// code path, exponent window, and fit quality bar; the full 64…512
/// range is the release-profile local run.
#[test]
#[ignore = "high-trial Monte-Carlo tier"]
fn two_cobra_implicit_grid_cover_scales_linearly_at_large_sides() {
    let sides: &[usize] = if cfg!(debug_assertions) {
        &[48, 64, 96]
    } else {
        &[64, 128, 256, 512]
    };
    let plan = TrialPlan::new(12, 1_000_000, 0xC0B7A);
    let cobra = CobraWalk::standard();
    let mut scales = Vec::new();
    let mut means = Vec::new();
    for &n in sides {
        let g = ImplicitGrid::new(&[n, n]).expect("side in range");
        let out = run_cover_trials_implicit(&g, &cobra, 0, &plan);
        assert_eq!(out.censored, 0, "side {n}: budget must dominate cover time");
        scales.push(n as f64);
        means.push(
            out.completed_summary()
                .expect("uncensored cell has completed trials")
                .mean(),
        );
    }

    let fit = power_law_fit(&scales, &means);
    assert!(
        (0.8..=1.3).contains(&fit.slope),
        "implicit-grid cover exponent {:.3} outside the O(n) window [0.8, 1.3] \
         (R² = {:.3}, means = {means:?})",
        fit.slope,
        fit.r_squared,
    );
    assert!(
        fit.r_squared > 0.95,
        "power-law fit too loose: R² = {:.3}",
        fit.r_squared
    );
}
