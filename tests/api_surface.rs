//! The umbrella crate's public API surface: everything a downstream user
//! needs must be reachable through `cobra_repro::{graph, walks, spectral,
//! sim, analysis}` re-exports, without touching the member crates.

use cobra_repro::analysis::fit::power_law_fit;
use cobra_repro::analysis::growth::{classify_growth, GrowthShape};
use cobra_repro::graph::generators::{grid, hypercube, trees};
use cobra_repro::graph::{metrics, Graph};
use cobra_repro::sim::runner::{run_cover_trials_typed, TrialPlan};
use cobra_repro::sim::stats::Summary;
use cobra_repro::sim::sweep::{SweepRow, SweepTable};
use cobra_repro::sim::table::{render_csv, render_markdown};
use cobra_repro::spectral::laplacian::spectral_gap;
use cobra_repro::spectral::tensor::TensorChain;
use cobra_repro::walks::{
    BiasedWalk, BranchingSchedule, CobraWalk, CoverDriver, FaultPlan, FaultyCobraWalk,
    MetropolisWalk, ParallelWalks, PushGossip, ScheduledCobraWalk, SimpleWalk, StateView,
    TypedProcess, TypedState, WaltProcess,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn quickstart_workflow_through_umbrella_crate() {
    // Build → measure → sweep → fit → render, all via re-exports.
    let mut table = SweepTable::new("cobra on hypercube", "n");
    for dim in [4u32, 5, 6] {
        let g = hypercube::hypercube(dim);
        let out = run_cover_trials_typed(
            &g,
            &CobraWalk::standard(),
            0,
            &TrialPlan::new(30, 100_000, dim as u64),
        );
        assert_eq!(out.censored, 0);
        table.push(SweepRow::from_summary(
            g.num_vertices() as f64,
            &out.summary,
            0,
        ));
    }
    let fit = power_law_fit(&table.scales(), &table.means());
    assert!(
        fit.slope < 1.0,
        "polylog growth reads as tiny power: {}",
        fit.slope
    );
    let md = render_markdown(&table);
    assert!(md.contains("cobra on hypercube"));
    let csv = render_csv(&table);
    assert_eq!(csv.lines().count(), 4);
}

/// Spawn `p` at vertex 0 and step it ten rounds.
fn run_ten_rounds<P: TypedProcess>(p: &P, g: &Graph, rng: &mut StdRng) {
    let mut st = p.spawn_typed(g, 0);
    for _ in 0..10 {
        st.step(g, rng);
    }
    assert!(!st.active().is_empty(), "{} lost its tokens", p.name());
}

#[test]
fn every_process_type_is_constructible_and_runnable() {
    let g = grid::grid(&[4, 4]);
    let mut rng = StdRng::seed_from_u64(0);
    run_ten_rounds(&CobraWalk::standard(), &g, &mut rng);
    run_ten_rounds(&SimpleWalk::new(), &g, &mut rng);
    run_ten_rounds(&ParallelWalks::new(4), &g, &mut rng);
    run_ten_rounds(&WaltProcess::standard(0.25), &g, &mut rng);
    run_ten_rounds(&PushGossip, &g, &mut rng);
    let fixed = ScheduledCobraWalk::new(BranchingSchedule::Fixed(2));
    run_ten_rounds(&fixed, &g, &mut rng);
    run_ten_rounds(&FaultyCobraWalk::new(2, FaultPlan::none()), &g, &mut rng);
    run_ten_rounds(&BiasedWalk::inverse_degree_toward(&g, 15), &g, &mut rng);
    run_ten_rounds(&MetropolisWalk::new(&g, 15), &g, &mut rng);
}

#[test]
fn drivers_work_against_any_process() {
    let g = trees::kary_tree(2, 4).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let cover = CoverDriver::new(&g)
        .run_typed(&CobraWalk::standard(), 0, 1_000_000, &mut rng)
        .unwrap();
    assert!(cover.completed);
    let hit = CoverDriver::new(&g).hit_typed(&SimpleWalk::new(), 0, 7, 1_000_000, &mut rng);
    assert!(hit.hit);
}

#[test]
fn spectral_tools_reachable() {
    let g = hypercube::hypercube(3);
    let gap = spectral_gap(&g, 20_000, 1e-12);
    assert!((gap - 2.0 / 3.0).abs() < 1e-4);
    let tc = TensorChain::new(&g, true);
    assert_eq!(tc.num_states(), 64);
    assert!(metrics::is_connected(&g));
}

#[test]
fn analysis_tools_reachable() {
    let xs: Vec<f64> = (2..20).map(|i| (i * i) as f64).collect();
    let ys: Vec<f64> = xs.iter().map(|&x| 3.0 * x).collect();
    let (shape, _) = classify_growth(&xs, &ys);
    assert_eq!(shape, GrowthShape::Linear);
    let s = Summary::from_slice(&[1.0, 2.0, 3.0]);
    assert_eq!(s.median(), 2.0);
}
