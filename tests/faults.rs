//! Fault-seam identity and determinism contract.
//!
//! The fault layer (`cobra_core::fault`) threads a `FaultPlan` through
//! the `TypedProcess` seam with a *dedicated* fault randomness stream,
//! so the design owes two guarantees that this harness pins at the
//! integration level:
//!
//! * **`FaultPlan::none()` is free** — a `FaultyCobraWalk` carrying the
//!   empty plan is bit-identical to the plain `CobraWalk` on every
//!   engine route (typed scratch, bit-sliced lanes, implicit) and at
//!   every rayon worker count {1, 2, 8}, and matches outcome digests the
//!   retired dyn route recorded. The fault machinery must
//!   never perturb the walk stream when no fault is configured, or the
//!   whole experiment corpus silently forks from its frozen baselines.
//! * **Faulty runs are deterministic** — a non-trivial plan (loss,
//!   delay, outages, deletion waves) produces the same outcome for the
//!   same seed regardless of worker count, rerun, or adaptive batch
//!   schedule, because per-trial streams are positional, not
//!   scheduling-dependent. Crash-safe resume (`--resume`) depends on
//!   exactly this property.
//!
//! Fixed tests pin the full route × worker matrix; proptests sweep
//! branching factors, seeds, and loss rates to guard the seam against
//! regressions that only bite off the hand-picked constants.

use cobra_repro::graph::generators::{classic, grid};
use cobra_repro::graph::{Graph, ImplicitGrid};
use cobra_repro::obs::NoopProbe;
use cobra_repro::sim::convergence::{AdaptivePlan, StopRule};
use cobra_repro::sim::runner::{
    run_cover_trials_adaptive_auto_resumable, run_cover_trials_implicit,
    run_cover_trials_lanes_probed, run_cover_trials_typed, TrialPlan,
};
use cobra_repro::sim::{AdaptiveOutcome, BatchControl, TrialOutcome};
use cobra_repro::walks::{CobraWalk, FaultPlan, FaultyCobraWalk, TypedProcess};
use proptest::prelude::*;

const MAX_STEPS: usize = 60_000;
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Run `f` inside a dedicated rayon pool with `workers` threads, so the
/// runners' internal `par_iter` uses exactly that worker count.
fn in_pool<T: Send>(workers: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(workers)
        .build()
        .expect("build rayon pool")
        .install(f)
}

fn lanes_fixed<P: TypedProcess + Sync>(g: &Graph, process: &P, plan: &TrialPlan) -> TrialOutcome {
    run_cover_trials_lanes_probed(g, process, 0, plan, |_| NoopProbe).0
}

fn adaptive_auto<P: TypedProcess + Sync>(
    g: &Graph,
    process: &P,
    plan: &AdaptivePlan,
) -> AdaptiveOutcome {
    run_cover_trials_adaptive_auto_resumable(g, process, 0, plan, Vec::new(), |_| {
        BatchControl::Continue
    })
    .outcome
}

/// FNV-1a digest of an outcome's censoring, count, and moments — the form
/// the pinned dyn-route values below were recorded in.
fn outcome_digest(out: &TrialOutcome) -> u64 {
    let s = &out.summary;
    let mut words = vec![out.censored as u64, s.count() as u64];
    if s.count() > 0 {
        words.extend([s.mean(), s.variance(), s.min(), s.max(), s.median()].map(f64::to_bits));
    }
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// Full-moment equality: same censoring and the same multiset summary
/// (count, mean, median, min, max), not just agreeing means.
fn assert_outcomes_identical(a: &TrialOutcome, b: &TrialOutcome, label: &str) {
    assert_eq!(a.censored, b.censored, "{label}: censoring differs");
    assert_eq!(
        a.summary.count(),
        b.summary.count(),
        "{label}: counts differ"
    );
    if a.summary.count() > 0 {
        assert_eq!(a.summary.mean(), b.summary.mean(), "{label}: means differ");
        assert_eq!(
            a.summary.median(),
            b.summary.median(),
            "{label}: medians differ"
        );
        assert_eq!(a.summary.min(), b.summary.min(), "{label}: mins differ");
        assert_eq!(a.summary.max(), b.summary.max(), "{label}: maxes differ");
    }
}

/// Same, for adaptive outcomes — plus the stopping decision itself.
fn assert_adaptive_identical(a: &AdaptiveOutcome, b: &AdaptiveOutcome, label: &str) {
    assert_eq!(
        a.trials_run(),
        b.trials_run(),
        "{label}: consumed trial counts differ"
    );
    assert_eq!(
        a.precision_met, b.precision_met,
        "{label}: stopping decisions differ"
    );
    assert_eq!(a.censored, b.censored, "{label}: censoring differs");
    assert_eq!(
        a.summary.count(),
        b.summary.count(),
        "{label}: counts differ"
    );
    if a.summary.count() > 0 {
        assert_eq!(a.summary.mean(), b.summary.mean(), "{label}: means differ");
        assert_eq!(a.summary.max(), b.summary.max(), "{label}: maxes differ");
    }
}

/// A non-trivial plan exercising every fault dimension at once.
fn lossy_plan() -> FaultPlan {
    FaultPlan::none()
        .with_pebble_loss(0.1)
        .with_delay(0.25, 32)
        .with_outage(5, 3, 11)
        .with_deletion_wave(7, vec![0, 1, 2])
}

#[test]
fn none_plan_is_bit_identical_to_plain_cobra_on_all_four_routes() {
    let graphs: Vec<(&str, Graph)> = vec![
        ("grid 8x8", grid::grid(&[7, 7])),
        ("cycle 33", classic::cycle(33).unwrap()),
    ];
    // Plain-cobra outcome digests the retired dyn route recorded, per k
    // and graph.
    let dyn_pinned = [
        [0xb2e496d02f954edd, 0xde13349035373336],
        [0x8dc0f55a32704880, 0x814825dba5ac47ae],
        [0x077727d419321d9f, 0x5a63904eb67cfac6],
    ];
    for (k, pins) in [1u32, 2, 3].into_iter().zip(dyn_pinned) {
        let plain = CobraWalk::new(k);
        let faulty = FaultyCobraWalk::new(k, FaultPlan::none());
        // 96 trials: ≥ 64 so the lane route runs a full-width batch plus
        // a truncated one, covering both of its collection paths.
        let plan = TrialPlan::new(96, MAX_STEPS, 0xFA017 + u64::from(k));
        for ((name, g), pin) in graphs.iter().zip(pins) {
            let label = |route: &str| format!("k={k}, {name}, {route} route");
            let typed = run_cover_trials_typed(g, &faulty, 0, &plan);
            assert_eq!(outcome_digest(&typed), pin, "{}", label("recorded dyn"));
            assert_outcomes_identical(
                &typed,
                &run_cover_trials_typed(g, &plain, 0, &plan),
                &label("typed"),
            );
            assert_outcomes_identical(
                &lanes_fixed(g, &faulty, &plan),
                &lanes_fixed(g, &plain, &plan),
                &label("lane"),
            );
        }
        // Implicit route, plus the cross-check that the implicit stream
        // still equals the typed CSR stream with the fault seam in place.
        let ig = ImplicitGrid::new(&[7, 7]).unwrap();
        let csr = &graphs[0].1;
        let implicit_faulty = run_cover_trials_implicit(&ig, &faulty, 0, &plan);
        assert_outcomes_identical(
            &implicit_faulty,
            &run_cover_trials_implicit(&ig, &plain, 0, &plan),
            &format!("k={k}, implicit route"),
        );
        assert_outcomes_identical(
            &implicit_faulty,
            &run_cover_trials_typed(csr, &plain, 0, &plan),
            &format!("k={k}, implicit-vs-CSR cross-check"),
        );
    }
}

#[test]
fn none_plan_identity_holds_at_every_worker_count() {
    let g = grid::grid(&[7, 7]);
    let ig = ImplicitGrid::new(&[7, 7]).unwrap();
    let plain = CobraWalk::standard();
    let faulty = FaultyCobraWalk::new(2, FaultPlan::none());
    let plan = TrialPlan::new(96, MAX_STEPS, 0xFA117);

    // Single-thread baselines, one per route.
    let base = in_pool(1, || {
        (
            run_cover_trials_typed(&g, &faulty, 0, &plan),
            lanes_fixed(&g, &faulty, &plan),
            run_cover_trials_implicit(&ig, &faulty, 0, &plan),
        )
    });
    for workers in WORKER_COUNTS {
        let (f_typed, f_lane, f_impl, p_typed, p_lane, p_impl) = in_pool(workers, || {
            (
                run_cover_trials_typed(&g, &faulty, 0, &plan),
                lanes_fixed(&g, &faulty, &plan),
                run_cover_trials_implicit(&ig, &faulty, 0, &plan),
                run_cover_trials_typed(&g, &plain, 0, &plan),
                lanes_fixed(&g, &plain, &plan),
                run_cover_trials_implicit(&ig, &plain, 0, &plan),
            )
        });
        let label = |route: &str| format!("{workers} workers, {route} route");
        // Faulty-none equals plain at this worker count…
        assert_outcomes_identical(&f_typed, &p_typed, &label("typed"));
        assert_outcomes_identical(&f_lane, &p_lane, &label("lane"));
        assert_outcomes_identical(&f_impl, &p_impl, &label("implicit"));
        // …and equals the single-thread baseline (worker independence).
        assert_outcomes_identical(&f_typed, &base.0, &label("typed vs 1-thread"));
        assert_outcomes_identical(&f_lane, &base.1, &label("lane vs 1-thread"));
        assert_outcomes_identical(&f_impl, &base.2, &label("implicit vs 1-thread"));
    }
}

#[test]
fn faulty_plans_are_deterministic_across_worker_counts_and_reruns() {
    let g = grid::grid(&[7, 7]);
    let faulty = FaultyCobraWalk::new(2, lossy_plan());
    // Faulty frontiers can die out entirely (loss + outages), so some
    // trials may censor at the cap — determinism must hold regardless.
    let plan = TrialPlan::new(64, 20_000, 0xFA217);

    let base = in_pool(1, || run_cover_trials_typed(&g, &faulty, 0, &plan));
    for workers in WORKER_COUNTS {
        let (typed, typed_again, implicit) = in_pool(workers, || {
            (
                run_cover_trials_typed(&g, &faulty, 0, &plan),
                run_cover_trials_typed(&g, &faulty, 0, &plan),
                run_cover_trials_implicit(&g, &faulty, 0, &plan),
            )
        });
        assert_outcomes_identical(&typed, &base, &format!("{workers} workers vs 1-thread"));
        assert_outcomes_identical(&typed, &typed_again, &format!("{workers} workers, rerun"));
        assert_outcomes_identical(
            &typed,
            &implicit,
            &format!("{workers} workers, implicit runner vs typed runner"),
        );
    }
}

#[test]
fn adaptive_auto_route_preserves_none_plan_identity_and_faulty_determinism() {
    let g = grid::grid(&[7, 7]);
    let plain = CobraWalk::standard();
    let none = FaultyCobraWalk::new(2, FaultPlan::none());
    let lossy = FaultyCobraWalk::new(2, lossy_plan());
    let rule = StopRule::new(8, 120, 0.05);
    let plan = AdaptivePlan::new(rule, 16, MAX_STEPS, 0xFA317);

    let base_none = in_pool(1, || adaptive_auto(&g, &none, &plan));
    let base_lossy = in_pool(1, || adaptive_auto(&g, &lossy, &plan));
    for workers in WORKER_COUNTS {
        let (a_none, a_plain, a_lossy) = in_pool(workers, || {
            (
                adaptive_auto(&g, &none, &plan),
                adaptive_auto(&g, &plain, &plan),
                adaptive_auto(&g, &lossy, &plan),
            )
        });
        // The auto router must keep the none-plan on the same engine it
        // picks for the plain walk (lane eligibility is preserved), so
        // the adaptive streams — and stopping decisions — coincide.
        assert_adaptive_identical(
            &a_none,
            &a_plain,
            &format!("{workers} workers, none vs plain"),
        );
        assert_adaptive_identical(&a_none, &base_none, &format!("{workers} workers, none"));
        assert_adaptive_identical(&a_lossy, &base_lossy, &format!("{workers} workers, lossy"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `FaultPlan::none()` identity is not an artifact of the fixed
    /// constants above: it holds for arbitrary branching factors and
    /// master seeds on both scratch routes.
    #[test]
    fn none_plan_identity_is_seed_and_k_independent(
        k in 1u32..5,
        seed in 0u64..u64::MAX,
    ) {
        let g = grid::grid(&[6, 6]);
        let plain = CobraWalk::new(k);
        let faulty = FaultyCobraWalk::new(k, FaultPlan::none());
        let plan = TrialPlan::new(48, 30_000, seed);
        assert_outcomes_identical(
            &run_cover_trials_typed(&g, &faulty, 0, &plan),
            &run_cover_trials_typed(&g, &plain, 0, &plan),
            "proptest typed route",
        );
        assert_outcomes_identical(
            &run_cover_trials_implicit(&g, &faulty, 0, &plan),
            &run_cover_trials_implicit(&g, &plain, 0, &plan),
            "proptest implicit-draw route",
        );
    }

    /// Faulty runs stay positional (worker-count independent) for
    /// arbitrary loss/delay rates and seeds — the property crash-safe
    /// resume leans on.
    #[test]
    fn faulty_runs_are_worker_count_independent(
        k in 1u32..4,
        loss in 0.01f64..0.3,
        delay in 0.0f64..0.5,
        seed in 0u64..u64::MAX,
    ) {
        let g = grid::grid(&[6, 6]);
        let plan_spec = FaultPlan::none().with_pebble_loss(loss).with_delay(delay, 32);
        let faulty = FaultyCobraWalk::new(k, plan_spec);
        let plan = TrialPlan::new(48, 20_000, seed);
        let base = in_pool(1, || run_cover_trials_typed(&g, &faulty, 0, &plan));
        let wide = in_pool(8, || run_cover_trials_typed(&g, &faulty, 0, &plan));
        assert_outcomes_identical(&wide, &base, "proptest faulty 8-vs-1 workers");
        // Trial accounting must stay exact even when faulty frontiers
        // die out and censor: completed + censored == requested.
        prop_assert_eq!(base.summary.count() + base.censored, 48);
    }
}
