//! Helpers the bit-identity suites share: a rayon pool with a fixed
//! worker count, the outcome digest their pinned values were recorded
//! in, full-moment comparators for fixed-plan and adaptive outcomes,
//! and the lane and auto-routed adaptive cover runs from vertex 0.
//!
//! A module, not a test target: a suite declares `mod support;` and
//! uses the subset it needs, so the rest is dead code in that suite.
#![allow(dead_code)]

use cobra_repro::graph::Graph;
use cobra_repro::obs::NoopProbe;
use cobra_repro::sim::runner::{
    run_cover_trials_adaptive_auto_resumable, run_cover_trials_lanes_probed, TrialPlan,
};
use cobra_repro::sim::{AdaptiveOutcome, AdaptivePlan, BatchControl, TrialOutcome};
use cobra_repro::walks::TypedProcess;

/// Run `f` inside a dedicated rayon pool with `workers` threads, so the
/// runners' internal `par_iter` uses exactly that worker count.
pub fn in_pool<T: Send>(workers: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(workers)
        .build()
        .expect("build rayon pool")
        .install(f)
}

/// FNV-1a digest of an outcome's censoring, count, and moments — the form
/// the pinned digests of `probe_neutrality` and `faults` were recorded in.
pub fn outcome_digest(out: &TrialOutcome) -> u64 {
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
pub fn assert_outcomes_identical(a: &TrialOutcome, b: &TrialOutcome, label: &str) {
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

/// Same, for adaptive outcomes — plus the trials consumed and the
/// stopping decision itself.
pub fn assert_adaptive_identical(a: &AdaptiveOutcome, b: &AdaptiveOutcome, label: &str) {
    assert_eq!(
        a.trials_run(),
        b.trials_run(),
        "{label}: consumed trial counts differ"
    );
    assert_eq!(
        a.precision_met, b.precision_met,
        "{label}: stopping decisions differ"
    );
    assert_outcomes_identical(&a.to_trial_outcome(), &b.to_trial_outcome(), label);
}

/// A fixed-plan lane run from vertex 0.
pub fn lanes_fixed<P: TypedProcess>(g: &Graph, process: &P, plan: &TrialPlan) -> TrialOutcome {
    run_cover_trials_lanes_probed(g, process, 0, plan, |_| NoopProbe).0
}

/// An uninterrupted adaptive cover run from vertex 0 through the auto
/// router.
pub fn adaptive_auto<P: TypedProcess>(
    g: &Graph,
    process: &P,
    plan: &AdaptivePlan,
) -> AdaptiveOutcome {
    run_cover_trials_adaptive_auto_resumable(g, process, 0, plan, Vec::new(), |_| {
        BatchControl::Continue
    })
    .outcome
}
