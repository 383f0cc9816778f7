//! Sequential stopping: run trials until the mean's confidence interval is
//! tight enough (or a budget is exhausted).
//!
//! Long sweeps waste most of their time over-sampling easy cells; the
//! adaptive runner keeps per-cell cost proportional to variance. The
//! serial loop lives here ([`run_until_precise`]); the batched parallel
//! engine that the orchestrator's sweep cells actually run through is
//! [`crate::runner::run_cover_trials_adaptive_auto_resumable`] (and its
//! hitting twin), which share this module's [`StopRule`] and are defined
//! to be bit-identical to the serial loop's stopping decision.

use crate::stats::{z_for_level, Summary};

/// Stopping criteria for adaptive trial loops.
#[derive(Clone, Copy, Debug)]
pub struct StopRule {
    /// Minimum trials before the CI is consulted at all.
    pub min_trials: usize,
    /// Hard cap on trials.
    pub max_trials: usize,
    /// Target relative CI half-width: stop when
    /// `z·stderr / mean ≤ rel_precision`.
    pub rel_precision: f64,
    /// Confidence level of the CI the rule consults (0.90/0.95/0.99);
    /// `z` comes from the same [`z_for_level`] table as
    /// [`Summary::mean_ci`], so a rule at 0.99 really is stricter than
    /// one at 0.95 instead of silently using a hard-coded 1.96.
    pub confidence: f64,
}

impl StopRule {
    /// A rule with sanity checks, at the default 95% confidence level.
    pub fn new(min_trials: usize, max_trials: usize, rel_precision: f64) -> Self {
        assert!(min_trials >= 2, "need >= 2 trials for a stderr");
        assert!(max_trials >= min_trials, "max >= min");
        assert!(rel_precision > 0.0, "precision must be positive");
        StopRule {
            min_trials,
            max_trials,
            rel_precision,
            confidence: 0.95,
        }
    }

    /// Override the confidence level (builder style). Panics on levels
    /// outside the shared z-table (0.90/0.95/0.99).
    pub fn with_confidence(mut self, level: f64) -> Self {
        let _ = z_for_level(level); // validate eagerly
        self.confidence = level;
        self
    }

    /// Whether the summary satisfies the precision target.
    pub fn satisfied(&self, summary: &Summary) -> bool {
        if summary.count() < self.min_trials {
            return false;
        }
        let mean = summary.mean();
        if mean == 0.0 {
            // Degenerate: all-zero measurements are already exact.
            return summary.stddev() == 0.0;
        }
        summary.ci_half_width(self.confidence) / mean.abs() <= self.rel_precision
    }
}

/// How an adaptive batch of trials runs: the stopping rule, the batch
/// size between CI consultations, and the per-trial plan fields shared
/// with [`crate::runner::TrialPlan`].
///
/// The seeding invariant: trial `i` of the run — **globally indexed**,
/// regardless of which batch or worker executes it — draws its RNG from
/// `SeedSequence::new(master_seed).seed_at(i)`, and the stopping decision
/// is evaluated as if the CI were consulted after every trial in global
/// index order. Batches only decide how much work runs *speculatively*
/// in parallel before the next consultation; trials past the stopping
/// index are discarded. Results are therefore bit-identical across
/// worker counts and batch sizes, and to the serial
/// [`run_until_precise`] loop over the same per-trial outcomes.
#[derive(Clone, Copy, Debug)]
pub struct AdaptivePlan {
    /// When to stop.
    pub rule: StopRule,
    /// Trials launched in parallel between CI consultations.
    pub batch: usize,
    /// Per-trial round budget (trials that exhaust it are censored).
    pub max_steps: usize,
    /// Master seed; trial `i` uses `SeedSequence::new(master).seed_at(i)`.
    pub master_seed: u64,
}

impl AdaptivePlan {
    /// Convenience constructor.
    pub fn new(rule: StopRule, batch: usize, max_steps: usize, master_seed: u64) -> Self {
        assert!(batch >= 1, "need a positive batch size");
        assert!(max_steps >= 1, "need a positive step budget");
        AdaptivePlan {
            rule,
            batch,
            max_steps,
            master_seed,
        }
    }
}

/// Run `trial(i)` adaptively until the rule is satisfied or `max_trials`
/// is hit; returns the summary and whether the precision target was met.
///
/// Serial reference loop: the parallel engine in [`crate::runner`] is
/// pinned (tests/adaptive.rs) to stop at exactly the same trial index.
pub fn run_until_precise<F: FnMut(usize) -> f64>(rule: &StopRule, mut trial: F) -> (Summary, bool) {
    let mut summary = Summary::new();
    for i in 0..rule.max_trials {
        summary.push(trial(i));
        // `satisfied` already enforces `min_trials`, so no separate
        // warm-up guard here.
        if rule.satisfied(&summary) {
            return (summary, true);
        }
    }
    (summary, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn constant_data_stops_at_min() {
        let rule = StopRule::new(5, 1000, 0.01);
        let (summary, ok) = run_until_precise(&rule, |_| 42.0);
        assert!(ok);
        assert_eq!(summary.count(), 5);
        assert_eq!(summary.mean(), 42.0);
    }

    #[test]
    fn zero_data_is_satisfied() {
        let rule = StopRule::new(3, 100, 0.1);
        let (summary, ok) = run_until_precise(&rule, |_| 0.0);
        assert!(ok);
        assert_eq!(summary.count(), 3);
    }

    #[test]
    fn noisy_data_runs_longer_for_tighter_precision() {
        let run = |precision: f64| {
            let mut rng = StdRng::seed_from_u64(1);
            let rule = StopRule::new(5, 100_000, precision);
            let (s, ok) = run_until_precise(&rule, |_| 50.0 + 20.0 * (rng.random::<f64>() - 0.5));
            assert!(ok);
            s.count()
        };
        let loose = run(0.05);
        let tight = run(0.005);
        assert!(
            tight > loose,
            "tight {tight} should need more than loose {loose}"
        );
    }

    #[test]
    fn higher_confidence_needs_more_trials() {
        // The satellite bug this pins: with z hard-coded at 1.96, a 0.99
        // rule would stop exactly where a 0.95 rule does. Through the
        // shared z-table the 0.99 rule (z = 2.5758) must demand a tighter
        // stderr and therefore more trials on the same data stream.
        let run = |confidence: f64| {
            let mut rng = StdRng::seed_from_u64(77);
            let rule = StopRule::new(5, 100_000, 0.02).with_confidence(confidence);
            let (s, ok) = run_until_precise(&rule, |_| 10.0 + 4.0 * (rng.random::<f64>() - 0.5));
            assert!(ok);
            s.count()
        };
        let at90 = run(0.90);
        let at95 = run(0.95);
        let at99 = run(0.99);
        assert!(
            at90 <= at95 && at95 < at99,
            "trial counts must be monotone in confidence: {at90} / {at95} / {at99}"
        );
    }

    #[test]
    fn default_confidence_matches_mean_ci_width() {
        // One z-table: the rule's threshold quantity must be exactly the
        // half-width `mean_ci(0.95)` reports.
        let s = Summary::from_slice(&[3.0, 5.0, 7.0, 9.0, 11.0]);
        let (lo, hi) = s.mean_ci(0.95);
        let half = (hi - lo) / 2.0;
        assert!((s.ci_half_width(0.95) - half).abs() < 1e-12);
        let rule = StopRule::new(2, 10, half / s.mean() + 1e-12);
        assert!(rule.satisfied(&s));
        let stricter = StopRule::new(2, 10, half / s.mean() - 1e-9);
        assert!(!stricter.satisfied(&s));
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn rejects_unknown_confidence() {
        let _ = StopRule::new(2, 10, 0.1).with_confidence(0.5);
    }

    #[test]
    fn budget_exhaustion_reports_failure() {
        let mut rng = StdRng::seed_from_u64(2);
        // Extremely noisy data, tiny budget, very tight target.
        let rule = StopRule::new(2, 10, 1e-6);
        let (s, ok) = run_until_precise(&rule, |_| rng.random::<f64>() * 1000.0);
        assert!(!ok);
        assert_eq!(s.count(), 10);
    }

    #[test]
    #[should_panic(expected = "max >= min")]
    fn rejects_inverted_bounds() {
        StopRule::new(10, 5, 0.1);
    }

    #[test]
    #[should_panic(expected = "positive batch")]
    fn plan_rejects_zero_batch() {
        AdaptivePlan::new(StopRule::new(2, 10, 0.1), 0, 100, 1);
    }
}
