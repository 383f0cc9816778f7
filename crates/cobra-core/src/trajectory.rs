//! Trajectory instrumentation: per-round records of a running process,
//! used by the growth-phase experiment (E15) and the examples.
//!
//! The §4 analysis of the prior cobra paper split expander coverage into
//! an *exponential growth phase* (active set grows from 1 to δn) and a
//! *coverage phase*. [`record_trajectory`] captures both: active-set
//! sizes, coverage curve, and the first round the active set reached a
//! target fraction. The record is a [`Probe`] on the cover driver's own
//! loop, so a recorded run is the run [`crate::CoverDriver`] makes.

use crate::measure::CoverDriver;
use crate::process::{ImplicitDraw, TypedProcess};
use crate::scratch::TrialScratch;
use cobra_graph::{Graph, Vertex};
use cobra_obs::Probe;
use rand::Rng;

/// Per-round record of a process run.
#[derive(Clone, Debug, Default)]
pub struct Trajectory {
    /// `active[t]` = the state's support size after round `t+1`.
    pub active: Vec<usize>,
    /// `covered[t]` = cumulative distinct vertices covered after round `t+1`.
    pub covered: Vec<usize>,
    /// Round at which coverage completed (`None` if the budget ran out).
    pub completed_at: Option<usize>,
}

impl Trajectory {
    /// First round (1-based) at which the active set reached
    /// `fraction · n`, if ever. This is the "growth phase length" of the
    /// §4 two-phase analysis.
    pub fn rounds_to_active_fraction(&self, n: usize, fraction: f64) -> Option<usize> {
        assert!((0.0..=1.0).contains(&fraction));
        let target = (fraction * n as f64).ceil() as usize;
        self.active.iter().position(|&a| a >= target).map(|i| i + 1)
    }

    /// First round (1-based) at which cumulative coverage reached
    /// `fraction · n`, if ever.
    pub fn rounds_to_coverage_fraction(&self, n: usize, fraction: f64) -> Option<usize> {
        assert!((0.0..=1.0).contains(&fraction));
        let target = (fraction * n as f64).ceil() as usize;
        self.covered
            .iter()
            .position(|&c| c >= target)
            .map(|i| i + 1)
    }

    /// Per-round multiplicative growth rates of the active set during the
    /// strict-growth prefix (until the first non-increase). The §4
    /// exponential-phase claim predicts these stay ≈ constant > 1 on
    /// expanders until saturation.
    pub fn growth_rates(&self) -> Vec<f64> {
        let mut rates = Vec::new();
        let mut prev = 1.0f64;
        for &a in &self.active {
            let cur = a as f64;
            if cur <= prev {
                break;
            }
            rates.push(cur / prev);
            prev = cur;
        }
        rates
    }

    /// Peak active-set size.
    pub fn peak_active(&self) -> usize {
        self.active.iter().copied().max().unwrap_or(0)
    }
}

/// Records the run it observes: [`Probe::on_round`] appends to
/// `active`, [`Probe::on_coverage`] after a round appends to `covered`
/// (the driver's report of the start configuration, before round 1, is
/// not a round and is skipped), and [`Probe::on_trial_end`] sets
/// `completed_at`.
impl Probe for Trajectory {
    fn on_round(&mut self, _round: u64, frontier: u64) {
        self.active.push(frontier as usize);
    }

    fn on_coverage(&mut self, _newly: u64, total: u64) {
        if self.covered.len() < self.active.len() {
            self.covered.push(total as usize);
        }
    }

    fn on_trial_end(&mut self, steps: u64, completed: bool) {
        self.completed_at = completed.then_some(steps as usize);
    }
}

/// Run `process` from `start` for at most `max_steps` rounds (stopping
/// early on full coverage), recording the trajectory. A start that
/// already covers the graph completes at round 0 with empty records.
pub fn record_trajectory<P: TypedProcess, R: Rng + ?Sized>(
    g: &Graph,
    process: &P,
    start: Vertex,
    max_steps: usize,
    rng: &mut R,
) -> Trajectory {
    let mut tr = Trajectory::default();
    CoverDriver::new(g)
        .run_typed_in_probed(
            process,
            &ImplicitDraw,
            &mut TrialScratch::new(g),
            start,
            max_steps,
            rng,
            &mut tr,
        )
        .expect("non-empty graph");
    tr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cobra::CobraWalk;
    use crate::simple::SimpleWalk;
    use cobra_graph::generators::classic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn records_complete_run() {
        let g = classic::complete(32).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let tr = record_trajectory(&g, &CobraWalk::standard(), 0, 100_000, &mut rng);
        let t = tr.completed_at.expect("K32 must be covered");
        assert_eq!(tr.active.len(), t);
        assert_eq!(tr.covered.len(), t);
        assert_eq!(*tr.covered.last().unwrap(), 32);
        // Coverage curve is monotone.
        assert!(tr.covered.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn budget_exhaustion_leaves_incomplete() {
        let g = classic::path(100).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let tr = record_trajectory(&g, &SimpleWalk::new(), 0, 5, &mut rng);
        assert_eq!(tr.completed_at, None);
        assert_eq!(tr.active.len(), 5);
    }

    #[test]
    fn growth_phase_on_complete_graph_is_logarithmic() {
        let g = classic::complete(128).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let tr = record_trajectory(&g, &CobraWalk::standard(), 0, 100_000, &mut rng);
        let growth = tr
            .rounds_to_active_fraction(128, 0.25)
            .expect("reaches n/4");
        // Doubling from 1 to 32 takes ≥ 5 rounds; should be well under 30.
        assert!((5..30).contains(&growth), "growth phase length {growth}");
        let half_cover = tr.rounds_to_coverage_fraction(128, 0.5).unwrap();
        assert!(half_cover >= growth / 2);
    }

    #[test]
    fn growth_rates_capped_by_branching() {
        let g = classic::complete(64).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let tr = record_trajectory(&g, &CobraWalk::standard(), 0, 100_000, &mut rng);
        for (i, r) in tr.growth_rates().iter().enumerate() {
            assert!(*r <= 2.0 + 1e-9, "rate {r} at {i} exceeds branching factor");
            assert!(*r > 1.0);
        }
        assert!(tr.peak_active() > 1);
    }

    #[test]
    fn start_that_covers_the_graph_completes_at_round_zero() {
        let g = cobra_graph::builder::from_edges(1, &[]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for tr in [
            record_trajectory(&g, &CobraWalk::standard(), 0, 10, &mut rng),
            record_trajectory(&g, &SimpleWalk::new(), 0, 10, &mut rng),
        ] {
            assert_eq!(tr.completed_at, Some(0));
            assert!(tr.active.is_empty());
            assert!(tr.covered.is_empty());
        }
    }

    #[test]
    fn fraction_queries_validate() {
        let tr = Trajectory {
            active: vec![1, 2, 4],
            covered: vec![1, 3, 7],
            completed_at: None,
        };
        assert_eq!(tr.rounds_to_active_fraction(8, 0.5), Some(3));
        assert_eq!(tr.rounds_to_active_fraction(8, 1.0), None);
        assert_eq!(tr.rounds_to_coverage_fraction(8, 0.375), Some(2));
    }
}
