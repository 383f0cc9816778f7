//! Reusable per-worker scratch for batched Monte-Carlo trials.
//!
//! The paper's empirical claims are pinned by sweeps of thousands of
//! short trials, so per-trial *setup* — allocating and zeroing two
//! frontiers, a coverage bitmap, and the process state — was the dominant
//! waste once the step kernel itself got fast. A [`TrialScratch`] owns
//! all of that mutable state for one worker; the scratch-borrowing
//! drivers ([`crate::CoverDriver::run_typed_in`] /
//! [`crate::HittingDriver::run_typed_in`]) reinitialize it per trial:
//!
//! * the typed process state is rebuilt in place by
//!   [`TypedProcess::respawn_typed`] (frontier clears are O(members), see
//!   `Frontier::clear`);
//! * the coverage bitmap's [`SuccinctCoverage::reset`] is one zeroing
//!   pass, no more than a completed cover already paid to fill it.
//!
//! After the first trial warms the buffers up, the steady-state trial
//! path performs **zero heap allocations** (pinned by
//! `tests/zero_alloc.rs`). Each rayon worker lazily builds one scratch
//! via `map_init` and reuses it across all of the worker's chunks, so
//! the amortized setup cost per trial is ~nothing.

use crate::coverage::SuccinctCoverage;
use crate::process::TypedProcess;
use cobra_graph::{ImplicitGraph, Vertex};

/// Reusable state for a stream of trials of one process type on one graph
/// (a different graph — e.g. the next sweep cell — triggers a one-time
/// rebuild of the mismatched pieces).
#[derive(Debug)]
pub struct TrialScratch<S> {
    /// The reused typed process state; `None` until the first trial.
    pub(crate) state: Option<S>,
    /// The reused coverage bitmap.
    pub(crate) covered: SuccinctCoverage,
}

impl<S> TrialScratch<S> {
    /// Scratch sized for `g` (CSR or implicit). The process state itself
    /// is created lazily on the first trial (the driver knows the
    /// process, this constructor does not need to).
    pub fn new<G: ImplicitGraph + ?Sized>(g: &G) -> Self {
        TrialScratch {
            state: None,
            covered: SuccinctCoverage::new(g.num_vertices()),
        }
    }

    /// Reinitialize for a trial of `process` from `start` on `g`: respawn
    /// (or lazily spawn) the state and reset the coverage bitmap. Returns
    /// the ready state; allocation-free once warm.
    pub(crate) fn prepare<'a, G, P>(&'a mut self, g: &G, process: &P, start: Vertex) -> &'a mut S
    where
        G: ImplicitGraph + ?Sized,
        P: TypedProcess<G, State = S>,
    {
        if self.covered.capacity() != g.num_vertices() {
            self.covered = SuccinctCoverage::new(g.num_vertices());
        } else {
            self.covered.reset();
        }
        match self.state {
            Some(ref mut state) => process.respawn_typed(g, start, state),
            None => self.state = Some(process.spawn_typed(g, start)),
        }
        self.state.as_mut().expect("state just ensured")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cobra::CobraWalk;
    use crate::process::StateView;
    use cobra_graph::generators::classic;

    #[test]
    fn prepare_spawns_then_reuses() {
        let g = classic::cycle(32).unwrap();
        let spec = CobraWalk::standard();
        let mut scratch = TrialScratch::new(&g);
        assert!(scratch.state.is_none());
        {
            let st = scratch.prepare(&g, &spec, 5);
            assert_eq!(st.active().to_vec(), [5]);
        }
        assert!(scratch.state.is_some());
        let st = scratch.prepare(&g, &spec, 9);
        assert_eq!(st.active().to_vec(), [9], "respawn must relocate the start");
    }

    #[test]
    fn prepare_rebuilds_on_graph_change() {
        let small = classic::cycle(16).unwrap();
        let big = classic::cycle(64).unwrap();
        let spec = CobraWalk::standard();
        let mut scratch = TrialScratch::new(&small);
        scratch.prepare(&small, &spec, 0);
        assert_eq!(scratch.covered.capacity(), 16);
        let st = scratch.prepare(&big, &spec, 3);
        assert_eq!(st.active().to_vec(), [3]);
        assert_eq!(scratch.covered.capacity(), 64);
    }

    #[test]
    fn mask_resets_between_trials() {
        let g = classic::complete(10).unwrap();
        let spec = CobraWalk::standard();
        let mut scratch = TrialScratch::new(&g);
        scratch.prepare(&g, &spec, 0);
        scratch.covered.mark_slice(&[0, 1, 2]);
        assert_eq!(scratch.covered.count(), 3);
        scratch.prepare(&g, &spec, 0);
        assert_eq!(scratch.covered.count(), 0, "prepare must reset coverage");
    }
}
