//! Shared pieces of the three workloads: the run context, seed
//! derivation, worker pools, the timed loops, and the process enum that
//! lets one cell list mix process types.

use cobra_core::{CobraWalk, FaultyCobraWalk, SimpleWalk};
use cobra_sim::{SeedSequence, TrialOutcome};
use std::path::PathBuf;
use std::time::Instant;

/// Worker count of every end-to-end measurement: one closed-loop caller
/// on one worker, the steadiest setting on a small machine.
pub const WORKERS: usize = 1;

/// What one invocation was asked to do, plus facts about the machine.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    pub commit: String,
    /// Where run artifacts (manifests, checkpoints, span files) go.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Worker count of the second point of the scaling measurement:
    /// two workers where the machine has them, never oversubscribed.
    pub fn w2(&self) -> usize {
        self.nproc.clamp(1, 2)
    }
}

/// Seed-stage labels of the benchmark: every input is derived from the
/// workload seed through `SeedSequence::child(stage + arm)`, with stages
/// 0x1000 labels apart so no two stages can alias.
pub mod stage {
    pub const LANES_SMALL: u64 = 0xB000;
    pub const IMPLICIT_LARGE: u64 = 0xB100;
    pub const SWEEP_GRAPHS: u64 = 0xB200;
    pub const SWEEP_CELLS: u64 = 0xB300;
    pub const SWEEP_RUNS: u64 = 0xB400;
}

/// The master seed of arm `arm` of `stage`, derived from the workload seed.
pub fn stage_seed(seed: u64, stage: u64, arm: u64) -> u64 {
    assert!(arm < 0x100, "arm {arm} outside its stage block");
    SeedSequence::new(seed).child(stage + arm).seed_at(0)
}

/// Run `f` with the engine's parallel runners limited to `workers`.
pub fn with_workers<T>(workers: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(workers)
        .build()
        .expect("the vendored pool cannot fail to build")
        .install(f)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A bit-exact fingerprint of a trial outcome: counts plus the bit
/// patterns of the summary moments and extremes.
pub type Digest = (usize, usize, u64, u64, u64, u64);

pub fn digest(out: &TrialOutcome) -> Digest {
    let s = &out.summary;
    let bits = |f: fn(&cobra_sim::Summary) -> f64| {
        if s.count() == 0 {
            0
        } else {
            f(s).to_bits()
        }
    };
    (
        s.count(),
        out.censored,
        bits(cobra_sim::Summary::mean),
        bits(cobra_sim::Summary::variance),
        bits(cobra_sim::Summary::min),
        bits(cobra_sim::Summary::max),
    )
}

/// The same fingerprint for a per-trial outcome stream.
pub fn digest_times(times: &[Option<usize>]) -> Digest {
    let mut summary = cobra_sim::Summary::new();
    let mut censored = 0;
    for t in times {
        match t {
            Some(s) => summary.push(*s as f64),
            None => censored += 1,
        }
    }
    digest(&TrialOutcome { summary, censored })
}

/// The processes a cell list may mix.
#[derive(Clone, Debug)]
pub enum Proc {
    Cobra(CobraWalk),
    Simple(SimpleWalk),
    Faulty(FaultyCobraWalk),
}

/// Evaluate `$body` with `$p` bound to the concrete process of `$proc`.
macro_rules! with_process {
    ($proc:expr, $p:ident => $body:expr) => {
        match $proc {
            $crate::common::Proc::Cobra($p) => $body,
            $crate::common::Proc::Simple($p) => $body,
            $crate::common::Proc::Faulty($p) => $body,
        }
    };
}
pub(crate) use with_process;

/// Fewest rounds in which a `k`-branching walk from one vertex can have
/// visited `n` vertices: after `t` rounds at most `(k^(t+1) − 1)/(k − 1)`.
pub fn branching_floor(n: usize, k: u32) -> usize {
    if k < 2 {
        return 0;
    }
    let (mut reach, mut layer, mut t) = (1usize, 1usize, 0usize);
    while reach < n {
        layer = layer.saturating_mul(k as usize);
        reach = reach.saturating_add(layer);
        t += 1;
    }
    t
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// `(failed + ½) ÷ (attempted + 1)`: the failure share as its Jeffreys
/// estimate, so it is never 0 and any failure at least triples it.
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    (failed as f64 + 0.5) / (attempted as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branching_floor_counts_doubling_rounds() {
        assert_eq!(branching_floor(1, 2), 0);
        assert_eq!(branching_floor(3, 2), 1);
        assert_eq!(branching_floor(4, 2), 2);
        assert_eq!(branching_floor(64, 2), 6);
        assert_eq!(branching_floor(64, 1), 0);
    }

    #[test]
    fn failed_share_is_never_zero() {
        assert!(failed_share(0, 1000) > 0.0);
        assert!(failed_share(1, 1000) >= 3.0 * failed_share(0, 1000));
    }

    #[test]
    fn stage_seeds_differ_across_stages_and_arms() {
        let a = stage_seed(1, stage::LANES_SMALL, 0);
        assert_ne!(a, stage_seed(1, stage::LANES_SMALL, 1));
        assert_ne!(a, stage_seed(1, stage::IMPLICIT_LARGE, 0));
        assert_ne!(a, stage_seed(2, stage::LANES_SMALL, 0));
    }
}
