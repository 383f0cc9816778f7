//! Parallel Monte-Carlo trial execution.
//!
//! Trials fan out over rayon workers; each trial gets an independent,
//! deterministically derived RNG (see [`crate::seeds`]), so results are
//! bit-reproducible regardless of thread scheduling.
//!
//! Every runner is a short forward to one body: a cell's *trial stream*
//! — the per-trial outcomes of its engine, indexed by global trial
//! number and random-access — extended once for a fixed run, or batch by
//! batch (resumable from any consumed prefix) for an adaptive run. The
//! stream is generic over the graph and a probe factory, and both of its
//! engines draw neighbors through [`ImplicitDraw`]. The only engine
//! choice is [`lane_cover_applies`], which sends small CSR cover cells to
//! the bit-sliced 64-lane engine and everything else to the per-trial
//! scratch engine.

use crate::convergence::{AdaptivePlan, StopRule};
use crate::seeds::SeedSequence;
use crate::stats::{EmptySummary, Summary};
use cobra_core::{
    run_lane_cover_probed, CoverDriver, ImplicitDraw, LaneScratch, TrialScratch, TypedProcess,
    LANE_WIDTH,
};
use cobra_graph::{Graph, ImplicitGraph, Vertex};
use cobra_obs::{NoopProbe, Probe};
use rayon::prelude::*;

/// How many trials to run and how long each may take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrialPlan {
    /// Number of independent trials.
    pub trials: usize,
    /// Per-trial round budget.
    pub max_steps: usize,
    /// Master seed; trial `i` uses seed `SeedSequence::new(master).seed_at(i)`.
    pub master_seed: u64,
}

impl TrialPlan {
    /// Convenience constructor.
    pub fn new(trials: usize, max_steps: usize, master_seed: u64) -> Self {
        assert!(trials >= 1, "need at least one trial");
        assert!(max_steps >= 1, "need a positive step budget");
        TrialPlan {
            trials,
            max_steps,
            master_seed,
        }
    }
}

/// Aggregated outcome of a batch of trials.
#[derive(Clone, Debug)]
pub struct TrialOutcome {
    /// Summary of the measured times over **completed** trials.
    pub summary: Summary,
    /// Trials that exhausted the budget without completing. Censored
    /// trials are *excluded* from `summary`; a nonzero count signals the
    /// budget should be raised.
    pub censored: usize,
}

impl TrialOutcome {
    /// The summary over completed trials, or `Err(EmptySummary)` when
    /// every trial was censored — use this instead of reading `summary`
    /// directly when a too-small budget is a reachable condition, so the
    /// failure is an explicit error rather than a downstream panic on
    /// `Summary::mean`.
    pub fn completed_summary(&self) -> Result<&Summary, EmptySummary> {
        if self.summary.count() == 0 {
            Err(EmptySummary)
        } else {
            Ok(&self.summary)
        }
    }
}

fn aggregate(times: Vec<Option<usize>>) -> TrialOutcome {
    let mut summary = Summary::new();
    let mut censored = 0usize;
    for t in times {
        match t {
            Some(steps) => summary.push(steps as f64),
            None => censored += 1,
        }
    }
    TrialOutcome { summary, censored }
}

/// Largest vertex count for which the bit-sliced lane engine is the
/// default. It is a routing bound, not a measured crossover. In raw
/// trials per second the lane engine still led the scratch engine at
/// n = 4096: 17–35× on the cycle and the 64×64 grid and 4× on the star,
/// for 640 2-cobra covers from vertex 0 on one worker of a 2-core
/// x86-64 VM. Raw speed counts a batch's correlated lanes as
/// independent trials, though; effective speed divides it by the cell's
/// design effect, which is about 23 on the 256-vertex star already. A
/// larger bound would trade effective samples for raw speed on such
/// cells.
pub const LANE_MAX_N: usize = 1024;

/// Whether the bit-sliced lane engine applies to a cover cell: the graph
/// must be small (`n ≤` [`LANE_MAX_N`]), the workload wide enough to
/// fill lanes (`trials ≥` [`LANE_WIDTH`]), and the process must have a
/// lane-parallel form ([`TypedProcess::lane_branching`] — `k`-cobra
/// walks and the simple walk do; processes with per-pebble auxiliary
/// state or faults do not).
///
/// For adaptive runs pass the rule's `max_trials`: eligibility must not
/// depend on how many trials end up consumed, or the engine choice
/// (and with it the RNG stream) would depend on the data.
///
/// The lane engine is **CSR-only by construction**: this gate takes
/// `&Graph` (not a generic [`ImplicitGraph`]) because the lane kernel
/// ([`cobra_core::run_lane_cover`]) takes a [`Graph`]: it pays only below
/// [`LANE_MAX_N`] vertices, where a graph is cheap to hold as CSR.
/// Implicit families must not be squeezed through a CSR conversion just
/// to reach the lanes — they route through [`run_cover_trials_implicit`],
/// whose stream stays bit-compatible with the scratch engine. Keeping
/// the `&Graph` signature here makes misrouting a compile error rather
/// than a silent de-implicitization.
pub fn lane_cover_applies<P: TypedProcess>(g: &Graph, process: &P, trials: usize) -> bool {
    g.num_vertices() <= LANE_MAX_N && trials >= LANE_WIDTH && process.lane_branching().is_some()
}

/// The engine a [`TrialStream`] draws its outcomes from.
enum Engine<'a> {
    /// The per-trial scratch engine: one [`TrialScratch`] per worker and
    /// trial `i` seeded from `SeedSequence::rng_at(i)`.
    Scratch,
    /// The bit-sliced lane engine for `k`-out-choice cover processes:
    /// batch `b` of [`LANE_WIDTH`] trials seeded from
    /// `SeedSequence::rng_at(b)`. Trial `i` is lane `i % 64` of batch
    /// `i / 64`, and every batch runs all 64 lanes against the full mask
    /// — a narrower mask would change the shared-draw stream — so a
    /// shorter run is a bitwise prefix of a longer one.
    Lanes { g: &'a Graph, k: u32 },
}

/// One cell's per-trial outcome stream: `Some(steps)` for a completed
/// trial, `None` for a censored one, in global trial order.
///
/// Each outcome depends only on its global index and the master seed,
/// so the stream is bit-identical at any worker count and for any
/// partition into consecutive extensions — the property that makes a
/// fixed run an adaptive run's prefix and lets a checkpointed prefix
/// resume exactly.
struct TrialStream<'a, G: ?Sized, P> {
    g: &'a G,
    process: &'a P,
    engine: Engine<'a>,
    start: Vertex,
    /// `None` measures cover times, `Some(v)` hitting times of `v`.
    target: Option<Vertex>,
    max_steps: usize,
    seq: SeedSequence,
}

impl<'a, G, P> TrialStream<'a, G, P>
where
    G: ImplicitGraph + ?Sized,
    P: TypedProcess<G>,
{
    /// The scratch engine.
    fn scratch(
        g: &'a G,
        process: &'a P,
        start: Vertex,
        target: Option<Vertex>,
        max_steps: usize,
        master_seed: u64,
    ) -> Self {
        TrialStream {
            g,
            process,
            engine: Engine::Scratch,
            start,
            target,
            max_steps,
            seq: SeedSequence::new(master_seed),
        }
    }

    /// Outcomes of global trials `lo..` through at least `hi` (the lane
    /// engine rounds up to whole batches), plus one probe per
    /// observation unit: per trial on the scratch engine, per 64-lane
    /// batch on the lane engine (lanes share draws, so per-lane draw
    /// attribution does not exist). Each probe comes from
    /// `make_probe(unit_index)` and sees [`Probe::on_trial_begin`] with
    /// that index before its unit runs.
    fn extend<Pb, F>(&self, lo: usize, hi: usize, make_probe: &F) -> (Vec<Option<usize>>, Vec<Pb>)
    where
        Pb: Probe + Send,
        F: Fn(u64) -> Pb + Sync,
    {
        match &self.engine {
            Engine::Scratch => {
                let pairs: Vec<(Option<usize>, Pb)> = (lo..hi)
                    .into_par_iter()
                    .map_init(
                        || TrialScratch::new(self.g),
                        |scratch, i| {
                            let mut rng = self.seq.rng_at(i as u64);
                            let mut probe = make_probe(i as u64);
                            probe.on_trial_begin(i as u64);
                            let res = CoverDriver::new(self.g)
                                .run_typed_in_probed(
                                    self.process,
                                    &ImplicitDraw,
                                    scratch,
                                    self.start,
                                    self.target,
                                    self.max_steps,
                                    &mut rng,
                                    &mut probe,
                                )
                                .expect("non-empty graph");
                            (res.completed.then_some(res.steps), probe)
                        },
                    )
                    .collect();
                pairs.into_iter().unzip()
            }
            Engine::Lanes { g, k } => {
                let first = lo / LANE_WIDTH;
                let outs: Vec<_> = (first..hi.div_ceil(LANE_WIDTH))
                    .into_par_iter()
                    .map_init(
                        || LaneScratch::new(g),
                        |scratch, b| {
                            let mut rng = self.seq.rng_at(b as u64);
                            let mut probe = make_probe(b as u64);
                            probe.on_trial_begin(b as u64);
                            let out = run_lane_cover_probed(
                                g,
                                &ImplicitDraw,
                                *k,
                                self.start,
                                u64::MAX,
                                self.max_steps,
                                scratch,
                                &mut rng,
                                &mut probe,
                            );
                            (out, probe)
                        },
                    )
                    .collect();
                let mut times = Vec::with_capacity(outs.len() * LANE_WIDTH);
                let mut probes = Vec::with_capacity(outs.len());
                for (out, probe) in outs {
                    times.extend((0..LANE_WIDTH).map(|lane| out.cover_time(lane)));
                    probes.push(probe);
                }
                // When `lo` sits mid-batch, that batch's already-consumed
                // lanes were recomputed whole; drop them.
                times.drain(..lo - first * LANE_WIDTH);
                (times, probes)
            }
        }
    }

    /// A fixed run: the stream's first `trials` outcomes in one
    /// extension. Surplus lanes of a partial tail batch are discarded
    /// here, preserving the prefix property.
    fn run_fixed<Pb, F>(&self, trials: usize, make_probe: F) -> (TrialOutcome, Vec<Pb>)
    where
        Pb: Probe + Send,
        F: Fn(u64) -> Pb + Sync,
    {
        let (mut times, probes) = self.extend(0, trials, &make_probe);
        times.truncate(trials);
        (aggregate(times), probes)
    }

    /// An adaptive run, resumable at batch boundaries: extend the stream
    /// until `plan.rule` decides, starting from the checkpointed `prior`
    /// prefix.
    ///
    /// Semantics: trials are conceptually consumed one at a time in
    /// global index order, with the stop rule consulted after every
    /// trial — exactly the serial [`crate::convergence::run_until_precise`]
    /// loop. Execution speculates ahead through [`TrialStream::extend`],
    /// then replays the new outcomes serially against the rule. Because
    /// each trial's outcome depends only on its global index, and the
    /// stopping index only on the ordered prefix of outcomes, the result
    /// is bit-identical across worker counts, batch sizes, **and** resume
    /// points: a `prior` prefix (from a checkpoint) is replayed through
    /// the rule and the run continues exactly where an uninterrupted run
    /// would be.
    ///
    /// `on_batch` runs at every batch boundary that leaves work
    /// remaining, receiving the consumed prefix — the checkpoint/watchdog
    /// seam.
    fn run_adaptive(
        &self,
        plan: &AdaptivePlan,
        prior: Vec<Option<usize>>,
        mut on_batch: impl FnMut(&[Option<usize>]) -> BatchControl,
    ) -> ResumableOutcome {
        let rule = plan.rule;
        let mut times = prior;
        let mut outcome = replay_outcomes(&rule, &times);
        let mut consumed = outcome.trials_run();
        // Entries past the replayed stopping index (reachable only from a
        // prior that over-ran the rule) are not part of the consumed stream.
        times.truncate(consumed);
        let mut halted = false;
        while consumed < rule.max_trials && !outcome.precision_met && !halted {
            // Never launch past the cap, and never speculate past the first
            // point the rule could actually fire: the opening batch runs
            // exactly to `min_trials` (an easy cell then computes the
            // minimum and nothing more), later batches extend by
            // `plan.batch`. Speculation depth never changes results — only
            // how much computed-then-discarded work a stop can strand.
            let horizon = if consumed < rule.min_trials {
                rule.min_trials
            } else {
                consumed + plan.batch
            };
            let hi = horizon.min(rule.max_trials);
            if times.len() < hi {
                let lo = times.len();
                let more = self.extend(lo, hi, &|_| NoopProbe).0;
                debug_assert!(lo + more.len() >= hi, "extender under-filled the horizon");
                times.extend(more);
            }
            while consumed < hi && !outcome.precision_met {
                outcome.consume(&rule, times[consumed]);
                consumed += 1;
            }
            if !outcome.precision_met && consumed < rule.max_trials {
                if let BatchControl::Halt = on_batch(&times[..consumed]) {
                    halted = true;
                }
            }
        }
        times.truncate(consumed);
        ResumableOutcome {
            outcome,
            times,
            halted,
        }
    }
}

impl<'a, P: TypedProcess> TrialStream<'a, Graph, P> {
    /// The lane engine for a process with a lane-parallel form. Panics
    /// otherwise; eligibility is the caller's job ([`lane_cover_applies`]).
    fn lanes(g: &'a Graph, process: &'a P, start: Vertex, max_steps: usize, seed: u64) -> Self {
        let k = process
            .lane_branching()
            .expect("process has no lane-parallel form");
        TrialStream {
            g,
            process,
            engine: Engine::Lanes { g, k },
            start,
            target: None,
            max_steps,
            seq: SeedSequence::new(seed),
        }
    }
}

/// The engine for a CSR cover cell planned for `trials` trials (an
/// adaptive rule's `max_trials`): lanes when [`lane_cover_applies`],
/// else scratch. This is the one engine choice; it depends only on the
/// cell shape and plan, never on outcomes, so a cell always uses the
/// same engine and stays reproducible.
fn cover_stream<'a, P: TypedProcess>(
    g: &'a Graph,
    process: &'a P,
    start: Vertex,
    max_steps: usize,
    seed: u64,
    trials: usize,
) -> TrialStream<'a, Graph, P> {
    if lane_cover_applies(g, process, trials) {
        TrialStream::lanes(g, process, start, max_steps, seed)
    } else {
        TrialStream::scratch(g, process, start, None, max_steps, seed)
    }
}

/// Measure cover times of `process` from `start` over `plan.trials`
/// independent runs on the batched scratch engine: one [`TrialScratch`]
/// per rayon worker and [`CoverDriver::run_typed_in`] with
/// [`ImplicitDraw`] per trial, so the steady-state trial path allocates
/// nothing and needs no per-graph setup. Trial `i` seeds from
/// [`SeedSequence::seed_at`]`(i)`, so outcomes are bit-identical at any
/// worker count and to a serial [`CoverDriver::run_typed`] loop.
pub fn run_cover_trials_typed<P: TypedProcess>(
    g: &Graph,
    process: &P,
    start: Vertex,
    plan: &TrialPlan,
) -> TrialOutcome {
    run_cover_trials_typed_probed(g, process, start, plan, |_| NoopProbe).0
}

/// [`run_cover_trials_typed`] with one [`Probe`] per trial, built by
/// `make_probe(global_trial_index)` and returned in global trial order.
/// The runner fires [`Probe::on_trial_begin`] with the global index
/// before each trial; because probes are keyed by that index and never
/// touch the RNG, telemetry is bit-reproducible at any worker count and
/// outcomes do not depend on the probe.
pub fn run_cover_trials_typed_probed<P, Pb, F>(
    g: &Graph,
    process: &P,
    start: Vertex,
    plan: &TrialPlan,
    make_probe: F,
) -> (TrialOutcome, Vec<Pb>)
where
    P: TypedProcess,
    Pb: Probe + Send,
    F: Fn(u64) -> Pb + Sync,
{
    run_cover_trials_implicit_probed(g, process, start, plan, make_probe)
}

/// Cover trials for any [`ImplicitGraph`] family (grid, hypercube,
/// complete — or a CSR [`Graph`], which is its own implicit view): the scratch engine with [`ImplicitDraw`] neighbor
/// draws, so an implicit family never materializes an adjacency or
/// offset array and the per-cell setup cost is O(1) in the graph size.
///
/// [`run_cover_trials_typed`] is this runner on `G = Graph`. The
/// implicit families enumerate neighbors in CSR order, so each is
/// **bit-for-bit identical** to its CSR twin on the same plan — pinned
/// by a test below and by `tests/engine_equivalence.rs`.
///
/// This runner never routes to the bit-sliced lane engine, which runs on
/// CSR graphs only (see [`lane_cover_applies`]).
pub fn run_cover_trials_implicit<G, P>(
    g: &G,
    process: &P,
    start: Vertex,
    plan: &TrialPlan,
) -> TrialOutcome
where
    G: ImplicitGraph + ?Sized,
    P: TypedProcess<G>,
{
    run_cover_trials_implicit_probed(g, process, start, plan, |_| NoopProbe).0
}

/// [`run_cover_trials_implicit`] with one [`Probe`] per trial, exactly as
/// [`run_cover_trials_typed_probed`] is to [`run_cover_trials_typed`].
pub fn run_cover_trials_implicit_probed<G, P, Pb, F>(
    g: &G,
    process: &P,
    start: Vertex,
    plan: &TrialPlan,
    make_probe: F,
) -> (TrialOutcome, Vec<Pb>)
where
    G: ImplicitGraph + ?Sized,
    P: TypedProcess<G>,
    Pb: Probe + Send,
    F: Fn(u64) -> Pb + Sync,
{
    TrialStream::scratch(g, process, start, None, plan.max_steps, plan.master_seed)
        .run_fixed(plan.trials, make_probe)
}

/// Measure cover times through the bit-sliced 64-lane engine: whole
/// batches of [`LANE_WIDTH`] trials advance together, sharing neighbor
/// draws across lanes (see [`cobra_core::lanes`]), which is what makes
/// small-`n` cover cells cheap — per-trial dispatch no longer dominates.
///
/// One [`Probe`] per 64-lane **batch** (the lane engine's natural
/// observation unit), built by `make_probe(batch_index)` and returned in
/// batch order; the lane kernel reports rounds, live-lane counts, pooled
/// draw totals, and (vertex, lane) coverage deltas (see
/// [`cobra_core::lanes::run_lane_cover_probed`]).
///
/// Seeding is per *batch* (`SeedSequence::rng_at(batch_index)`), so the
/// result is bit-identical at any worker count, and a run with fewer
/// trials is a bitwise prefix of a longer run with the same master seed.
/// Because lanes share draws, individual trials do **not** reproduce the
/// serial engines' trials; cover-time *distributions* agree (each lane's
/// marginal law is exactly the process — see the module docs), and the
/// `tests/lanes.rs` KS harness pins that.
///
/// The caller is responsible for eligibility ([`lane_cover_applies`]) —
/// this runner itself accepts any typed process with a lane form and
/// panics otherwise.
pub fn run_cover_trials_lanes_probed<P, Pb, F>(
    g: &Graph,
    process: &P,
    start: Vertex,
    plan: &TrialPlan,
    make_probe: F,
) -> (TrialOutcome, Vec<Pb>)
where
    P: TypedProcess,
    Pb: Probe + Send,
    F: Fn(u64) -> Pb + Sync,
{
    TrialStream::lanes(g, process, start, plan.max_steps, plan.master_seed)
        .run_fixed(plan.trials, make_probe)
}

/// Measure hitting times `start → target` of `process` over
/// `plan.trials` independent runs on the batched scratch engine
/// ([`CoverDriver::hit_typed_in`]'s body with [`ImplicitDraw`] and a
/// per-worker [`TrialScratch`]); bit-identical outcomes on the same plan
/// at any worker count.
pub fn run_hitting_trials_typed<P: TypedProcess>(
    g: &Graph,
    process: &P,
    start: Vertex,
    target: Vertex,
    plan: &TrialPlan,
) -> TrialOutcome {
    TrialStream::scratch(
        g,
        process,
        start,
        Some(target),
        plan.max_steps,
        plan.master_seed,
    )
    .run_fixed(plan.trials, |_| NoopProbe)
    .0
}

/// Outcome of an adaptive (sequentially stopped) batch of trials.
#[derive(Clone, Debug)]
pub struct AdaptiveOutcome {
    /// Summary of the measured times over **completed** trials, exactly
    /// the prefix `0..trials_run()` of the plan's global trial stream.
    pub summary: Summary,
    /// Censored trials within that prefix (budget exhausted). Censored
    /// trials count against `rule.max_trials` but never enter `summary`,
    /// so a fully censored cell simply runs to the cap and reports
    /// `precision_met = false` instead of panicking.
    pub censored: usize,
    /// Whether the stop rule's precision target was met before the
    /// trial cap.
    pub precision_met: bool,
}

impl AdaptiveOutcome {
    /// Total trials consumed (completed + censored).
    pub fn trials_run(&self) -> usize {
        self.summary.count() + self.censored
    }

    /// The summary over completed trials, or `Err(EmptySummary)` when
    /// every trial was censored.
    pub fn completed_summary(&self) -> Result<&Summary, EmptySummary> {
        if self.summary.count() == 0 {
            Err(EmptySummary)
        } else {
            Ok(&self.summary)
        }
    }

    /// View as a fixed-plan [`TrialOutcome`] (drops the precision flag),
    /// for code that post-processes both kinds of run uniformly.
    pub fn to_trial_outcome(&self) -> TrialOutcome {
        TrialOutcome {
            summary: self.summary.clone(),
            censored: self.censored,
        }
    }

    /// Consume the stream's next trial under `rule`: a completed time
    /// enters the summary and the rule is consulted, a censored trial is
    /// only counted.
    fn consume(&mut self, rule: &StopRule, t: Option<usize>) {
        match t {
            Some(steps) => {
                self.summary.push(steps as f64);
                self.precision_met = rule.satisfied(&self.summary);
            }
            None => self.censored += 1,
        }
    }
}

/// Control decision returned by an adaptive batch observer: keep
/// consuming batches, or halt at this batch boundary (the consumed
/// prefix so far is exactly what a checkpoint should persist).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchControl {
    /// Continue to the next batch.
    Continue,
    /// Stop at this batch boundary; the run reports `halted = true`.
    Halt,
}

/// Outcome of a resumable adaptive run: the usual [`AdaptiveOutcome`]
/// plus the consumed per-trial outcome stream (global trial order) that
/// a checkpoint persists, and whether the observer halted the run before
/// the rule decided.
#[derive(Clone, Debug)]
pub struct ResumableOutcome {
    /// The adaptive outcome over the consumed prefix.
    pub outcome: AdaptiveOutcome,
    /// Per-trial outcomes for exactly the consumed prefix, in global
    /// trial order (`Some(steps)` completed, `None` censored). Feeding
    /// this back as `prior` resumes the run bit-identically.
    pub times: Vec<Option<usize>>,
    /// Whether the batch observer halted the run. A halted run is
    /// incomplete: `outcome` describes the prefix consumed so far.
    pub halted: bool,
}

/// Replay a consumed-prefix outcome stream through a stop rule,
/// reconstructing the summary/censoring/precision state an uninterrupted
/// adaptive run had after those trials. Stopping decisions are made
/// per-trial in global order, so entries past the stopping index (or the
/// trial cap) are ignored. The orchestrator renders every completed
/// cell's manifest line from this replay, on a fresh run as on
/// `--resume`, so a resumed manifest is byte-identical without
/// recomputing a single trial.
pub fn replay_outcomes(rule: &StopRule, times: &[Option<usize>]) -> AdaptiveOutcome {
    let mut outcome = AdaptiveOutcome {
        summary: Summary::new(),
        censored: 0,
        precision_met: false,
    };
    for &t in times.iter().take(rule.max_trials) {
        if outcome.precision_met {
            break;
        }
        outcome.consume(rule, t);
    }
    outcome
}

/// Adaptive cover trials, resumable at batch boundaries: runs until
/// `plan.rule` is satisfied (or its trial cap is hit) on the 64-lane
/// engine when [`lane_cover_applies`] at the rule's `max_trials`, else
/// on the scratch engine. Eligibility uses the cap — not the consumed
/// count — so the engine choice (and the RNG stream) never depends on
/// the data, and a resumed cell re-routes to the engine its checkpoint
/// came from.
///
/// Seed with a checkpointed `prior` prefix and observe batch boundaries
/// via `on_batch` (the checkpoint/watchdog seam). Trial `i` draws the
/// same outcome as in the fixed runner on the same engine, so a run
/// that consumes `n` trials reproduces that runner's first `n` trials
/// bit-for-bit, at any worker count and batch size — and resuming from
/// any consumed prefix is bit-identical to the uninterrupted run (the
/// lane stream is random-access by batch, so a prior ending mid-batch
/// recomputes only that batch and discards its consumed lanes).
pub fn run_cover_trials_adaptive_auto_resumable<P: TypedProcess>(
    g: &Graph,
    process: &P,
    start: Vertex,
    plan: &AdaptivePlan,
    prior: Vec<Option<usize>>,
    on_batch: impl FnMut(&[Option<usize>]) -> BatchControl,
) -> ResumableOutcome {
    let stream = cover_stream(
        g,
        process,
        start,
        plan.max_steps,
        plan.master_seed,
        plan.rule.max_trials,
    );
    stream.run_adaptive(plan, prior, on_batch)
}

/// Adaptive hitting trials on the scratch engine, resumable at batch
/// boundaries; same seeding and resume invariants as
/// [`run_cover_trials_adaptive_auto_resumable`].
pub fn run_hitting_trials_adaptive_resumable<P: TypedProcess>(
    g: &Graph,
    process: &P,
    start: Vertex,
    target: Vertex,
    plan: &AdaptivePlan,
    prior: Vec<Option<usize>>,
    on_batch: impl FnMut(&[Option<usize>]) -> BatchControl,
) -> ResumableOutcome {
    TrialStream::scratch(
        g,
        process,
        start,
        Some(target),
        plan.max_steps,
        plan.master_seed,
    )
    .run_adaptive(plan, prior, on_batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_core::{CobraWalk, FaultPlan, FaultyCobraWalk, SimpleWalk};
    use cobra_graph::generators::{classic, grid};

    fn noop(_: u64) -> NoopProbe {
        NoopProbe
    }

    fn go_on(_: &[Option<usize>]) -> BatchControl {
        BatchControl::Continue
    }

    /// The scratch engine's stream for a cover cell from vertex 0,
    /// whatever the router would pick for it.
    fn scratch<'a, P: TypedProcess>(
        g: &'a Graph,
        process: &'a P,
        max_steps: usize,
        seed: u64,
    ) -> TrialStream<'a, Graph, P> {
        TrialStream::scratch(g, process, 0, None, max_steps, seed)
    }

    /// The lane engine's stream for a cover cell from vertex 0.
    fn lanes<'a, P: TypedProcess>(
        g: &'a Graph,
        process: &'a P,
        max_steps: usize,
        seed: u64,
    ) -> TrialStream<'a, Graph, P> {
        TrialStream::lanes(g, process, 0, max_steps, seed)
    }

    fn adaptive<P: TypedProcess>(
        stream: &TrialStream<'_, Graph, P>,
        plan: &AdaptivePlan,
    ) -> AdaptiveOutcome {
        stream.run_adaptive(plan, Vec::new(), go_on).outcome
    }

    #[test]
    fn adaptive_prefix_matches_fixed_runner_bitwise() {
        // An adaptive run that consumes n trials must reproduce the fixed
        // runner's first n trials exactly — same seeds, same values.
        let g = classic::cycle(24).unwrap();
        let cobra = CobraWalk::standard();
        let rule = StopRule::new(8, 200, 0.05);
        let plan = AdaptivePlan::new(rule, 16, 100_000, 77);
        let out = adaptive(&scratch(&g, &cobra, 100_000, 77), &plan);
        assert!(out.precision_met);
        let n = out.trials_run();
        assert!((rule.min_trials..=rule.max_trials).contains(&n));
        let fixed = run_cover_trials_typed(&g, &cobra, 0, &TrialPlan::new(n, 100_000, 77));
        assert_eq!(out.summary.count(), fixed.summary.count());
        assert_eq!(out.censored, fixed.censored);
        assert_eq!(out.summary.mean(), fixed.summary.mean());
        assert_eq!(out.summary.median(), fixed.summary.median());
        assert_eq!(out.summary.min(), fixed.summary.min());
        assert_eq!(out.summary.max(), fixed.summary.max());
    }

    #[test]
    fn adaptive_stop_matches_serial_reference() {
        // The engine's stopping index must equal the serial loop's:
        // replay the same per-trial outcomes through run_until_precise.
        let g = classic::complete(16).unwrap();
        let cobra = CobraWalk::standard();
        let rule = StopRule::new(6, 500, 0.04);
        for batch in [1usize, 7, 64] {
            let plan = AdaptivePlan::new(rule, batch, 10_000, 0xAB);
            let out = adaptive(&scratch(&g, &cobra, 10_000, 0xAB), &plan);
            assert!(out.precision_met);
            // Serial oracle: feed the same trial values (complete graph
            // cover always completes) one at a time.
            let seq = SeedSequence::new(plan.master_seed);
            let driver = CoverDriver::new(&g);
            let (oracle, ok) = crate::convergence::run_until_precise(&rule, |i| {
                let mut rng = seq.rng_at(i as u64);
                let res = driver
                    .run_typed(&cobra, 0, plan.max_steps, &mut rng)
                    .unwrap();
                assert!(res.completed);
                res.steps as f64
            });
            assert!(ok);
            assert_eq!(out.summary.count(), oracle.count(), "batch {batch}");
            assert_eq!(out.summary.mean(), oracle.mean(), "batch {batch}");
        }
    }

    #[test]
    fn adaptive_hitting_runs_and_meets_precision() {
        let g = classic::complete(8).unwrap();
        let cobra = CobraWalk::standard();
        let rule = StopRule::new(10, 2000, 0.05);
        let plan = AdaptivePlan::new(rule, 32, 10_000, 5);
        let out = run_hitting_trials_adaptive_resumable(&g, &cobra, 0, 3, &plan, Vec::new(), go_on)
            .outcome;
        assert!(out.precision_met);
        assert_eq!(out.censored, 0);
        assert!(out.summary.mean() > 0.0);
        assert!(out.trials_run() <= rule.max_trials);
    }

    #[test]
    fn adaptive_fully_censored_cell_reports_not_met() {
        // A 5-step budget cannot cover a 60-path: every trial censors.
        // The engine must run to the trial cap and report failure as a
        // value, not a panic.
        let g = classic::path(60).unwrap();
        let rule = StopRule::new(4, 24, 0.1);
        let plan = AdaptivePlan::new(rule, 10, 5, 3);
        let out = adaptive(&scratch(&g, &SimpleWalk::new(), 5, 3), &plan);
        assert!(!out.precision_met);
        assert_eq!(out.censored, 24);
        assert_eq!(out.summary.count(), 0);
        assert!(matches!(out.completed_summary(), Err(EmptySummary)));
    }

    #[test]
    fn adaptive_outcome_converts_to_trial_outcome() {
        let g = classic::complete(10).unwrap();
        let plan = AdaptivePlan::new(StopRule::new(4, 50, 0.2), 8, 1000, 9);
        let out = adaptive(&scratch(&g, &CobraWalk::standard(), 1000, 9), &plan);
        let as_fixed = out.to_trial_outcome();
        assert_eq!(as_fixed.summary.count(), out.summary.count());
        assert_eq!(as_fixed.censored, out.censored);
        assert_eq!(as_fixed.summary.mean(), out.summary.mean());
    }

    #[test]
    fn cover_trials_complete_on_small_graph() {
        let g = classic::complete(12).unwrap();
        let plan = TrialPlan::new(40, 10_000, 1);
        let out = run_cover_trials_typed(&g, &CobraWalk::standard(), 0, &plan);
        assert_eq!(out.censored, 0);
        assert_eq!(out.summary.count(), 40);
        assert!(out.summary.mean() >= 4.0, "cannot cover K12 in < 4 rounds");
    }

    #[test]
    fn results_are_reproducible() {
        let g = classic::cycle(20).unwrap();
        let plan = TrialPlan::new(25, 100_000, 7);
        let a = run_cover_trials_typed(&g, &CobraWalk::standard(), 0, &plan);
        let b = run_cover_trials_typed(&g, &CobraWalk::standard(), 0, &plan);
        assert_eq!(a.summary.count(), b.summary.count());
        assert!((a.summary.mean() - b.summary.mean()).abs() < 1e-12);
        assert_eq!(a.summary.median(), b.summary.median());
    }

    #[test]
    fn different_seeds_differ() {
        let g = classic::cycle(20).unwrap();
        let a = run_cover_trials_typed(
            &g,
            &CobraWalk::standard(),
            0,
            &TrialPlan::new(25, 100_000, 1),
        );
        let b = run_cover_trials_typed(
            &g,
            &CobraWalk::standard(),
            0,
            &TrialPlan::new(25, 100_000, 2),
        );
        assert_ne!(a.summary.mean(), b.summary.mean());
    }

    #[test]
    fn censoring_is_reported() {
        let g = classic::path(60).unwrap();
        // 10 steps cannot cover a 60-path.
        let out = run_cover_trials_typed(&g, &SimpleWalk::new(), 0, &TrialPlan::new(10, 10, 3));
        assert_eq!(out.censored, 10);
        assert_eq!(out.summary.count(), 0);
    }

    #[test]
    fn all_censored_is_an_explicit_error_not_a_panic() {
        // A 10-step budget cannot cover a 60-path: every trial censors,
        // and the checked accessor reports that as a value.
        let g = classic::path(60).unwrap();
        let plan = TrialPlan::new(8, 10, 3);
        let out = run_cover_trials_typed(&g, &SimpleWalk::new(), 0, &plan);
        assert_eq!(out.censored, 8);
        assert!(matches!(
            out.completed_summary(),
            Err(crate::stats::EmptySummary)
        ));
        assert_eq!(out.summary.try_mean(), Err(crate::stats::EmptySummary));
    }

    #[test]
    fn censored_trials_never_pollute_summary() {
        // Budget near the median cover time → a mix of completed and
        // censored trials. The summary must contain exactly the completed
        // trials' values: rebuild them serially from the same per-trial
        // seeds and compare moments bitwise.
        let g = classic::cycle(16).unwrap();
        let plan = TrialPlan::new(60, 120, 11);
        let out = run_cover_trials_typed(&g, &SimpleWalk::new(), 0, &plan);
        assert!(out.censored > 0, "expected some censored trials");
        assert!(out.summary.count() > 0, "expected some completed trials");
        assert_eq!(out.summary.count() + out.censored, plan.trials);

        let seq = SeedSequence::new(plan.master_seed);
        let mut completed = Vec::new();
        for i in 0..plan.trials {
            let mut rng = seq.rng_at(i as u64);
            let res = CoverDriver::new(&g)
                .run_typed(&SimpleWalk::new(), 0, plan.max_steps, &mut rng)
                .unwrap();
            if res.completed {
                completed.push(res.steps as f64);
            }
        }
        let oracle = Summary::from_slice(&completed);
        assert_eq!(out.summary.count(), oracle.count());
        assert_eq!(out.summary.mean(), oracle.mean());
        assert_eq!(out.summary.median(), oracle.median());
        assert_eq!(out.summary.max(), oracle.max());
        assert!(out.summary.max() <= plan.max_steps as f64);
    }

    #[test]
    fn typed_trials_match_dyn_trials_bitwise() {
        // Values the retired boxed-state dyn runners recorded on this plan.
        let g = classic::complete(16).unwrap();
        let plan = TrialPlan::new(32, 10_000, 21);
        let cobra = CobraWalk::standard();
        let cover = run_cover_trials_typed(&g, &cobra, 0, &plan);
        assert_eq!((cover.summary.count(), cover.censored), (32, 0));
        assert_eq!(cover.summary.mean().to_bits(), 0x4018_4000_0000_0001);
        assert_eq!(cover.summary.median(), 6.0);
        let hit = run_hitting_trials_typed(&g, &cobra, 0, 9, &plan);
        assert_eq!((hit.summary.count(), hit.censored), (32, 0));
        assert_eq!(hit.summary.mean(), 3.1875);
        assert_eq!(hit.summary.median(), 3.0);
    }

    #[test]
    fn hitting_trials_measure_adjacent_hop() {
        let g = classic::complete(5).unwrap();
        let plan = TrialPlan::new(200, 10_000, 4);
        let out = run_hitting_trials_typed(&g, &SimpleWalk::new(), 0, 1, &plan);
        assert_eq!(out.censored, 0);
        // On K_5, hitting a fixed other vertex is geometric(1/4): mean 4.
        let mean = out.summary.mean();
        assert!((mean - 4.0).abs() < 1.0, "mean hitting {mean}");
    }

    #[test]
    fn hitting_start_equals_target() {
        let g = classic::cycle(6).unwrap();
        let out =
            run_hitting_trials_typed(&g, &SimpleWalk::new(), 2, 2, &TrialPlan::new(5, 100, 5));
        assert_eq!(out.summary.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn plan_rejects_zero_trials() {
        TrialPlan::new(0, 10, 0);
    }

    #[test]
    fn lane_eligibility_gate() {
        let small = classic::cycle(16).unwrap();
        let cobra = CobraWalk::standard();
        assert!(lane_cover_applies(&small, &cobra, 64));
        assert!(lane_cover_applies(&small, &cobra, 1000));
        // Too few trials to fill a lane batch.
        assert!(!lane_cover_applies(&small, &cobra, 63));
        // Too large a graph.
        let big = classic::cycle(LANE_MAX_N + 1).unwrap();
        assert!(!lane_cover_applies(&big, &cobra, 1000));
        // The simple walk has a lane form; a lossy faulty walk does not.
        assert!(lane_cover_applies(&small, &SimpleWalk::new(), 64));
        let lossy = FaultyCobraWalk::new(2, FaultPlan::none().with_pebble_loss(0.1));
        assert!(!lane_cover_applies(&small, &lossy, 64));
    }

    #[test]
    fn implicit_runner_never_takes_the_lane_path() {
        // Regression for the lane-eligibility seam: a lane-shaped cell
        // (small n, ≥ 64 trials, lane-capable process) must not pull
        // implicit-routed runs onto the lane engine — the implicit
        // runner always drives the scratch stream. On a CSR graph the
        // two runners are bit-identical, so comparing against
        // run_cover_trials_typed (NOT the lane/auto engines, whose
        // per-batch seeding is a different stream) pins the routing.
        let g = classic::cycle(24).unwrap();
        let cobra = CobraWalk::standard();
        let plan = TrialPlan::new(96, 100_000, 13);
        assert!(
            lane_cover_applies(&g, &cobra, plan.trials),
            "cell must be lane-shaped for this regression to bite"
        );
        let typed = run_cover_trials_typed(&g, &cobra, 0, &plan);
        let implicit = run_cover_trials_implicit(&g, &cobra, 0, &plan);
        assert_eq!(implicit.censored, typed.censored);
        assert_eq!(implicit.summary.count(), typed.summary.count());
        assert_eq!(implicit.summary.mean(), typed.summary.mean());
        assert_eq!(implicit.summary.median(), typed.summary.median());
        assert_eq!(implicit.summary.min(), typed.summary.min());
        assert_eq!(implicit.summary.max(), typed.summary.max());
        // And the lane engine on the same plan is a genuinely different
        // stream — if the implicit runner ever silently rerouted to it,
        // the equality above would have been vacuous.
        let lane = run_cover_trials_lanes_probed(&g, &cobra, 0, &plan, noop).0;
        assert_ne!(implicit.summary.mean(), lane.summary.mean());
    }

    #[test]
    fn implicit_runner_accepts_implicit_families() {
        // The same lane-shaped plan on an actual implicit family (a
        // 24-point path as a 1-d grid) runs through the arithmetic path
        // and produces the same cover-time stream as the CSR grid, since
        // both expose identical ascending adjacency.
        let implicit = cobra_graph::ImplicitGrid::new(&[23]).unwrap();
        let csr = grid::grid(&[23]);
        let cobra = CobraWalk::standard();
        let plan = TrialPlan::new(96, 100_000, 13);
        let a = run_cover_trials_implicit(&implicit, &cobra, 0, &plan);
        let b = run_cover_trials_implicit(&csr, &cobra, 0, &plan);
        assert_eq!(a.summary.count(), b.summary.count());
        assert_eq!(a.summary.mean(), b.summary.mean());
        assert_eq!(a.summary.median(), b.summary.median());
    }

    #[test]
    fn lane_stream_is_prefix_stable_and_resumable() {
        // The flattened lane stream must not depend on how many batches
        // a call computes (prefix property) or on where a range starts
        // (resume identity) — both are what the adaptive runner leans on.
        let g = classic::cycle(24).unwrap();
        let cobra = CobraWalk::standard();
        let stream = lanes(&g, &cobra, 100_000, 42);
        let two = stream.extend(0, 2 * LANE_WIDTH, &noop).0;
        let one = stream.extend(0, LANE_WIDTH, &noop).0;
        let tail = stream.extend(LANE_WIDTH, 2 * LANE_WIDTH, &noop).0;
        assert_eq!(two.len(), 2 * LANE_WIDTH);
        assert_eq!(&two[..LANE_WIDTH], &one[..]);
        assert_eq!(&two[LANE_WIDTH..], &tail[..]);
    }

    #[test]
    fn lane_runner_truncates_partial_batches() {
        // 70 trials = one full batch + 6 lanes of the second; the runner
        // must report exactly 70, and they must be the 70-prefix of a
        // 128-trial run.
        let g = classic::complete(16).unwrap();
        let cobra = CobraWalk::standard();
        let plan = TrialPlan::new(70, 10_000, 9);
        let out = run_cover_trials_lanes_probed(&g, &cobra, 0, &plan, noop).0;
        assert_eq!(out.summary.count() + out.censored, 70);
        let full = lanes(&g, &cobra, 10_000, 9)
            .extend(0, 2 * LANE_WIDTH, &noop)
            .0;
        let oracle = aggregate(full[..70].to_vec());
        assert_eq!(out.summary.count(), oracle.summary.count());
        assert_eq!(out.summary.mean(), oracle.summary.mean());
        assert_eq!(out.summary.median(), oracle.summary.median());
    }

    #[test]
    fn auto_runner_routes_by_eligibility() {
        let g = classic::cycle(16).unwrap();
        let cobra = CobraWalk::standard();
        let auto = |plan: &TrialPlan| {
            cover_stream(&g, &cobra, 0, plan.max_steps, plan.master_seed, plan.trials)
                .run_fixed(plan.trials, noop)
                .0
        };
        // Eligible cell: the routed stream must equal the lane runner
        // bitwise.
        let plan = TrialPlan::new(128, 100_000, 5);
        let auto_out = auto(&plan);
        let lane = run_cover_trials_lanes_probed(&g, &cobra, 0, &plan, noop).0;
        assert_eq!(auto_out.summary.mean(), lane.summary.mean());
        assert_eq!(auto_out.summary.median(), lane.summary.median());
        // Ineligible cell (too few trials): the routed stream must equal
        // the scratch engine bitwise.
        let small_plan = TrialPlan::new(20, 100_000, 5);
        let auto_small = auto(&small_plan);
        let typed = run_cover_trials_typed(&g, &cobra, 0, &small_plan);
        assert_eq!(auto_small.summary.mean(), typed.summary.mean());
        assert_eq!(auto_small.summary.median(), typed.summary.median());
    }

    #[test]
    fn adaptive_lanes_is_prefix_of_fixed_lanes() {
        let g = classic::cycle(24).unwrap();
        let cobra = CobraWalk::standard();
        let rule = StopRule::new(64, 640, 0.05);
        let plan = AdaptivePlan::new(rule, 16, 100_000, 77);
        let out = adaptive(&lanes(&g, &cobra, 100_000, 77), &plan);
        assert!(out.precision_met);
        let n = out.trials_run();
        assert!((rule.min_trials..=rule.max_trials).contains(&n));
        let fixed_plan = TrialPlan::new(n, 100_000, 77);
        let fixed = run_cover_trials_lanes_probed(&g, &cobra, 0, &fixed_plan, noop).0;
        assert_eq!(out.summary.count(), fixed.summary.count());
        assert_eq!(out.censored, fixed.censored);
        assert_eq!(out.summary.mean(), fixed.summary.mean());
        assert_eq!(out.summary.median(), fixed.summary.median());
        assert_eq!(out.summary.min(), fixed.summary.min());
        assert_eq!(out.summary.max(), fixed.summary.max());
    }

    #[test]
    fn adaptive_lanes_is_batch_size_independent() {
        let g = classic::complete(16).unwrap();
        let cobra = CobraWalk::standard();
        let rule = StopRule::new(64, 500, 0.04);
        let mut reference: Option<AdaptiveOutcome> = None;
        for batch in [1usize, 7, 64] {
            let plan = AdaptivePlan::new(rule, batch, 10_000, 0xAB);
            let out = adaptive(&lanes(&g, &cobra, 10_000, 0xAB), &plan);
            if let Some(r) = &reference {
                assert_eq!(out.summary.count(), r.summary.count(), "batch {batch}");
                assert_eq!(out.summary.mean(), r.summary.mean(), "batch {batch}");
                assert_eq!(out.censored, r.censored, "batch {batch}");
                assert_eq!(out.precision_met, r.precision_met, "batch {batch}");
            } else {
                reference = Some(out);
            }
        }
    }

    #[test]
    fn adaptive_auto_routes_by_trial_cap() {
        let g = classic::cycle(16).unwrap();
        let cobra = CobraWalk::standard();
        // Cap ≥ 64 → lanes; compare against the lane engine bitwise.
        let plan = AdaptivePlan::new(StopRule::new(64, 200, 0.03), 16, 100_000, 3);
        let auto_out =
            run_cover_trials_adaptive_auto_resumable(&g, &cobra, 0, &plan, Vec::new(), go_on);
        let lane = adaptive(&lanes(&g, &cobra, 100_000, 3), &plan);
        assert_eq!(auto_out.outcome.summary.count(), lane.summary.count());
        assert_eq!(auto_out.outcome.summary.mean(), lane.summary.mean());
        // Cap < 64 → scratch engine.
        let small = AdaptivePlan::new(StopRule::new(8, 40, 0.2), 8, 100_000, 3);
        let auto_small =
            run_cover_trials_adaptive_auto_resumable(&g, &cobra, 0, &small, Vec::new(), go_on);
        let per_trial = adaptive(&scratch(&g, &cobra, 100_000, 3), &small);
        assert_eq!(
            auto_small.outcome.summary.count(),
            per_trial.summary.count()
        );
        assert_eq!(auto_small.outcome.summary.mean(), per_trial.summary.mean());
    }

    #[test]
    fn resumable_scratch_matches_uninterrupted_from_every_boundary() {
        // Halt at each batch boundary in turn, then resume from the
        // checkpointed prefix: outcome and consumed stream must equal the
        // uninterrupted run's exactly.
        let g = classic::cycle(24).unwrap();
        let cobra = CobraWalk::standard();
        let plan = AdaptivePlan::new(StopRule::new(8, 2000, 0.03), 16, 100_000, 77);
        let stream = scratch(&g, &cobra, 100_000, 77);
        let full = stream.run_adaptive(&plan, Vec::new(), go_on);
        assert!(!full.halted);
        assert!(full.outcome.precision_met);
        for halt_after in 1..4usize {
            let mut boundaries = 0usize;
            let mut checkpoint: Vec<Option<usize>> = Vec::new();
            let interrupted = stream.run_adaptive(&plan, Vec::new(), |prefix| {
                boundaries += 1;
                if boundaries >= halt_after {
                    checkpoint = prefix.to_vec();
                    BatchControl::Halt
                } else {
                    BatchControl::Continue
                }
            });
            if !interrupted.halted {
                // The rule stopped before the halt-th boundary; nothing
                // left to resume.
                assert_eq!(interrupted.times, full.times);
                continue;
            }
            assert_eq!(interrupted.times, checkpoint);
            let resumed = stream.run_adaptive(&plan, checkpoint, go_on);
            assert_eq!(resumed.times, full.times, "halt at boundary {halt_after}");
            assert_eq!(resumed.outcome.summary.mean(), full.outcome.summary.mean());
            assert_eq!(resumed.outcome.censored, full.outcome.censored);
            assert_eq!(resumed.outcome.precision_met, full.outcome.precision_met);
        }
    }

    #[test]
    fn resumable_lanes_resumes_mid_batch_prefixes() {
        // A lane checkpoint can end mid-64-lane-batch (batch size 8 →
        // consumed prefixes of 64, 72, 80, …). Resuming must recompute
        // only the partial batch and land bit-identical.
        let g = classic::cycle(24).unwrap();
        let cobra = CobraWalk::standard();
        let plan = AdaptivePlan::new(StopRule::new(64, 640, 0.02), 8, 100_000, 42);
        let stream = lanes(&g, &cobra, 100_000, 42);
        let full = stream.run_adaptive(&plan, Vec::new(), go_on);
        let mut halted_once = false;
        let interrupted = stream.run_adaptive(&plan, Vec::new(), |prefix| {
            // Halt at the second boundary: consumed = 64 + 8 = 72,
            // mid-way through lane batch 1.
            if prefix.len() >= 72 {
                halted_once = true;
                BatchControl::Halt
            } else {
                BatchControl::Continue
            }
        });
        assert!(halted_once && interrupted.halted);
        assert_eq!(interrupted.times.len() % LANE_WIDTH, 8);
        let resumed = stream.run_adaptive(&plan, interrupted.times, go_on);
        assert_eq!(resumed.times, full.times);
        assert_eq!(resumed.outcome.summary.mean(), full.outcome.summary.mean());
        assert_eq!(resumed.outcome.censored, full.outcome.censored);
    }

    #[test]
    fn replay_outcomes_reconstructs_the_adaptive_outcome() {
        let g = classic::complete(16).unwrap();
        let cobra = CobraWalk::standard();
        let plan = AdaptivePlan::new(StopRule::new(6, 500, 0.04), 7, 10_000, 0xAB);
        let run = scratch(&g, &cobra, 10_000, 0xAB).run_adaptive(&plan, Vec::new(), go_on);
        let replayed = replay_outcomes(&plan.rule, &run.times);
        assert_eq!(replayed.summary.count(), run.outcome.summary.count());
        assert_eq!(replayed.summary.mean(), run.outcome.summary.mean());
        assert_eq!(replayed.summary.median(), run.outcome.summary.median());
        assert_eq!(replayed.censored, run.outcome.censored);
        assert_eq!(replayed.precision_met, run.outcome.precision_met);
        // A done cell replayed with extra garbage appended ignores the
        // entries past its stopping index.
        let mut padded = run.times.clone();
        padded.extend([Some(1), None, Some(2)]);
        let replay_padded = replay_outcomes(&plan.rule, &padded);
        assert_eq!(replay_padded.summary.count(), replayed.summary.count());
        assert_eq!(replay_padded.summary.mean(), replayed.summary.mean());
    }

    #[test]
    fn resumable_done_prior_skips_all_work() {
        // Feeding a completed cell's stream back as prior must return
        // the same outcome without calling the extender at all — that is
        // what lets --resume render done cells with zero recomputation.
        let g = classic::complete(16).unwrap();
        let cobra = CobraWalk::standard();
        let plan = AdaptivePlan::new(StopRule::new(6, 500, 0.04), 7, 10_000, 0xAB);
        let stream = scratch(&g, &cobra, 10_000, 0xAB);
        let run = stream.run_adaptive(&plan, Vec::new(), go_on);
        assert!(run.outcome.precision_met);
        let mut boundaries = 0usize;
        let redone = stream.run_adaptive(&plan, run.times.clone(), |_| {
            boundaries += 1;
            BatchControl::Continue
        });
        assert_eq!(boundaries, 0, "no batch should run on a done prior");
        assert_eq!(redone.times, run.times);
        assert_eq!(redone.outcome.summary.mean(), run.outcome.summary.mean());
    }

    #[test]
    fn adaptive_lanes_fully_censored_runs_to_cap() {
        // A 3-step budget cannot cover a 60-path: every lane censors,
        // the engine must run to the cap and report failure as a value.
        let g = classic::path(60).unwrap();
        let rule = StopRule::new(64, 128, 0.1);
        let plan = AdaptivePlan::new(rule, 16, 3, 3);
        let out = adaptive(&lanes(&g, &SimpleWalk::new(), 3, 3), &plan);
        assert!(!out.precision_met);
        assert_eq!(out.censored, 128);
        assert_eq!(out.summary.count(), 0);
    }
}
