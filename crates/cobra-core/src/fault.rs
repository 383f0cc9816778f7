//! Deterministic fault injection for the cobra dynamics.
//!
//! The paper frames cobra walks as a *robust* epidemic primitive; this
//! module makes that robustness measurable. A [`FaultPlan`] describes a
//! round-synchronous fault environment — per-pebble loss, per-vertex
//! crash/recovery windows, one-shot adversarial deletion waves, and
//! delayed delivery through a bounded in-flight queue — and
//! [`FaultyCobraWalk`] runs the `k`-cobra walk inside it, on any
//! [`ImplicitGraph`], through the same [`TypedProcess`]/[`TypedState`]
//! seam every engine already drives.
//!
//! ## Determinism contract
//!
//! Fault randomness is drawn from a **dedicated stream**: on the first
//! step of each trial (and only when the plan actually has probabilistic
//! faults) one `u64` is taken from the trial's main RNG to seed a private
//! `StdRng`. All loss and delay coins come from that private stream, so
//! the *walk's* neighbor draws consume exactly the same main-stream
//! values as the fault-free kernel, and a faulty run is bit-identical
//! across worker counts and batch sizes — each trial's streams depend
//! only on its global trial index.
//!
//! [`FaultPlan::none()`] consumes **zero** extra randomness: no seeding
//! draw, no coins, and the step runs the wrapped [`CobraState`]'s own
//! round, so a no-fault [`FaultyCobraWalk`] is bit-identical to
//! [`CobraWalk`] on the typed, scratch, lane, and implicit routes (pinned
//! in `tests/faults.rs`).
//!
//! ## Fault semantics (round-synchronous)
//!
//! Rounds are 1-indexed: the step producing `S_1` from `S_0` is round 1.
//! During round `r`:
//!
//! 1. **Crashes.** A vertex with an outage window `from_round ≤ r <
//!    until_round` is *down*: pebbles on it are destroyed (it does not
//!    send), newly drawn arrivals to it are rejected, and in-flight
//!    deliveries due at it are dropped. Recovery is implicit — after
//!    `until_round` the vertex participates again as soon as a pebble
//!    reaches it. Overlapping windows nest (depth-counted).
//! 2. **Deletion waves.** A [`DeletionWave`] with `round == r` destroys
//!    the pebbles sitting on its vertices at the start of the round
//!    (they do not send). One-shot, adversarial, no randomness.
//! 3. **Delivery.** In-flight pebbles due this round are delivered first
//!    (into `S_r`), then every surviving active vertex makes its `k`
//!    neighbor draws from the main stream. Each drawn pebble is lost
//!    with probability `pebble_loss` (one fault coin), rejected if its
//!    destination is down (no coin), else delayed with probability
//!    `delay_prob` (one fault coin). A delayed pebble enters the bounded
//!    in-flight queue due next round; if the queue is at
//!    `max_in_flight`, the pebble is dropped — bounded-buffer loss, the
//!    same back-pressure a real gossip transport exhibits.
//!
//! A trial whose frontier and in-flight queue both empty out is *dead*:
//! no later round can deliver a pebble. [`FaultyCobraState`] reports it
//! through [`StateView::is_extinct`], and the driver stops the trial in
//! the round it dies and reports it censored, with `steps` the rounds it
//! ran, instead of stepping an empty frontier to its budget.

use crate::cobra::{CobraState, CobraWalk};
use crate::process::{
    bernoulli, Active, NeighborDraw, Process, StateView, TypedProcess, TypedState,
};
use cobra_graph::{ImplicitGraph, Vertex};
use cobra_obs::{FaultKind, Probe};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// One per-vertex crash window: the vertex is down during rounds
/// `from_round ≤ r < until_round` (half-open, 1-indexed rounds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VertexOutage {
    /// The crashed vertex.
    pub vertex: Vertex,
    /// First round (inclusive) the vertex is down.
    pub from_round: usize,
    /// First round (exclusive) the vertex is back up.
    pub until_round: usize,
}

/// One adversarial deletion wave: at the start of round `round`, every
/// pebble sitting on one of `vertices` is destroyed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeletionWave {
    /// The 1-indexed round the wave strikes.
    pub round: usize,
    /// The vertices whose pebbles are destroyed.
    pub vertices: Vec<Vertex>,
}

/// A deterministic, round-synchronous fault environment for
/// [`FaultyCobraWalk`]. See the [module docs](self) for exact semantics
/// and the determinism contract.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    pebble_loss: f64,
    delay_prob: f64,
    max_in_flight: usize,
    outages: Vec<VertexOutage>,
    deletion_waves: Vec<DeletionWave>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The fault-free plan. Provably consumes zero extra randomness: a
    /// [`FaultyCobraWalk`] under this plan is bit-identical to
    /// [`CobraWalk`] on every engine route.
    pub fn none() -> Self {
        FaultPlan {
            pebble_loss: 0.0,
            delay_prob: 0.0,
            max_in_flight: 0,
            outages: Vec::new(),
            deletion_waves: Vec::new(),
        }
    }

    /// Whether this plan injects no faults at all.
    pub fn is_none(&self) -> bool {
        self.pebble_loss == 0.0
            && self.delay_prob == 0.0
            && self.outages.is_empty()
            && self.deletion_waves.is_empty()
    }

    /// Lose each delivered pebble independently with probability `p`.
    pub fn with_pebble_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "pebble_loss must be in [0,1]");
        self.pebble_loss = p;
        self
    }

    /// Delay each surviving pebble independently with probability `p`,
    /// buffering at most `max_in_flight` delayed pebbles at a time
    /// (overflow is dropped — bounded-buffer loss).
    pub fn with_delay(mut self, p: f64, max_in_flight: usize) -> Self {
        assert!((0.0..=1.0).contains(&p), "delay_prob must be in [0,1]");
        self.delay_prob = p;
        self.max_in_flight = max_in_flight;
        self
    }

    /// Crash `vertex` for rounds `from_round ≤ r < until_round`.
    pub fn with_outage(mut self, vertex: Vertex, from_round: usize, until_round: usize) -> Self {
        assert!(
            from_round < until_round,
            "outage window must be non-empty: [{from_round}, {until_round})"
        );
        assert!(from_round >= 1, "rounds are 1-indexed");
        self.outages.push(VertexOutage {
            vertex,
            from_round,
            until_round,
        });
        self
    }

    /// Destroy the pebbles on `vertices` at the start of round `round`.
    pub fn with_deletion_wave(mut self, round: usize, vertices: Vec<Vertex>) -> Self {
        assert!(round >= 1, "rounds are 1-indexed");
        self.deletion_waves.push(DeletionWave { round, vertices });
        self
    }

    /// Per-pebble loss probability.
    pub fn pebble_loss(&self) -> f64 {
        self.pebble_loss
    }

    /// Per-pebble delay probability.
    pub fn delay_prob(&self) -> f64 {
        self.delay_prob
    }

    /// Capacity of the delayed-pebble in-flight queue.
    pub fn max_in_flight(&self) -> usize {
        self.max_in_flight
    }

    /// The configured crash windows.
    pub fn outages(&self) -> &[VertexOutage] {
        &self.outages
    }

    /// The configured deletion waves.
    pub fn deletion_waves(&self) -> &[DeletionWave] {
        &self.deletion_waves
    }

    /// Largest vertex id referenced by outages or deletion waves, if any
    /// — used to validate the plan against a graph at spawn.
    fn max_vertex(&self) -> Option<Vertex> {
        let o = self.outages.iter().map(|o| o.vertex);
        let w = self
            .deletion_waves
            .iter()
            .flat_map(|w| w.vertices.iter().copied());
        o.chain(w).max()
    }
}

/// A crash-bitmap edit: at `round`, raise (`down`) or lower the crash
/// depth of `vertex`. Depth-counted so overlapping windows nest.
#[derive(Clone, Copy, Debug)]
struct CrashEvent {
    round: usize,
    vertex: Vertex,
    down: bool,
}

/// The `k`-cobra walk running inside a [`FaultPlan`].
///
/// Under [`FaultPlan::none()`] this is bit-identical to
/// [`CobraWalk`] (same draws, same stream, same
/// frontier evolution) and keeps its lane-engine eligibility; any real
/// fault disables [`TypedProcess::lane_branching`] so the auto-router
/// keeps faulty runs on the per-trial engines, where the dedicated
/// fault stream makes them bit-identical across worker counts.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultyCobraWalk {
    branching_factor: u32,
    plan: FaultPlan,
}

impl FaultyCobraWalk {
    /// A `k`-cobra walk (`k ≥ 1`) under `plan`.
    pub fn new(branching_factor: u32, plan: FaultPlan) -> Self {
        assert!(branching_factor >= 1, "branching factor must be >= 1");
        FaultyCobraWalk {
            branching_factor,
            plan,
        }
    }

    /// The branching factor `k`.
    pub fn branching_factor(&self) -> u32 {
        self.branching_factor
    }

    /// The fault environment.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl Process for FaultyCobraWalk {
    fn name(&self) -> String {
        if self.plan.is_none() {
            format!("faulty-cobra(k={}, none)", self.branching_factor)
        } else {
            format!(
                "faulty-cobra(k={}, loss={}, delay={}, outages={}, waves={})",
                self.branching_factor,
                self.plan.pebble_loss,
                self.plan.delay_prob,
                self.plan.outages.len(),
                self.plan.deletion_waves.len(),
            )
        }
    }
}

impl<G: ImplicitGraph + ?Sized> TypedProcess<G> for FaultyCobraWalk {
    type State = FaultyCobraState;

    fn spawn_typed(&self, g: &G, start: Vertex) -> FaultyCobraState {
        let n = g.num_vertices();
        assert!((start as usize) < n, "start vertex in range");
        if let Some(v) = self.plan.max_vertex() {
            assert!(
                (v as usize) < n,
                "fault plan references vertex {v} but the graph has {n} vertices"
            );
        }
        // Depth-counted crash edits, sorted by round; within a round the
        // order is irrelevant because depths add.
        let mut crash_events = Vec::with_capacity(self.plan.outages.len() * 2);
        for o in &self.plan.outages {
            crash_events.push(CrashEvent {
                round: o.from_round,
                vertex: o.vertex,
                down: true,
            });
            crash_events.push(CrashEvent {
                round: o.until_round,
                vertex: o.vertex,
                down: false,
            });
        }
        crash_events.sort_by_key(|e| e.round);
        let mut waves = self.plan.deletion_waves.clone();
        waves.sort_by_key(|w| w.round);

        FaultyCobraState {
            walk: CobraWalk::new(self.branching_factor).spawn_typed(g, start),
            plan: self.plan.clone(),
            round: 0,
            fault_rng: None,
            crash_events,
            crash_cursor: 0,
            crash_depth: if self.plan.outages.is_empty() {
                Vec::new()
            } else {
                vec![0u32; n]
            },
            waves,
            wave_cursor: 0,
            wave_marks: if self.plan.deletion_waves.is_empty() {
                Vec::new()
            } else {
                vec![false; n]
            },
            wave_marked: Vec::new(),
            in_flight: VecDeque::new(),
        }
    }

    fn lane_branching(&self) -> Option<u32> {
        // The no-fault plan is exactly the cobra round shape the lane
        // kernel implements; any real fault is not.
        if self.plan.is_none() {
            Some(self.branching_factor)
        } else {
            None
        }
    }

    fn respawn_typed(&self, g: &G, start: Vertex, state: &mut FaultyCobraState) {
        let n = g.num_vertices();
        if state.walk.cur.capacity() != n || state.plan != self.plan {
            *state = self.spawn_typed(g, start);
            return;
        }
        CobraWalk::new(self.branching_factor).respawn_typed(g, start, &mut state.walk);
        state.round = 0;
        // Next trial reseeds its private fault stream from its own main
        // stream — this is what keeps batched trials bit-identical
        // across worker counts.
        state.fault_rng = None;
        state.crash_cursor = 0;
        if !state.crash_depth.is_empty() {
            state.crash_depth.fill(0);
        }
        state.wave_cursor = 0;
        for &v in &state.wave_marked {
            state.wave_marks[v as usize] = false;
        }
        state.wave_marked.clear();
        state.in_flight.clear();
    }
}

/// Mutable state of a running faulty cobra walk.
///
/// The walk itself is a [`CobraState`], which runs the round whenever
/// the plan is fault-free; the rest is the fault machinery: the
/// lazily-seeded private fault RNG, the crash-edit cursor + depth map,
/// the deletion-wave cursor + scratch marks, and the bounded in-flight
/// queue of `(due_round, destination)` pebbles.
pub struct FaultyCobraState {
    walk: CobraState,
    plan: FaultPlan,
    round: usize,
    fault_rng: Option<StdRng>,
    crash_events: Vec<CrashEvent>,
    crash_cursor: usize,
    crash_depth: Vec<u32>,
    waves: Vec<DeletionWave>,
    wave_cursor: usize,
    wave_marks: Vec<bool>,
    wave_marked: Vec<Vertex>,
    in_flight: VecDeque<(usize, Vertex)>,
}

impl FaultyCobraState {
    /// Rounds stepped so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Delayed pebbles currently buffered.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Whether the process can ever deliver another pebble: dead means
    /// both the frontier and the in-flight queue are empty.
    pub fn is_dead(&self) -> bool {
        self.walk.cur.is_empty() && self.in_flight.is_empty()
    }
}

impl StateView for FaultyCobraState {
    fn active(&self) -> Active<'_> {
        self.walk.active()
    }

    fn is_extinct(&self) -> bool {
        self.is_dead()
    }
}

impl<G: ImplicitGraph + ?Sized> TypedState<G> for FaultyCobraState {
    /// One round under the plan. When the plan is fault-free this is the
    /// wrapped [`CobraState`]'s round — same draws, same stream, zero
    /// fault overhead (the identity is pinned bit-for-bit in
    /// `tests/faults.rs`). Otherwise it emits [`Probe::on_draws`] for
    /// the round's neighbor draws and one [`Probe::on_fault`] per fault
    /// kind that fired this round: [`FaultKind::PebbleLoss`] counts
    /// loss-coin hits plus bounded-queue overflow drops,
    /// [`FaultKind::Delay`] counts pebbles buffered into the in-flight
    /// queue, [`FaultKind::Outage`] counts down senders skipped plus
    /// arrivals (drawn or in-flight) rejected by a down destination, and
    /// [`FaultKind::Deletion`] counts waved senders destroyed. The probe
    /// never touches either RNG stream.
    fn step_probed<D: NeighborDraw<G>, R: Rng + ?Sized, Pb: Probe>(
        &mut self,
        g: &G,
        draw: &D,
        rng: &mut R,
        probe: &mut Pb,
    ) {
        if self.plan.is_none() {
            self.walk.step_probed(g, draw, rng, probe);
            return;
        }

        // Seed the private fault stream on the trial's first faulty
        // step: one u64 from the main stream, then the two streams never
        // touch again.
        if self.fault_rng.is_none() {
            self.fault_rng = Some(StdRng::seed_from_u64(rng.next_u64()));
        }
        self.round += 1;
        let r = self.round;

        // 1. Crash edits due through round r.
        while self.crash_cursor < self.crash_events.len()
            && self.crash_events[self.crash_cursor].round <= r
        {
            let e = self.crash_events[self.crash_cursor];
            let d = &mut self.crash_depth[e.vertex as usize];
            if e.down {
                *d += 1;
            } else {
                *d -= 1;
            }
            self.crash_cursor += 1;
        }

        // 2. Deletion waves striking this round.
        while self.wave_cursor < self.waves.len() && self.waves[self.wave_cursor].round <= r {
            if self.waves[self.wave_cursor].round == r {
                for &v in &self.waves[self.wave_cursor].vertices {
                    if !self.wave_marks[v as usize] {
                        self.wave_marks[v as usize] = true;
                        self.wave_marked.push(v);
                    }
                }
            }
            self.wave_cursor += 1;
        }

        let FaultyCobraState {
            walk,
            plan,
            fault_rng,
            crash_depth,
            wave_marks,
            in_flight,
            ..
        } = self;
        let CobraState { k, cur, next } = walk;
        let frng = fault_rng.as_mut().expect("fault rng seeded above");
        let down = |v: Vertex| !crash_depth.is_empty() && crash_depth[v as usize] > 0;
        let waved = |v: Vertex| !wave_marks.is_empty() && wave_marks[v as usize];

        // Fault tallies feed only the probe; under `NoopProbe` they are
        // dead locals the optimizer strips.
        let mut loss_hits = 0u64;
        let mut delay_hits = 0u64;
        let mut outage_hits = 0u64;
        let mut deletion_hits = 0u64;
        let mut draws_made = 0u64;

        next.clear();

        // 3. Deliver in-flight pebbles due this round (dropped if the
        // destination is down).
        while let Some(&(due, u)) = in_flight.front() {
            if due > r {
                break;
            }
            in_flight.pop_front();
            if !down(u) {
                next.insert_quiet(u);
            } else {
                outage_hits += 1;
            }
        }

        // 4. Surviving senders make their k draws from the main stream;
        // the sink applies loss → crash → delay from the fault stream.
        cur.for_each(|v| {
            if down(v) {
                outage_hits += 1;
                return;
            }
            if waved(v) {
                deletion_hits += 1;
                return;
            }
            draws_made += u64::from(*k);
            draw.draw_many(g, v, *k, rng, |u| {
                if plan.pebble_loss > 0.0 && bernoulli(plan.pebble_loss, frng) {
                    loss_hits += 1;
                    return;
                }
                if down(u) {
                    outage_hits += 1;
                    return;
                }
                if plan.delay_prob > 0.0 && bernoulli(plan.delay_prob, frng) {
                    if in_flight.len() < plan.max_in_flight {
                        in_flight.push_back((r + 1, u));
                        delay_hits += 1;
                    } else {
                        loss_hits += 1;
                    }
                    return;
                }
                next.insert_quiet(u);
            });
        });
        next.finalize_len();
        std::mem::swap(cur, next);

        // 5. Retire this round's wave marks.
        for &v in self.wave_marked.iter() {
            self.wave_marks[v as usize] = false;
        }
        self.wave_marked.clear();

        probe.on_draws(draws_made, 0);
        if loss_hits > 0 {
            probe.on_fault(FaultKind::PebbleLoss, loss_hits);
        }
        if delay_hits > 0 {
            probe.on_fault(FaultKind::Delay, delay_hits);
        }
        if outage_hits > 0 {
            probe.on_fault(FaultKind::Outage, outage_hits);
        }
        if deletion_hits > 0 {
            probe.on_fault(FaultKind::Deletion, deletion_hits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CobraWalk;
    use cobra_graph::generators::{classic, grid};
    use cobra_graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sorted_occ(st: &impl StateView) -> Vec<Vertex> {
        let mut v = st.active().to_vec();
        v.sort_unstable();
        v
    }

    #[test]
    fn none_plan_is_bit_identical_to_cobra_dyn_route() {
        // `step` must match the plain cobra walk round for round.
        let g = grid::grid(&[6, 6]);
        let plain = CobraWalk::standard();
        let faulty = FaultyCobraWalk::new(2, FaultPlan::none());
        let mut a = plain.spawn_typed(&g, 0);
        let mut b = faulty.spawn_typed(&g, 0);
        let mut ra = StdRng::seed_from_u64(99);
        let mut rb = StdRng::seed_from_u64(99);
        for _ in 0..60 {
            TypedState::step(&mut a, &g, &mut ra);
            TypedState::step(&mut b, &g, &mut rb);
            assert_eq!(sorted_occ(&a), sorted_occ(&b));
        }
        // Zero extra randomness: both RNGs sit at the same stream point.
        assert_eq!(ra.next_u64(), rb.next_u64());
    }

    #[test]
    fn none_plan_keeps_lane_eligibility_faulty_does_not() {
        let none = FaultyCobraWalk::new(2, FaultPlan::none());
        assert_eq!(TypedProcess::<Graph>::lane_branching(&none), Some(2));
        let lossy = FaultyCobraWalk::new(2, FaultPlan::none().with_pebble_loss(0.1));
        assert_eq!(TypedProcess::<Graph>::lane_branching(&lossy), None);
    }

    #[test]
    fn full_loss_kills_the_walk() {
        let g = classic::complete(16).unwrap();
        let spec = FaultyCobraWalk::new(2, FaultPlan::none().with_pebble_loss(1.0));
        let mut st = spec.spawn_typed(&g, 0);
        let mut rng = StdRng::seed_from_u64(7);
        TypedState::step(&mut st, &g, &mut rng);
        assert!(st.is_dead());
        assert!(st.is_extinct());
        assert_eq!(StateView::support_size(&st), 0);
        // A dead process may still be stepped without panicking.
        TypedState::step(&mut st, &g, &mut rng);
        assert!(st.is_dead());
    }

    #[test]
    fn a_dead_trial_is_censored_in_the_round_it_dies() {
        use crate::measure::CoverDriver;
        use crate::scratch::TrialScratch;
        use cobra_obs::CountingProbe;
        // Every pebble is lost in round 1, so the walk is dead after one
        // round; the driver must not step it to the 100,000-round budget.
        let g = classic::cycle(12).unwrap();
        let spec = FaultyCobraWalk::new(2, FaultPlan::none().with_pebble_loss(1.0));
        let mut probe = CountingProbe::new();
        probe.on_trial_begin(0);
        let res = CoverDriver::new(&g)
            .run_typed_in_probed(
                &spec,
                &crate::ImplicitDraw,
                &mut TrialScratch::new(&g),
                0,
                None,
                100_000,
                &mut StdRng::seed_from_u64(3),
                &mut probe,
            )
            .unwrap();
        assert!(!res.completed);
        assert_eq!((res.steps, res.covered), (1, 1));
        let t = probe.trials()[0];
        assert_eq!((t.rounds, t.steps, t.completed), (1, 1, false));
        // The hitting entry stops the same way.
        let hit =
            CoverDriver::new(&g).hit_typed(&spec, 0, 6, 100_000, &mut StdRng::seed_from_u64(3));
        assert_eq!((hit.steps, hit.hit), (1, false));
    }

    #[test]
    fn crashed_vertex_neither_sends_nor_receives() {
        // Path 0-1-2: crash vertex 1 forever. A walk from 0 can only draw
        // vertex 1, every arrival is rejected, so the frontier dies the
        // round the start's pebble moves.
        let g = classic::path(3).unwrap();
        let spec = FaultyCobraWalk::new(2, FaultPlan::none().with_outage(1, 1, usize::MAX));
        let mut st = spec.spawn_typed(&g, 0);
        let mut rng = StdRng::seed_from_u64(5);
        TypedState::step(&mut st, &g, &mut rng);
        assert_eq!(
            StateView::support_size(&st),
            0,
            "all arrivals rejected by crashed hub"
        );
        assert!(st.is_dead());
    }

    #[test]
    fn crash_recovery_window_is_half_open() {
        // Crash vertex 1 for round 1 only ([1, 2)); in round 2 it accepts
        // again. Start at 0 on the path 0-1-2: round 1 dies at the hub…
        let g = classic::path(3).unwrap();
        let spec = FaultyCobraWalk::new(1, FaultPlan::none().with_outage(1, 1, 2));
        let mut st = spec.spawn_typed(&g, 0);
        let mut rng = StdRng::seed_from_u64(5);
        TypedState::step(&mut st, &g, &mut rng);
        assert!(st.is_dead());
        // …but a fresh run whose outage covers neither round survives:
        let spec2 = FaultyCobraWalk::new(1, FaultPlan::none().with_outage(1, 5, 6));
        let mut st2 = spec2.spawn_typed(&g, 0);
        let mut rng2 = StdRng::seed_from_u64(5);
        TypedState::step(&mut st2, &g, &mut rng2);
        assert_eq!(
            StateView::support_size(&st2),
            1,
            "hub up in round 1 accepts the pebble"
        );
    }

    #[test]
    fn deletion_wave_destroys_pebbles_at_round_start() {
        // Wave at round 1 on the start vertex: the only pebble is
        // destroyed before it can send.
        let g = classic::complete(8).unwrap();
        let spec = FaultyCobraWalk::new(2, FaultPlan::none().with_deletion_wave(1, vec![3]));
        let mut st = spec.spawn_typed(&g, 3);
        let mut rng = StdRng::seed_from_u64(11);
        TypedState::step(&mut st, &g, &mut rng);
        assert!(st.is_dead());
        // A wave elsewhere leaves the walk alone.
        let spec2 = FaultyCobraWalk::new(2, FaultPlan::none().with_deletion_wave(1, vec![4]));
        let mut st2 = spec2.spawn_typed(&g, 3);
        let mut rng2 = StdRng::seed_from_u64(11);
        TypedState::step(&mut st2, &g, &mut rng2);
        assert!(StateView::support_size(&st2) >= 1);
    }

    #[test]
    fn delayed_pebbles_arrive_one_round_late() {
        // delay_prob = 1 with ample queue: round 1 delivers nothing (all
        // pebbles buffered), round 2 delivers round 1's draws and buffers
        // nothing new (the frontier was empty in round 2).
        let g = classic::complete(8).unwrap();
        let spec = FaultyCobraWalk::new(2, FaultPlan::none().with_delay(1.0, 64));
        let mut st = spec.spawn_typed(&g, 0);
        let mut rng = StdRng::seed_from_u64(13);
        TypedState::step(&mut st, &g, &mut rng);
        assert_eq!(StateView::support_size(&st), 0);
        assert_eq!(st.in_flight_len(), 2);
        assert!(!st.is_dead());
        TypedState::step(&mut st, &g, &mut rng);
        assert!(
            StateView::support_size(&st) >= 1,
            "buffered pebbles delivered"
        );
        assert_eq!(st.in_flight_len(), 0);
    }

    #[test]
    fn bounded_queue_drops_overflow() {
        let g = classic::complete(8).unwrap();
        let spec = FaultyCobraWalk::new(2, FaultPlan::none().with_delay(1.0, 1));
        let mut st = spec.spawn_typed(&g, 0);
        let mut rng = StdRng::seed_from_u64(17);
        TypedState::step(&mut st, &g, &mut rng);
        assert_eq!(st.in_flight_len(), 1, "second delayed pebble dropped");
    }

    #[test]
    fn faulty_run_is_deterministic_under_seed() {
        let g = grid::grid(&[5, 5]);
        let plan = FaultPlan::none()
            .with_pebble_loss(0.2)
            .with_delay(0.3, 16)
            .with_outage(7, 3, 9)
            .with_deletion_wave(5, vec![0, 1, 2]);
        let spec = FaultyCobraWalk::new(2, plan);
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut st = spec.spawn_typed(&g, 12);
            let mut rng = StdRng::seed_from_u64(21);
            for _ in 0..40 {
                TypedState::step(&mut st, &g, &mut rng);
            }
            let mut occ = StateView::active(&st).to_vec();
            occ.sort_unstable();
            runs.push((occ, rng.next_u64(), st.in_flight_len()));
        }
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn respawn_matches_fresh_spawn() {
        let g = grid::grid(&[5, 5]);
        let plan = FaultPlan::none()
            .with_pebble_loss(0.1)
            .with_delay(0.2, 8)
            .with_outage(3, 2, 4);
        let spec = FaultyCobraWalk::new(2, plan);
        // Run a trial, respawn, run again; compare against two fresh
        // spawns on the same seeds.
        let mut reused = spec.spawn_typed(&g, 0);
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..25 {
            TypedState::step(&mut reused, &g, &mut rng);
        }
        spec.respawn_typed(&g, 4, &mut reused);
        let mut rng2 = StdRng::seed_from_u64(33);
        for _ in 0..25 {
            TypedState::step(&mut reused, &g, &mut rng2);
        }
        let mut fresh = spec.spawn_typed(&g, 4);
        let mut rng3 = StdRng::seed_from_u64(33);
        for _ in 0..25 {
            TypedState::step(&mut fresh, &g, &mut rng3);
        }
        assert_eq!(sorted_occ(&reused), sorted_occ(&fresh));
        assert_eq!(rng2.next_u64(), rng3.next_u64());
    }

    #[test]
    fn plan_validation_rejects_bad_probabilities_and_vertices() {
        assert!(std::panic::catch_unwind(|| FaultPlan::none().with_pebble_loss(1.5)).is_err());
        assert!(std::panic::catch_unwind(|| FaultPlan::none().with_delay(-0.1, 4)).is_err());
        assert!(std::panic::catch_unwind(|| FaultPlan::none().with_outage(0, 3, 3)).is_err());
        let g = classic::cycle(4).unwrap();
        let spec = FaultyCobraWalk::new(2, FaultPlan::none().with_outage(9, 1, 2));
        assert!(std::panic::catch_unwind(|| spec.spawn_typed(&g, 0)).is_err());
    }

    #[test]
    fn lossy_walk_still_covers_complete_graph() {
        use crate::measure::CoverDriver;
        let g = classic::complete(32).unwrap();
        let spec = FaultyCobraWalk::new(2, FaultPlan::none().with_pebble_loss(0.05));
        let mut rng = StdRng::seed_from_u64(41);
        let res = CoverDriver::new(&g)
            .run_typed(&spec, 0, 100_000, &mut rng)
            .expect("lossy cobra still covers K_32");
        assert_eq!(res.covered, 32);
    }
}
