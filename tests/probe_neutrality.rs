//! Probe-seam neutrality and telemetry-oracle contract.
//!
//! The observability seam (`cobra_obs::Probe`) owes two guarantees:
//!
//! * **`NoopProbe` is free** — every engine route (scratch on CSR,
//!   scratch/implicit, bit-sliced lanes) gives the same outcome under a
//!   `NoopProbe` factory as under a `CountingProbe` one (whose
//!   `ENABLED = true` runs every hook), at every rayon worker count
//!   {1, 2, 8}, and that outcome matches digests recorded before the
//!   probed and unprobed runners became one body — the scratch digests
//!   are also what the retired dyn route produced. The probe must never
//!   touch the RNG stream or perturb the walk; otherwise enabling
//!   telemetry would fork every frozen baseline.
//! * **Counters are honest** — `CountingProbe`/`TraceProbe` totals are
//!   validated against independent oracles: draws consumed equals the
//!   RNG stream position (on cycle graphs every neighbor draw costs
//!   exactly one `u64` — degree 2 is a power of two, so the widening
//!   Lemire sampler never rejects), on cover and hitting runs alike,
//!   coverage deltas sum to `n` on a completed cover, and per round,
//!   draws equal `k·|frontier|` and split into lost draws, the next
//!   frontier and merges, for the faulty walk too.

mod support;

use cobra_repro::graph::generators::{classic, grid};
use cobra_repro::graph::{Graph, ImplicitGrid};
use cobra_repro::obs::{CountingProbe, FaultKind, NoopProbe, Probe, TraceEvent, TraceProbe};
use cobra_repro::sim::runner::{
    run_cover_trials_implicit_probed, run_cover_trials_lanes_probed, run_cover_trials_typed_probed,
    TrialPlan,
};
use cobra_repro::walks::{
    BranchingSchedule, CobraWalk, CoverDriver, FaultPlan, FaultyCobraWalk, ImplicitDraw,
    ScheduledCobraWalk, TrialScratch, TypedProcess,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use support::{assert_outcomes_identical, in_pool, outcome_digest};

const MAX_STEPS: usize = 60_000;
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn noop(_trial: u64) -> NoopProbe {
    NoopProbe
}

fn counting(_trial: u64) -> CountingProbe {
    CountingProbe::new()
}

#[test]
fn noop_probe_is_bit_identical_on_all_four_routes_and_worker_counts() {
    let graphs: Vec<(&str, Graph)> = vec![
        ("grid 8x8", grid::grid(&[7, 7])),
        ("cycle 33", classic::cycle(33).unwrap()),
        // Two of 48 vertices occupied in most lane rounds: the lane
        // kernel's sparse traversal. Its digests were recorded with the
        // full-scan kernel that preceded it.
        ("star 48", classic::star(48).unwrap()),
    ];
    let implicit = ImplicitGrid::new(&[7, 7]).unwrap();
    // Recorded digests per k: [graph][scratch (= the dyn route), lanes],
    // then the implicit grid (the CSR grid's scratch stream).
    let pinned = [
        (
            [
                [0x5cb1b983b0791581, 0xb06cc4608b05ec10],
                [0x65cf6657c9f9d8ce, 0xa22f9d80062e9cfa],
                [0xe0443a495d18ed89, 0xf281161ac81b1683],
            ],
            0x5cb1b983b0791581,
        ),
        (
            [
                [0x281d339f841d7465, 0x2948f0cbf05067f6],
                [0x4e81e49343e37c43, 0x37611f57e6d69ea6],
                [0x32dd718eea4e24d4, 0x5b73bf7c14eebaa7],
            ],
            0x281d339f841d7465,
        ),
    ];
    for (k, (per_graph, implicit_pin)) in [1u32, 2].into_iter().zip(pinned) {
        let process = CobraWalk::new(k);
        // 96 trials: ≥ 64 so the lane route runs a full-width batch plus
        // a truncated one.
        let plan = TrialPlan::new(96, MAX_STEPS, 0x0B5E + u64::from(k));
        for workers in WORKER_COUNTS {
            for ((name, g), [scratch_pin, lanes_pin]) in graphs.iter().zip(per_graph) {
                let label = |route: &str| format!("k={k}, {name}, {workers}w, {route} route");
                in_pool(workers, || {
                    let typed = run_cover_trials_typed_probed(g, &process, 0, &plan, noop).0;
                    assert_outcomes_identical(
                        &typed,
                        &run_cover_trials_typed_probed(g, &process, 0, &plan, counting).0,
                        &label("typed"),
                    );
                    assert_eq!(
                        outcome_digest(&typed),
                        scratch_pin,
                        "{}",
                        label("typed/dyn")
                    );
                    let lanes = run_cover_trials_lanes_probed(g, &process, 0, &plan, noop).0;
                    assert_outcomes_identical(
                        &lanes,
                        &run_cover_trials_lanes_probed(g, &process, 0, &plan, counting).0,
                        &label("lanes"),
                    );
                    assert_eq!(outcome_digest(&lanes), lanes_pin, "{}", label("lanes"));
                });
            }
            in_pool(workers, || {
                let label = format!("k={k}, implicit grid, {workers}w");
                let out = run_cover_trials_implicit_probed(&implicit, &process, 0, &plan, noop).0;
                assert_outcomes_identical(
                    &out,
                    &run_cover_trials_implicit_probed(&implicit, &process, 0, &plan, counting).0,
                    &label,
                );
                assert_eq!(outcome_digest(&out), implicit_pin, "{label}");
            });
        }
    }
}

#[test]
fn noop_probe_is_bit_identical_through_the_fault_seam() {
    // The faulty kernel's round reports its own faults; the NoopProbe
    // route must not perturb either the plan-none fast path or a plan
    // exercising every fault dimension.
    let g = grid::grid(&[7, 7]);
    // Recorded typed-route digests for each plan.
    let plans = [
        ("none", FaultPlan::none(), 0xaa8d717a564510f4),
        (
            "lossy",
            FaultPlan::none()
                .with_pebble_loss(0.1)
                .with_delay(0.25, 32)
                .with_outage(5, 3, 11)
                .with_deletion_wave(7, vec![0, 1, 2]),
            0x1e7cff1947a92f14,
        ),
        // Two overlapping outage windows on vertex 9 and two deletion
        // waves in round 6: a vertex is down while any of its windows
        // covers the round, and a round's waves strike the union of
        // their vertices. Dropping the second window or the second wave
        // changes the digest.
        (
            "nested",
            FaultPlan::none()
                .with_pebble_loss(0.05)
                .with_delay(0.3, 16)
                .with_outage(9, 2, 6)
                .with_outage(9, 4, 12)
                .with_outage(27, 3, 9)
                .with_deletion_wave(6, vec![0, 1])
                .with_deletion_wave(6, vec![1, 8, 10]),
            0x593d5327292346db,
        ),
    ];
    for (pname, fault_plan, pin) in plans {
        let process = FaultyCobraWalk::new(2, fault_plan);
        let plan = TrialPlan::new(48, MAX_STEPS, 0xFA0B5);
        for workers in WORKER_COUNTS {
            in_pool(workers, || {
                let label = format!("faulty({pname}), {workers}w, typed route");
                let out = run_cover_trials_typed_probed(&g, &process, 0, &plan, noop).0;
                assert_outcomes_identical(
                    &out,
                    &run_cover_trials_typed_probed(&g, &process, 0, &plan, counting).0,
                    &label,
                );
                assert_eq!(outcome_digest(&out), pin, "{label}");
            });
        }
    }
}

/// RNG wrapper that counts consumed 64-bit words. Only `next_u64` is
/// overridden — exactly like `StdRng` itself — so the wrapped stream is
/// positionally identical to the bare one.
struct TallyRng {
    inner: StdRng,
    words: u64,
}

impl Rng for TallyRng {
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }
}

#[test]
fn counting_probe_draws_equal_the_rng_stream_position() {
    // On a cycle every vertex has degree 2, a power of two: the widening
    // Lemire sampler consumes exactly one u64 per neighbor draw and the
    // cobra walk draws nothing else. So the probe's draw total must
    // equal the number of words pulled from the RNG — an oracle fully
    // independent of the instrumentation arithmetic.
    for n in [16usize, 33, 64] {
        let g = classic::cycle(n).unwrap();
        let driver = CoverDriver::new(&g);
        for (pidx, k) in [1u32, 2, 3].into_iter().enumerate() {
            let process = CobraWalk::new(k);
            for seed in 0..4u64 {
                let seed = 0xD0AA + seed * 7919 + pidx as u64;
                let mut rng = TallyRng {
                    inner: StdRng::seed_from_u64(seed),
                    words: 0,
                };
                let mut probe = CountingProbe::new();
                probe.on_trial_begin(0);
                let res = driver
                    .run_typed_in_probed(
                        &process,
                        &ImplicitDraw,
                        &mut TrialScratch::new(&g),
                        0,
                        None,
                        MAX_STEPS,
                        &mut rng,
                        &mut probe,
                    )
                    .expect("non-empty graph");
                let totals = probe.totals();
                assert_eq!(
                    totals.draws, rng.words,
                    "cycle {n}, k={k}, seed {seed:#x}: probe counted {} draws but the \
                     RNG stream advanced {} words",
                    totals.draws, rng.words
                );
                // Coverage deltas sum to n on a completed cover.
                assert_eq!(res.covered, n);
                assert_eq!(
                    totals.covered as usize, n,
                    "cycle {n}, k={k}, seed {seed:#x}: coverage deltas must sum to n"
                );
            }
        }
    }
}

#[test]
fn hitting_runs_are_probe_neutral_and_count_their_draws() {
    // A hitting run is a cover run of its target through the same trial
    // body, so its probe sees every round. Under a `CountingProbe` the
    // outcome must equal the `NoopProbe` hitting entry's bit for bit, the
    // draw total must equal the RNG words consumed (the cycle oracle
    // above), and the only coverage delta is the target's.
    for n in [16usize, 33, 64] {
        let g = classic::cycle(n).unwrap();
        let driver = CoverDriver::new(&g);
        let target = (n / 2) as u32;
        for k in [1u32, 2, 3] {
            let process = CobraWalk::new(k);
            let mut scratch = TrialScratch::new(&g);
            for seed in 0..4u64 {
                let seed = 0x41A7 + seed * 7919 + u64::from(k);
                let label = format!("cycle {n}, k={k}, seed {seed:#x}");
                let noop = driver.hit_typed_in(
                    &process,
                    &ImplicitDraw,
                    &mut scratch,
                    0,
                    target,
                    MAX_STEPS,
                    &mut StdRng::seed_from_u64(seed),
                );
                assert!(noop.hit, "{label}: the target must be hit");
                let mut rng = TallyRng {
                    inner: StdRng::seed_from_u64(seed),
                    words: 0,
                };
                let mut probe = CountingProbe::new();
                probe.on_trial_begin(0);
                let counted = driver
                    .run_typed_in_probed(
                        &process,
                        &ImplicitDraw,
                        &mut scratch,
                        0,
                        Some(target),
                        MAX_STEPS,
                        &mut rng,
                        &mut probe,
                    )
                    .expect("non-empty graph");
                assert_eq!(
                    (counted.steps, counted.completed),
                    (noop.steps, noop.hit),
                    "{label}: the probe changed the hitting outcome"
                );
                let totals = probe.totals();
                assert_eq!(
                    totals.draws, rng.words,
                    "{label}: probe counted {} draws but the RNG stream advanced {} words",
                    totals.draws, rng.words
                );
                assert_eq!(
                    (totals.rounds, totals.steps, totals.covered),
                    (noop.steps as u64, noop.steps as u64, 1),
                    "{label}: rounds, steps and the target's coverage delta"
                );
            }
        }
    }
}

#[test]
fn counting_probe_coverage_sums_to_n_across_parallel_trials() {
    let n = 24usize;
    let g = classic::cycle(n).unwrap();
    let plan = TrialPlan::new(16, MAX_STEPS, 0xC0FE);
    let (out, probes) =
        run_cover_trials_typed_probed(&g, &CobraWalk::standard(), 0, &plan, counting);
    assert_eq!(out.censored, 0, "trials must complete for the oracle");
    assert_eq!(probes.len(), 16);
    for (i, probe) in probes.iter().enumerate() {
        let totals = probe.totals();
        assert_eq!(probe.trials().len(), 1, "one counter block per trial");
        assert_eq!(probe.trials()[0].trial, i as u64, "keyed by global index");
        assert_eq!(
            totals.covered as usize, n,
            "trial {i}: coverage deltas must sum to n"
        );
        assert_eq!(
            totals.merged,
            totals.draws - totals.frontier_sum,
            "trial {i}: merged must equal draws minus surviving frontier"
        );
    }
}

/// One traced cover trial of `process` on the 33-cycle, seed `0x7ACE`.
fn cycle_trace<P: TypedProcess>(process: &P) -> TraceProbe {
    let g = classic::cycle(33).unwrap();
    let mut probe = TraceProbe::new(8192);
    probe.on_trial_begin(0);
    CoverDriver::new(&g)
        .run_typed_in_probed(
            process,
            &ImplicitDraw,
            &mut TrialScratch::new(&g),
            0,
            None,
            MAX_STEPS,
            &mut StdRng::seed_from_u64(0x7ACE),
            &mut probe,
        )
        .expect("non-empty graph");
    assert_eq!(probe.dropped(), 0, "the trace ring overflowed");
    probe
}

#[test]
fn trace_probe_round_draws_equal_k_times_frontier() {
    // Per round t: the k-cobra frontier S_t sends k·|S_t| pebbles, and
    // each draw is lost, opens a slot in S_{t+1} or merges, so draws =
    // lost + |S_{t+1}| + merged. The trace's Round events carry draws,
    // merges and |S_{t+1}|; the round's PebbleLoss events, which precede
    // its Round event, carry the losses. A faulty walk whose plan never
    // fires (its one outage window opens at round 10⁶) loses nothing and
    // reads the plain walk's identity; under pebble loss alone every
    // sender still draws k pebbles. No other trace may carry a fault.
    let quiet = FaultyCobraWalk::new(2, FaultPlan::none().with_outage(0, 1_000_000, 1_000_001));
    let lossy = FaultyCobraWalk::new(2, FaultPlan::none().with_pebble_loss(0.2));
    let traces = [
        ("cobra k=2", 2, false, cycle_trace(&CobraWalk::new(2))),
        ("cobra k=3", 3, false, cycle_trace(&CobraWalk::new(3))),
        ("faulty k=2, quiet plan", 2, false, cycle_trace(&quiet)),
        ("faulty k=2, 20% loss", 2, true, cycle_trace(&lossy)),
    ];
    for (label, k, may_lose, probe) in traces {
        let mut prev_frontier = 1u64; // the lone start vertex
        let mut lost = 0u64;
        let mut rounds_seen = 0usize;
        let mut merged_total = 0u64;
        for ev in probe.events() {
            match *ev {
                TraceEvent::Fault { kind, count } => {
                    assert!(
                        may_lose && kind == FaultKind::PebbleLoss,
                        "{label}: unexpected {kind:?} fault"
                    );
                    lost += count;
                }
                TraceEvent::Round {
                    frontier,
                    draws,
                    merged,
                    ..
                } => {
                    assert_eq!(
                        draws,
                        k * prev_frontier,
                        "{label}: round draws must be k times the sending frontier"
                    );
                    assert_eq!(
                        lost + frontier + merged,
                        draws,
                        "{label}: every draw is lost, opens a slot or merges"
                    );
                    merged_total += merged;
                    prev_frontier = frontier;
                    lost = 0;
                    rounds_seen += 1;
                }
                _ => {}
            }
        }
        assert!(rounds_seen > 0, "{label}: trace recorded no rounds");
        assert!(merged_total > 0, "{label}: the trial coalesced nothing");
    }
}

#[test]
fn fixed_schedule_counts_like_the_cobra_walk() {
    // A `Fixed(k)` schedule is the k-cobra walk draw for draw, so its
    // kernel must report the same draws and merges, trial by trial.
    let graphs: Vec<(&str, Graph)> = vec![
        ("grid 8x8", grid::grid(&[7, 7])),
        ("cycle 33", classic::cycle(33).unwrap()),
        ("star 48", classic::star(48).unwrap()),
    ];
    for (name, g) in &graphs {
        for k in [1u32, 2, 3] {
            let plan = TrialPlan::new(24, MAX_STEPS, 0x5C4E + u64::from(k));
            let scheduled = ScheduledCobraWalk::new(BranchingSchedule::Fixed(k));
            let (a, pa) = run_cover_trials_typed_probed(g, &CobraWalk::new(k), 0, &plan, counting);
            let (b, pb) = run_cover_trials_typed_probed(g, &scheduled, 0, &plan, counting);
            let label = format!("{name}, k={k}");
            assert_outcomes_identical(&a, &b, &label);
            let trials = |ps: &[CountingProbe]| -> Vec<_> {
                ps.iter().flat_map(|p| p.trials().to_vec()).collect()
            };
            assert_eq!(trials(&pa), trials(&pb), "{label}: per-trial counters");
            assert!(pb.iter().all(|p| p.totals().draws > 0), "{label}: no draws");
        }
    }
}

#[test]
fn bernoulli_schedule_stream_is_pinned() {
    // A `Bernoulli { base: 1, extra_prob: 0.5 }` schedule takes one
    // main-stream coin per sender between its draws, so no fixed-k walk
    // shares its stream. Recorded per graph: the outcome digest and the
    // run's total draws and merges under `CountingProbe`.
    let process = ScheduledCobraWalk::new(BranchingSchedule::Bernoulli {
        base: 1,
        extra_prob: 0.5,
    });
    let graphs: Vec<(&str, Graph, (u64, u64, u64))> = vec![
        (
            "grid 8x8",
            grid::grid(&[7, 7]),
            (0x818e4b0b5d6b5568, 30746, 9325),
        ),
        (
            "cycle 33",
            classic::cycle(33).unwrap(),
            (0xc3c012cb97d0673c, 24723, 7792),
        ),
    ];
    let plan = TrialPlan::new(48, MAX_STEPS, 0xBE5C);
    for (name, g, (pin, draws_pin, merged_pin)) in &graphs {
        for workers in WORKER_COUNTS {
            let label = format!("bernoulli schedule, {name}, {workers}w");
            in_pool(workers, || {
                let out = run_cover_trials_typed_probed(g, &process, 0, &plan, noop).0;
                let (counted, probes) =
                    run_cover_trials_typed_probed(g, &process, 0, &plan, counting);
                assert_outcomes_identical(&out, &counted, &label);
                let total = |f: fn(&CountingProbe) -> u64| probes.iter().map(f).sum::<u64>();
                let draws = total(|p| p.totals().draws);
                let merged = total(|p| p.totals().merged);
                assert_eq!(outcome_digest(&out), *pin, "{label}");
                assert_eq!((draws, merged), (*draws_pin, *merged_pin), "{label}");
            });
        }
    }
}
