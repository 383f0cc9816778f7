//! Steady-state allocation audit for the batched trial engine.
//!
//! After warm-up, the scratch-borrowing trial path (`run_typed_in` with a
//! reused [`TrialScratch`] and [`ImplicitDraw`] neighbor draws, as the
//! runners drive it) performs **zero heap allocations per trial**, and
//! the 64-lane kernel (`run_lane_cover` on a reused [`LaneScratch`])
//! performs zero per batch, on either of its traversals. Probed cover
//! trials allocate nothing either, with a `NoopProbe` or a
//! `CountingProbe`, whose rounds ask the state for its support size. A
//! counting global allocator makes that a hard test rather than a code
//! claim: warm the scratch with a few trials, snapshot the allocation
//! counter, run many more trials, and require the counter to be exactly
//! unchanged.
//!
//! This file deliberately contains a single `#[test]` (integration test
//! files run as their own process): the counter is global, so no other
//! test may allocate concurrently while the steady-state window is open.
//! The harness process itself can still allocate on another thread
//! (libtest bookkeeping), so each steady window is retried up to three
//! times and passes if *any* window is clean: engine allocations are
//! deterministic (fixed seeds, reused scratch) and repeat in every
//! window, while harness noise is transient.

use cobra_repro::graph::generators::{classic, grid};
use cobra_repro::graph::Graph;
use cobra_repro::obs::{CountingProbe, NoopProbe, Probe};
use cobra_repro::walks::{
    run_lane_cover, BranchingSchedule, CobraWalk, CoverDriver, ImplicitDraw, LaneScratch,
    ScheduledCobraWalk, SimpleWalk, TrialScratch, TypedProcess, WaltProcess,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator wrapper that counts every allocation entry point.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to the System allocator — every method
// forwards its arguments unchanged, so System's GlobalAlloc contract
// (layout validity, pointer provenance) is preserved verbatim; the
// atomic counter bump has no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds GlobalAlloc's contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds GlobalAlloc's contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout`/`new_size` come straight from the
        // caller, who upholds GlobalAlloc's realloc contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by the matching System alloc above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Run `trials` cover + hitting trials of `process` on `g` through the
/// scratch engine and return how many allocations they performed.
fn allocations_for<P: TypedProcess>(
    g: &Graph,
    process: &P,
    scratch: &mut TrialScratch<P::State>,
    target: u32,
    trials: u64,
    seed_base: u64,
) -> usize {
    let driver = CoverDriver::new(g);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..trials {
        let mut rng = StdRng::seed_from_u64(seed_base ^ i);
        let res = driver
            .run_typed_in(process, &ImplicitDraw, scratch, 0, 1_000_000, &mut rng)
            .expect("non-empty graph");
        std::hint::black_box(res.steps);
        let mut rng = StdRng::seed_from_u64(seed_base ^ i ^ 0x5EED);
        let res = driver.hit_typed_in(
            process,
            &ImplicitDraw,
            scratch,
            0,
            target,
            1_000_000,
            &mut rng,
        );
        std::hint::black_box(res.steps);
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Cover trials through the probed trial body with a probe from
/// `make_probe`: `NoopProbe` is the route the unprobed entry points
/// delegate to, so the probe seam's zero-cost claim includes zero
/// allocations; `CountingProbe` runs every hook, including the
/// per-round `support_size` query. Every probe is built before the
/// window opens, so the window counts the engine's allocations only.
fn allocations_for_probed<P: TypedProcess, Pb: Probe>(
    g: &Graph,
    process: &P,
    scratch: &mut TrialScratch<P::State>,
    make_probe: fn() -> Pb,
    trials: u64,
    seed_base: u64,
) -> usize {
    let driver = CoverDriver::new(g);
    let mut probes: Vec<Pb> = (0..trials).map(|_| make_probe()).collect();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for (i, probe) in (0..trials).zip(&mut probes) {
        let mut rng = StdRng::seed_from_u64(seed_base ^ i);
        let res = driver
            .run_typed_in_probed(
                process,
                &ImplicitDraw,
                scratch,
                0,
                None,
                1_000_000,
                &mut rng,
                probe,
            )
            .expect("non-empty graph");
        std::hint::black_box(res.steps);
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// A `CountingProbe` whose list of finished trial blocks already has
/// room for the next one.
fn roomy_counting_probe() -> CountingProbe {
    let mut probe = CountingProbe::new();
    probe.on_trial_end(0, true);
    probe
}

/// Run `batches` full-width lane batches of the `k`-cobra walk on `g`
/// through a reused `LaneScratch` and return how many allocations they
/// performed.
fn allocations_for_lanes(
    g: &Graph,
    k: u32,
    scratch: &mut LaneScratch,
    batches: u64,
    seed_base: u64,
) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for b in 0..batches {
        let mut rng = StdRng::seed_from_u64(seed_base ^ b);
        let out = run_lane_cover(g, &ImplicitDraw, k, 0, u64::MAX, 5_000, scratch, &mut rng);
        std::hint::black_box(out.completed);
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_trials_do_not_allocate() {
    let graphs: Vec<(&str, Graph)> = vec![
        ("cycle-96", classic::cycle(96).unwrap()),
        ("grid-12x12", grid::grid(&[11, 11])),
        ("complete-32", classic::complete(32).unwrap()),
    ];
    for (gname, g) in &graphs {
        let target = (g.num_vertices() - 1) as u32;

        macro_rules! audit {
            ($pname:literal, $process:expr) => {{
                let process = $process;
                let mut scratch = TrialScratch::new(g);
                // Warm-up: first trials build the state and grow every
                // buffer to its steady-state capacity.
                let warm = allocations_for(g, &process, &mut scratch, target, 4, 0xC0B7A);
                // Steady state: many more trials, zero allocations. An
                // identically-seeded retry filters out off-thread
                // harness allocations (see the module doc).
                let mut steady = usize::MAX;
                for _ in 0..3 {
                    steady = allocations_for(g, &process, &mut scratch, target, 32, 0xFACADE);
                    if steady == 0 {
                        break;
                    }
                }
                assert_eq!(
                    steady, 0,
                    "{} on {gname}: {steady} allocations in steady state (warm-up did {warm})",
                    $pname
                );
            }};
        }

        audit!("cobra(k=2)", CobraWalk::standard());
        audit!("cobra(k=3)", CobraWalk::new(3));
        audit!("simple-rw", SimpleWalk::new());
        audit!(
            "cobra[bern(1+0.5)]",
            ScheduledCobraWalk::new(BranchingSchedule::Bernoulli {
                base: 1,
                extra_prob: 0.5
            })
        );
        audit!("walt(p=6)", WaltProcess::with_count(6).lazy(false));

        macro_rules! audit_probed {
            ($pname:literal, $process:expr, $probe:literal, $make_probe:expr) => {{
                let process = $process;
                let mut scratch = TrialScratch::new(g);
                let warm =
                    allocations_for_probed(g, &process, &mut scratch, $make_probe, 4, 0xC0B7A);
                let mut steady = usize::MAX;
                for _ in 0..3 {
                    steady = allocations_for_probed(
                        g,
                        &process,
                        &mut scratch,
                        $make_probe,
                        32,
                        0xFACADE,
                    );
                    if steady == 0 {
                        break;
                    }
                }
                assert_eq!(
                    steady, 0,
                    "{} ({} route) on {gname}: {steady} allocations in steady state \
                     (warm-up did {warm})",
                    $pname, $probe
                );
            }};
        }

        let noop = || NoopProbe;
        audit_probed!("cobra(k=2)", CobraWalk::standard(), "NoopProbe", noop);
        audit_probed!(
            "walt(p=6)",
            WaltProcess::with_count(6).lazy(false),
            "NoopProbe",
            noop
        );
        audit_probed!(
            "walt(p=6)",
            WaltProcess::with_count(6).lazy(false),
            "CountingProbe",
            roomy_counting_probe
        );
    }

    // The lane kernel: the star keeps its rounds sparse, the complete
    // graph dense, and the cycle crosses between the two. One scratch is
    // sized for the first graph and regrown by warm-up on the others.
    let lane_graphs: Vec<(&str, Graph)> = vec![
        ("star-64", classic::star(64).unwrap()),
        ("cycle-64", classic::cycle(64).unwrap()),
        ("complete-32", classic::complete(32).unwrap()),
    ];
    let mut scratch = LaneScratch::new(&lane_graphs[0].1);
    for (gname, g) in &lane_graphs {
        for k in [1, 2] {
            let warm = allocations_for_lanes(g, k, &mut scratch, 2, 0xC0B7A);
            let mut steady = usize::MAX;
            for _ in 0..3 {
                steady = allocations_for_lanes(g, k, &mut scratch, 8, 0xFACADE);
                if steady == 0 {
                    break;
                }
            }
            assert_eq!(
                steady, 0,
                "lanes (k={k}) on {gname}: {steady} allocations in steady state \
                 (warm-up did {warm})"
            );
        }
    }
}
