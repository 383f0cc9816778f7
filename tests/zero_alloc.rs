//! Steady-state allocation audit for the batched trial engine.
//!
//! After warm-up, the scratch-borrowing trial path (`run_typed_in` with a
//! reused [`TrialScratch`] and [`ImplicitDraw`] neighbor draws, as the
//! runners drive it) performs **zero heap allocations per trial**. A
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
use cobra_repro::obs::NoopProbe;
use cobra_repro::walks::{
    CobraWalk, CoverDriver, HittingDriver, ImplicitDraw, SimpleWalk, SisProcess, TrialScratch,
    TypedProcess, WaltProcess,
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
    let cover = CoverDriver::new(g);
    let hitting = HittingDriver::new(g);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..trials {
        let mut rng = StdRng::seed_from_u64(seed_base ^ i);
        let res = cover
            .run_typed_in(process, &ImplicitDraw, scratch, 0, 1_000_000, &mut rng)
            .expect("non-empty graph");
        std::hint::black_box(res.steps);
        let mut rng = StdRng::seed_from_u64(seed_base ^ i ^ 0x5EED);
        let res = hitting.run_typed_in(
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

/// Same, through the explicitly probed scratch path with a `NoopProbe`
/// — the route the unprobed entry points now delegate to. The probe
/// seam's zero-cost claim includes zero allocations.
fn allocations_for_probed<P: TypedProcess>(
    g: &Graph,
    process: &P,
    scratch: &mut TrialScratch<P::State>,
    trials: u64,
    seed_base: u64,
) -> usize {
    let cover = CoverDriver::new(g);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..trials {
        let mut rng = StdRng::seed_from_u64(seed_base ^ i);
        let res = cover
            .run_typed_in_probed(
                process,
                &ImplicitDraw,
                scratch,
                0,
                1_000_000,
                &mut rng,
                &mut NoopProbe,
            )
            .expect("non-empty graph");
        std::hint::black_box(res.steps);
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
        audit!("sis(2,0.8)", SisProcess::new(2, 0.8));
        audit!("walt(p=6)", WaltProcess::with_count(6).lazy(false));

        macro_rules! audit_probed {
            ($pname:literal, $process:expr) => {{
                let process = $process;
                let mut scratch = TrialScratch::new(g);
                let warm = allocations_for_probed(g, &process, &mut scratch, 4, 0xC0B7A);
                let mut steady = usize::MAX;
                for _ in 0..3 {
                    steady = allocations_for_probed(g, &process, &mut scratch, 32, 0xFACADE);
                    if steady == 0 {
                        break;
                    }
                }
                assert_eq!(
                    steady, 0,
                    "{} (NoopProbe route) on {gname}: {steady} allocations in steady state \
                     (warm-up did {warm})",
                    $pname
                );
            }};
        }

        audit_probed!("cobra(k=2)", CobraWalk::standard());
        audit_probed!("walt(p=6)", WaltProcess::with_count(6).lazy(false));
    }
}
