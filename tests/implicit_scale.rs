//! Giant-graph cover run through the implicit path, with a hard memory
//! assertion.
//!
//! The tentpole claim of the implicit-graph seam: a 10⁸-vertex cover run
//! needs **no adjacency materialization** — the graph is pure arithmetic
//! ([`ImplicitHypercube`], i.e. the grid `[0,1]^d` of Theorem 3's family
//! at its degenerate side length), coverage lives in a preallocated
//! [`SuccinctCoverage`], and the process state is two bitset frontiers.
//! A byte-counting global allocator turns "no materialization" into a
//! hard number: the *entire* run — graph handle, coverage structure,
//! process state, and every step — must allocate **< 256 MB**, while the
//! CSR adjacency for the same graph (n·d·4 bytes ≈ 14.5 GB at d = 27)
//! could not even be built.
//!
//! This file deliberately contains a single `#[test]` (integration test
//! files run as their own process): the byte counter is global. The test
//! is `#[ignore]`-tier (release-profile minutes). CI's ignored tier runs
//! it in debug, where a smaller dimension keeps the runtime sane while
//! still exercising the same code path at ~4M vertices, and a
//! release-profile step runs it at Q27.

use cobra_repro::walks::{run_cover_succinct, CobraWalk, SuccinctCoverage};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator wrapper that counts every byte requested.
struct ByteCountingAllocator;

static BYTES_ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to the System allocator — every method
// forwards its arguments unchanged, so System's GlobalAlloc contract
// (layout validity, pointer provenance) is preserved verbatim; the
// atomic counter bump has no effect on allocation behavior.
unsafe impl GlobalAlloc for ByteCountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES_ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: caller upholds GlobalAlloc's contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES_ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: caller upholds GlobalAlloc's contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES_ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
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
static GLOBAL: ByteCountingAllocator = ByteCountingAllocator;

#[test]
#[ignore = "release-profile minutes: 1.3e8-vertex cover run"]
fn giant_implicit_cover_run_stays_under_the_memory_budget() {
    use cobra_repro::graph::{ImplicitGraph, ImplicitHypercube};

    // Q27 has n = 2^27 ≈ 1.34·10^8 vertices — past the 10^8 bar — and
    // O(1) bit-trick neighbor arithmetic. Debug builds (CI's ignored
    // tier) drop to Q22 (~4.2M vertices): same code path, same budget,
    // two orders of magnitude fewer draws. Each size's cover takes the
    // rounds recorded before the hypercube's block-order decode, which
    // draws the same neighbors from the same stream.
    let (dim, rounds): (u32, usize) = if cfg!(debug_assertions) {
        (22, 45)
    } else {
        (27, 54)
    };
    let before = BYTES_ALLOCATED.load(Ordering::Relaxed);

    let g = ImplicitHypercube::new(dim).expect("dimension in range");
    let n = g.num_vertices();
    let mut covered = SuccinctCoverage::new(n);
    let mut rng = StdRng::seed_from_u64(0xC0B7A_5CA1E);
    let res = run_cover_succinct(
        &g,
        &CobraWalk::standard(),
        &mut covered,
        0,
        10_000,
        &mut rng,
    )
    .expect("non-empty graph");

    let allocated = BYTES_ALLOCATED.load(Ordering::Relaxed) - before;
    assert!(
        res.completed,
        "2-cobra failed to cover Q{dim} in 10k rounds (covered {}/{n})",
        res.covered
    );
    assert_eq!(res.covered, n);
    assert!(
        res.steps >= dim as usize,
        "covering Q{dim} takes at least diameter {dim} rounds, reported {}",
        res.steps
    );
    assert_eq!(covered.count(), n, "coverage structure must agree");
    assert_eq!(res.steps, rounds, "Q{dim} cover rounds moved");

    // The hard bar: everything the run touched — coverage (~16 MB at
    // Q27), two frontiers (~50 MB), RNG — in under
    // 256 MB total allocation volume. CSR adjacency alone would be
    // ~56× that budget.
    const BUDGET: usize = 256 << 20;
    assert!(
        allocated < BUDGET,
        "implicit cover run allocated {allocated} bytes (≥ {BUDGET}): \
         something materialized graph-sized adjacency"
    );
}
