//! Byte-counting global allocator, so `coverage.giant_alloc_mb` is a
//! measured count of the bytes the giant cell requests rather than an
//! estimate. The counter is one relaxed atomic add per allocation; the
//! engine's steady-state trial paths do not allocate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static BYTES_ALLOCATED: AtomicUsize = AtomicUsize::new(0);

/// Total bytes requested from the allocator since process start.
pub fn bytes_allocated() -> usize {
    BYTES_ALLOCATED.load(Ordering::Relaxed)
}

pub struct CountingAllocator;

// SAFETY: a pass-through to the System allocator. Every method forwards
// its arguments unchanged, so System's GlobalAlloc contract (layout
// validity, pointer provenance, matching dealloc) holds verbatim; the
// counter bump does not touch the allocation.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES_ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds GlobalAlloc's contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES_ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds GlobalAlloc's contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES_ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: `ptr`, `layout` and `new_size` come from the caller,
        // who upholds GlobalAlloc's realloc contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by the matching System call above.
        unsafe { System.dealloc(ptr, layout) }
    }
}
