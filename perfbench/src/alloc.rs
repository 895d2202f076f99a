//! A counting global allocator for the `alloc.*` per-layer rows.
//!
//! The benchmark binary (and its smoke test) install [`CountingAlloc`]
//! with `#[global_allocator]`; the harness reads [`allocations`] around
//! each manager callback. The count is one relaxed atomic add per
//! allocation, paid on every run so traced and untraced runs build the
//! same binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Heap allocations (including reallocations) since process start.
/// Stays at zero when [`CountingAlloc`] is not installed.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The system allocator plus an allocation counter.
pub struct CountingAlloc;

// SAFETY: every operation delegates verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the counter bump has no other effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}
