//! A counting global allocator for the heap pins (`radix_alloc.rs`,
//! `stage_heap.rs`): `System`, plus a count of every allocation and
//! reallocation, of the live bytes and of their high-water mark.
//!
//! A test binary installs it with
//! `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;`. The
//! counters are process-global, so a binary that reads them must hold a
//! single test: a concurrently running one would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested and not yet freed.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
/// The most `LIVE_BYTES` has reached since it was last reset.
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// The counting allocator (see the [module docs](self)).
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        PEAK_BYTES.fetch_max(live + layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    // Forwarded so that a `vec![0; n]` under this allocator gets fresh zeroed
    // pages as it does under `System`, instead of `alloc` plus a write of
    // every byte, which would make the whole reservation resident.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        PEAK_BYTES.fetch_max(live + layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract
        // (a non-zero-sized layout), which is `System.alloc_zeroed`'s.
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed) + new_size as u64;
        PEAK_BYTES.fetch_max(live - layout.size() as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations and reallocations so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes live now.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// The most bytes live at once since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Restarts the high-water mark from the bytes live now.
pub fn reset_peak() {
    PEAK_BYTES.store(live_bytes(), Ordering::Relaxed);
}
