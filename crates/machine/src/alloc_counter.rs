//! Per-processor allocation counting for the zero-allocation gate.
//!
//! Wall-clock timing is noisy; allocation counts are deterministic. The
//! bench harness (and the dedicated zero-alloc integration test) install
//! [`CountingAllocator`] as their `#[global_allocator]` and read
//! [`thread_totals`] before/after the steady-state execute loop — the delta
//! is the number of heap allocations the hot path performed. The library
//! itself never installs a global allocator; binaries opt in.
//!
//! The counters live in thread-locals, and many virtual processors share
//! one worker thread, so [`crate::carrier`] saves the outgoing carrier's
//! totals and installs the incoming one's at every switch: read inside a
//! program, [`thread_totals`] is that processor's own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// A `System`-backed allocator that counts allocations per thread.
///
/// Only `alloc`/`realloc` count (frees are not: the gate is about acquiring
/// memory in the hot loop). Counters follow the running context, so each
/// virtual processor observes exactly its own allocations.
pub struct CountingAllocator;

/// Record one allocation event of `bytes` against this thread, tolerating
/// thread-local storage teardown (allocations can happen while TLS
/// destructors run).
fn note(bytes: usize) {
    let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: defers entirely to `System`; counting has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
}

/// `(allocation count, allocated bytes)` for the calling context — the
/// virtual processor inside a machine run, the thread outside one — since
/// it started. Returns zeros unless a [`CountingAllocator`] is installed as
/// the global allocator.
pub fn thread_totals() -> (u64, u64) {
    let count = ALLOC_COUNT.try_with(Cell::get).unwrap_or(0);
    let bytes = ALLOC_BYTES.try_with(Cell::get).unwrap_or(0);
    (count, bytes)
}

/// Install `(count, bytes)` as the calling thread's totals: the carrier
/// switch's half of making the counters follow the virtual processor.
pub(crate) fn set_thread_totals((count, bytes): (u64, u64)) {
    let _ = ALLOC_COUNT.try_with(|c| c.set(count));
    let _ = ALLOC_BYTES.try_with(|c| c.set(bytes));
}
