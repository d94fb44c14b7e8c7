//! A counting global allocator for the allocation-count tests.
//!
//! Each crate's `tests/no_alloc.rs` includes this one file with
//! `#[path]` (a file under a `tests/` subdirectory is not a test target
//! of its own), so every count test watches allocations the same way:
//! compare [`allocations`] (or [`allocated_bytes`]) before and after the
//! code under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread. Const-initialised and without a
    /// destructor, so the allocator can touch it without allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for, freed or not.
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = ALLOCATED_BYTES.try_with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes the calling thread's allocations have asked for so far.
#[allow(dead_code, reason = "not every count test tallies bytes")]
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.with(Cell::get)
}
