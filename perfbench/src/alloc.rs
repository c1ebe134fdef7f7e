//! Per-thread allocation counting for traced runs.
//!
//! [`CountingAlloc`] forwards to the system allocator and, while
//! counting is switched on, bumps a thread-local counter on every
//! allocation and reallocation. Only the traced binary installs it as
//! the global allocator; in the untraced binary [`allocations`] stays 0
//! and nothing is added to any allocation. The counter is per thread so
//! the broker worker and the edit generator never leak into the
//! per-layer counts of the measuring thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// A pass-through allocator that counts allocation calls per thread.
pub struct CountingAlloc;

fn bump() {
    if COUNTING.load(Ordering::Relaxed) {
        // `try_with`: the slot may already be gone while a thread exits.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded verbatim to `System` with the caller's
// arguments, so `System`'s guarantees carry over. The counter is a
// const-initialised thread-local `Cell<u64>` without a destructor: bumping
// it never allocates and never re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches counting on or off for every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations the calling thread has made while counting was on.
pub fn allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}
