//! A counting global allocator for the tests that pin what the store
//! allocates. Counts are per thread, so the harness's other threads cannot
//! disturb them. Each test binary installs it with
//! `#[global_allocator] static GLOBAL: support::Counting = support::Counting;`
//! and reads the part of it it needs.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// The allocator: `System`, counting.
pub struct Counting;

// SAFETY: both methods forward unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is three thread-local counters
// with no destructor, which neither allocate nor unwind. (`realloc` keeps
// its default, which goes through `alloc` and `dealloc`, so growth is
// counted too.)
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's obligations for `alloc` are passed on as they are.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = ALLOCATED_BYTES.try_with(|n| n.set(n.get() + layout.size() as u64));
        let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + layout.size() as i64));
        // SAFETY: see the method.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE_BYTES.try_with(|n| n.set(n.get() - layout.size() as i64));
        // SAFETY: see the method.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations this thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes this thread has allocated so far, freed or not: a growing vector
/// counts every capacity it passed through.
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.with(Cell::get)
}

/// Bytes this thread has allocated and not freed.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}
