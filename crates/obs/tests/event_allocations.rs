//! Observing an event allocates nothing once its instrument exists: a
//! registry lookup by `&str` finds the instrument without building a key,
//! so instrumented code can name its instrument at every event instead of
//! caching handles. A counting global allocator pins it.

use polygamy_obs::{count, global, names, stage, BATCH_SIZE_BUCKETS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting this thread's allocations.
struct Counting;

// SAFETY: both methods forward unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter with
// no destructor, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's obligations for `alloc` are passed on as they are.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: see the method.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see the method.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` made on this thread.
fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn events_on_registered_instruments_allocate_nothing() {
    let registry = global();
    let events = || {
        count(names::CORE_QUERIES, 1);
        drop(stage(names::CORE_STAGE_PLAN_NS));
        registry.counter(names::STORE_BYTES_FETCHED).add(7);
        registry.gauge(names::SERVE_INFLIGHT).add(1);
        (registry.histogram(names::SERVE_BATCH_SIZE, BATCH_SIZE_BUCKETS)).record(3);
    };
    assert!(allocations_of(events) > 0, "first use registers the names");
    assert_eq!(
        allocations_of(events),
        0,
        "an event on a registered name allocated"
    );
}
