//! The Monte Carlo loop allocates nothing per permutation.
//!
//! `significance_test` sets everything up before its loop — region-major
//! rows, the graph shifter's buffers, the tail tallies — so the number of
//! heap allocations of one call must not depend on how many permutations it
//! runs. A counting global allocator (per thread, so the harness's other
//! threads cannot disturb it) checks exactly that, for every scheme.

use polygamy_core::{significance_test, PermutationScheme};
use polygamy_stats::permutation::MonteCarlo;
use polygamy_topology::FeatureSet;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: both methods forward unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter with
// no destructor, which neither allocates nor unwinds. (`realloc` keeps its
// default, which goes through `alloc`, so growth is counted too.)
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

fn allocations_of(f: impl FnOnce() -> f64) -> (f64, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let p = f();
    (p, ALLOCATIONS.with(Cell::get) - before)
}

/// Features on every 5th (pos) and every 7th (neg) vertex, shifted.
fn features(len: usize, phase: usize) -> FeatureSet {
    let mut fs = FeatureSet::empty(len);
    for i in (phase..len).step_by(5) {
        fs.pos.set(i);
    }
    for i in (phase + 2..len).step_by(7) {
        fs.neg.set(i);
    }
    fs
}

#[test]
fn allocation_count_is_independent_of_the_permutation_count() {
    // A 6-cycle with a chord and one isolated region: BFS restarts, free
    // neighbours running out and the leftover pairing all happen.
    let irregular = vec![
        vec![1, 3, 5],
        vec![0, 2],
        vec![1, 3],
        vec![0, 2, 4],
        vec![3, 5],
        vec![0, 4],
        vec![],
    ];
    let temporal = vec![Vec::new()];
    for (adjacency, scheme) in [
        (&temporal, PermutationScheme::Paper),
        (&irregular, PermutationScheme::Paper),
        (&irregular, PermutationScheme::SpatioTemporal),
    ] {
        let n_steps = 300;
        let n = adjacency.len() * n_steps;
        let (left, right) = (features(n, 0), features(n, 1));
        let run = |permutations: usize| {
            let mc = MonteCarlo {
                permutations,
                ..MonteCarlo::default()
            };
            allocations_of(|| {
                significance_test(&left, &right, adjacency, n_steps, 0.25, &mc, scheme, 9)
            })
        };
        let (_, few) = run(3);
        let (p, many) = run(1_500);
        assert!((0.0..=1.0).contains(&p));
        assert_eq!(
            few,
            many,
            "{} regions, {scheme:?}: 3 permutations made {few} allocations, 1,500 made {many}",
            adjacency.len()
        );
    }
}
