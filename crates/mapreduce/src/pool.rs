//! Scoped worker pool over `std::thread::scope`.
//!
//! Tasks are indexed work items, cut into *chunks* that a fixed number of
//! workers claim off a shared atomic counter — the same self-scheduling
//! model Hadoop task trackers use within a node, and the mechanism by
//! which [`crate::cluster::Cluster`] bounds parallelism. There is one pool
//! body, `run_chunks`:
//!
//! * **the caller is worker 0.** `workers − 1` scoped helpers join it, so a
//!   helper's start-up overlaps the caller's own work instead of preceding
//!   everyone's; each worker keeps its `(index, result)` pairs and the
//!   caller writes them to their slots after the join, so the output is in
//!   task order whatever was claimed by whom;
//! * [`run_weighted_tasks`] cuts the chunks from a per-task cost estimate,
//!   in *descending-cost* order at roughly equal cost: the heavy tasks are
//!   claimed first and singly, the cheap tail in bulk — and a dispatch
//!   whose whole estimate is below the inline floor never spawns;
//! * [`run_chunked_tasks`] is the equal-cost case (contiguous chunks of a
//!   given size, in index order), [`run_indexed_tasks`] its one-task-a-chunk
//!   form and [`par_map`] the same over owned inputs.
//!
//! Chunking and the floor only change who runs a task and when, never what
//! is computed: every entry point returns exactly `(0..n).map(f)`.

use crate::cluster::Cluster;
use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Chunks a weighted dispatch cuts per worker: enough that the chunk a
/// worker is still on when the others run dry is ≤ 1/8 of its share, few
/// enough that claiming (one relaxed `fetch_add` per chunk) stays free.
const CHUNKS_PER_WORKER: usize = 8;

/// Estimated single-thread nanoseconds below which a weighted dispatch runs
/// inline on the caller: twice the latency from `scope.spawn` to a helper's
/// first instruction (138–144 µs on the reference sandbox). Below it a
/// helper starts after the caller has done half the work and can take at
/// most a quarter of it, for the price of a spawn and a join. The
/// measurement is recorded in docs/architecture.md, "The evaluate dispatch".
const INLINE_FLOOR_NS: u64 = 280_000;

/// Runs `f(i)` for every `i in 0..n_tasks` on `workers` threads and returns
/// the results in task order.
///
/// `workers == 1` runs inline on the calling thread (no spawn overhead),
/// which keeps single-node measurements honest.
pub fn run_indexed_tasks<R, F>(workers: usize, n_tasks: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    run_chunked_tasks(workers, n_tasks, 1, f)
}

/// Runs `f(i)` for every `i in 0..n_tasks` on `workers` threads, with each
/// worker claiming `chunk_size` consecutive indices at a time, and returns
/// the results in task order.
///
/// Chunking only changes how indices are claimed, never what is computed or
/// how results are ordered: for any `workers`, `chunk_size` combination the
/// returned vector is identical to the sequential `(0..n_tasks).map(f)`.
pub fn run_chunked_tasks<R, F>(workers: usize, n_tasks: usize, chunk_size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let chunk = chunk_size.max(1);
    let order: Vec<usize> = (0..n_tasks).collect();
    let ends: Vec<usize> = (0..n_tasks)
        .step_by(chunk)
        .map(|start| (start + chunk).min(n_tasks))
        .collect();
    run_chunks(workers, &order, &ends, f).0
}

/// Runs `f(i)` for every `i in 0..costs.len()` on up to `workers` threads,
/// scheduled by `costs[i]` — the caller's estimate of task `i`'s
/// single-thread nanoseconds — and returns the results in task order with
/// the number of threads that ran them (1: the dispatch never left the
/// calling thread).
///
/// Ratios between costs decide the chunks (see the module docs); their
/// absolute scale matters only against the inline floor. A wrong estimate
/// costs balance, never correctness: the returned vector is identical to
/// the sequential `(0..costs.len()).map(f)`.
pub fn run_weighted_tasks<R, F>(workers: usize, costs: &[u64], f: F) -> (Vec<R>, usize)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let total = costs.iter().fold(0u64, |sum, &c| sum.saturating_add(c));
    if workers <= 1 || total < INLINE_FLOOR_NS {
        return ((0..costs.len()).map(f).collect(), 1);
    }
    let (order, ends) = weighted_chunks(costs, total / (workers * CHUNKS_PER_WORKER) as u64);
    run_chunks(workers, &order, &ends, f)
}

/// Cuts tasks into chunks of about `target` cost each, heaviest first: the
/// task indices in descending-cost order, and the end of each chunk in that
/// order. A task of `target` or more is a chunk of its own.
fn weighted_chunks(costs: &[u64], target: u64) -> (Vec<usize>, Vec<usize>) {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    // Stable: equal costs keep index order, so the cut is a function of
    // the costs alone.
    order.sort_by_key(|&i| Reverse(costs[i]));
    let mut ends = Vec::new();
    let mut chunk_cost = 0u64;
    for (at, &i) in order.iter().enumerate() {
        chunk_cost = chunk_cost.saturating_add(costs[i]);
        if chunk_cost >= target.max(1) {
            ends.push(at + 1);
            chunk_cost = 0;
        }
    }
    if ends.last() != Some(&order.len()) {
        ends.push(order.len());
    }
    (order, ends)
}

/// The pool body. Chunk `k` is the task indices `order[ends[k − 1]..ends[k]]`
/// (`order` a permutation of `0..n`, `ends` ascending, the last one `n`);
/// the caller and up to `workers − 1` scoped helpers claim chunks in `k`
/// order until none is left. Returns the results in task order and the
/// number of threads that took part. A task's panic reaches the caller,
/// whichever thread ran it, once every worker has stopped.
fn run_chunks<R, F>(workers: usize, order: &[usize], ends: &[usize], f: F) -> (Vec<R>, usize)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = workers.min(ends.len()).max(1);
    if threads == 1 {
        return ((0..order.len()).map(f).collect(), 1);
    }
    // Relaxed: the counter hands out chunk numbers and publishes nothing —
    // everything a worker reads was written before the scope began.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done: Vec<(usize, R)> = Vec::new();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= ends.len() {
                return done;
            }
            let start = if k == 0 { 0 } else { ends[k - 1] };
            done.extend(order[start..ends[k]].iter().map(|&i| (i, f(i))));
        }
    };
    let done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut done = vec![work()];
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => done.push(theirs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    let mut slots: Vec<Option<R>> = (0..order.len()).map(|_| None).collect();
    for (i, r) in done.into_iter().flatten() {
        slots[i] = Some(r);
    }
    let results = slots.into_iter().map(|s| s.expect("every task ran"));
    (results.collect(), threads)
}

/// Parallel map over owned inputs, results in input order — the shape of
/// the scalar-function and feature-identification jobs, where every
/// (function, resolution) unit is processed independently.
pub fn par_map<I, O, F>(cluster: Cluster, inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let slots: Vec<Mutex<Option<I>>> = inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
    run_indexed_tasks(cluster.workers(), slots.len(), |i| {
        let input = slots[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        f(input.expect("input taken once"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_in_task_order() {
        let out = run_indexed_tasks(4, 100, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn single_worker_inline() {
        let out = run_indexed_tasks(1, 10, |i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn zero_tasks() {
        let out: Vec<usize> = run_indexed_tasks(8, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicU64::new(0);
        let out = run_indexed_tasks(7, 1_000, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(out.len(), 1_000);
        assert_eq!(counter.load(Ordering::Relaxed), 1_000);
    }

    #[test]
    fn more_workers_than_tasks() {
        let out = run_indexed_tasks(64, 3, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn chunked_matches_sequential_for_any_shape() {
        let expect: Vec<usize> = (0..257).map(|i| i * 3 + 1).collect();
        for workers in [1, 2, 5, 16] {
            for chunk in [1, 2, 7, 64, 300] {
                let out = run_chunked_tasks(workers, 257, chunk, |i| i * 3 + 1);
                assert_eq!(out, expect, "workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn chunked_runs_every_task_exactly_once() {
        let counter = AtomicU64::new(0);
        let out = run_chunked_tasks(6, 1_000, 13, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(out.len(), 1_000);
        assert_eq!(counter.load(Ordering::Relaxed), 1_000);
    }

    #[test]
    fn chunk_size_zero_clamped() {
        let out = run_chunked_tasks(4, 10, 0, |i| i);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_order() {
        let out = par_map(Cluster::local(8), (0..100).collect::<Vec<_>>(), |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    /// A deterministic scramble for cost vectors.
    fn scrambled(i: usize) -> u64 {
        (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44
    }

    /// Cost vectors on both sides of the inline floor.
    fn cost_shapes() -> Vec<(&'static str, Vec<u64>)> {
        let unit = INLINE_FLOOR_NS / 16;
        vec![
            ("all equal", vec![unit; 100]),
            ("all zero", vec![0; 100]),
            (
                "one huge, many tiny",
                std::iter::once(INLINE_FLOOR_NS * 10)
                    .chain(std::iter::repeat_n(1, 300))
                    .collect(),
            ),
            (
                "strictly descending",
                (0..100).rev().map(|c| c * unit).collect(),
            ),
            ("random", (0..257).map(scrambled).collect()),
            ("empty", Vec::new()),
            ("length 1", vec![INLINE_FLOOR_NS * 2]),
        ]
    }

    #[test]
    fn weighted_matches_sequential_for_any_costs() {
        for (shape, costs) in cost_shapes() {
            let expect: Vec<usize> = (0..costs.len()).map(|i| i * 7 + 1).collect();
            let total: u64 = costs.iter().sum();
            for workers in [1, 2, 3, 7] {
                let runs: Vec<AtomicU64> = costs.iter().map(|_| AtomicU64::new(0)).collect();
                let (out, threads) = run_weighted_tasks(workers, &costs, |i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    i * 7 + 1
                });
                assert_eq!(out, expect, "{shape} @ {workers}");
                assert!(
                    runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                    "{shape} @ {workers}: every task exactly once"
                );
                assert!((1..=workers).contains(&threads), "{shape} @ {workers}");
                if total < INLINE_FLOOR_NS || costs.len() <= 1 {
                    assert_eq!(threads, 1, "{shape} @ {workers}");
                }
            }
        }
    }

    #[test]
    fn dispatch_under_the_floor_stays_on_the_caller() {
        let caller = std::thread::current().id();
        let mut costs = vec![INLINE_FLOOR_NS / 64; 64];
        costs[0] -= 1;
        let (out, threads) = run_weighted_tasks(7, &costs, |i| {
            assert_eq!(std::thread::current().id(), caller);
            i
        });
        assert_eq!((out.len(), threads), (64, 1));
        // One more nanosecond of estimate and helpers join in.
        costs[0] += 1;
        let (out, threads) = run_weighted_tasks(7, &costs, |i| i);
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        assert_eq!(threads, 7);
    }

    #[test]
    fn heavy_tasks_are_claimed_first_and_singly() {
        // Total 1,600 over a target of 100: the three heavy tasks are the
        // first three chunks, one each; the hundred 10s follow ten a chunk.
        let mut costs = vec![10u64; 100];
        costs.extend([150, 250, 200]);
        let (order, ends) = weighted_chunks(&costs, 100);
        assert_eq!(order[..3], [101, 102, 100]);
        assert_eq!(ends[..4], [1, 2, 3, 13]);
        assert_eq!(order[3..], (0..100).collect::<Vec<_>>()[..]);
        assert_eq!(ends.len(), 13);
        assert_eq!(ends.last(), Some(&103));
        // A zero target (a total smaller than the chunk count) still cuts.
        let (order, ends) = weighted_chunks(&[0, 3, 0], 0);
        assert_eq!((order, ends), (vec![1, 0, 2], vec![1, 3]));
    }

    /// Runs 64 one-task chunks on two workers, the first task the chosen
    /// thread runs panicking. Each thread holds its first task until the
    /// other has started one, so both do get to run one — neither can
    /// drain the queue before the other arrives.
    fn panic_on(caller_panics: bool) {
        use std::sync::atomic::AtomicBool;
        let caller = std::thread::current().id();
        // Relaxed: the flags carry no data, only "that thread is up".
        let ran = [AtomicBool::new(false), AtomicBool::new(false)];
        run_chunked_tasks(2, 64, 1, |_| {
            let on_caller = std::thread::current().id() == caller;
            ran[usize::from(on_caller)].store(true, Ordering::Relaxed);
            if on_caller == caller_panics {
                panic!("task failed, on the caller: {on_caller}");
            }
            while !ran[usize::from(!on_caller)].load(Ordering::Relaxed) {
                std::thread::yield_now();
            }
        });
    }

    #[test]
    #[should_panic(expected = "task failed, on the caller: false")]
    fn a_panic_on_a_helper_reaches_the_caller() {
        panic_on(false);
    }

    #[test]
    #[should_panic(expected = "task failed, on the caller: true")]
    fn a_panic_on_worker_zero_reaches_the_caller() {
        panic_on(true);
    }
}
