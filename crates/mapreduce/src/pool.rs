//! Scoped worker pool over `std::thread::scope`.
//!
//! Tasks are indexed work items, cut into contiguous *ranges* that a fixed
//! number of workers claim off a shared atomic counter — the same
//! self-scheduling model Hadoop task trackers use within a node, and the
//! mechanism by which [`crate::cluster::Cluster`] bounds parallelism. There
//! is one pool body, `run_ranges`:
//!
//! * **the caller is worker 0.** `workers − 1` scoped helpers join it, so a
//!   helper's start-up overlaps the caller's own work instead of preceding
//!   everyone's. A range is folded into one result by the thread that
//!   claimed it; each worker keeps its `(range, result)` pairs, and after
//!   the join the caller puts them in range order, so the output is in
//!   task order whatever was claimed by whom;
//! * [`run_weighted_ranges`] cuts the ranges from a per-task cost estimate:
//!   consecutive tasks of about equal total cost, a task at or above that
//!   cost a range of its own, claimed *costliest range first* — and a
//!   dispatch whose whole estimate is below the inline floor never spawns
//!   and is one range. [`run_weighted_tasks`] is its one-result-per-task
//!   form: each range's results come back as one run, and the runs are
//!   concatenated in range order;
//! * [`run_chunked_tasks`] is the equal-cost case (ranges of a given size,
//!   claimed in index order), [`run_indexed_tasks`] its one-task-a-range
//!   form and [`par_map`] the same over owned inputs.
//!
//! Ranges keep neighbouring tasks together: a task's estimate may be off
//! by a large factor (a tiny task's fixed cost is invisible to it), but a
//! run of consecutive tasks of a query mixes its kinds of task, so a
//! range's real cost follows its estimate far better than a single
//! task's does — and a worker hands back one run of results per range, not
//! one record per task.
//!
//! Ranges and the floor only change who runs a task and when, never what
//! is computed: every per-task entry point returns exactly
//! `(0..n).map(f)`.

use crate::cluster::Cluster;
use std::cmp::Reverse;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Ranges a weighted dispatch cuts per worker: enough that the range a
/// worker is still on when the others run dry is ≤ 1/8 of its share, few
/// enough that claiming (one relaxed `fetch_add` per range) stays free.
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
/// worker claiming `chunk_size` consecutive indices at a time, in index
/// order, and returns the results in task order.
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
    let ranges: Vec<Range<usize>> = (0..n_tasks)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(n_tasks))
        .collect();
    let order: Vec<usize> = (0..ranges.len()).collect();
    concat(run_ranges(workers, &ranges, &order, |r| r.map(&f).collect()).0)
}

/// Runs `f(i)` for every `i in 0..costs.len()` on up to `workers` threads,
/// scheduled by `costs[i]` — the caller's estimate of task `i`'s
/// single-thread nanoseconds — and returns the results in task order with
/// the number of threads that ran them (1: the dispatch never left the
/// calling thread).
///
/// It is [`run_weighted_ranges`] with each range mapped task by task. A
/// wrong estimate costs balance, never correctness: the returned vector is
/// identical to the sequential `(0..costs.len()).map(f)`.
pub fn run_weighted_tasks<R, F>(workers: usize, costs: &[u64], f: F) -> (Vec<R>, usize)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let (runs, threads) = run_weighted_ranges(workers, costs, |r| r.map(&f).collect());
    (concat(runs), threads)
}

/// Folds contiguous ranges of `0..costs.len()` with `f` on up to `workers`
/// threads, scheduled by `costs[i]` — the caller's estimate of task `i`'s
/// single-thread nanoseconds — and returns one result per range, in range
/// order, with the number of threads that ran them (1: the dispatch never
/// left the calling thread).
///
/// The ranges cover every task once, in order. A dispatch estimated under
/// the inline floor, or given one worker, is the one range `0..n` (none if
/// there is no task); otherwise ranges are cut to about `total ÷ (workers ×
/// 8)` each and claimed costliest first (see the module docs). Ratios
/// between costs decide the cut; their absolute scale matters only against
/// the floor.
pub fn run_weighted_ranges<R, F>(workers: usize, costs: &[u64], f: F) -> (Vec<R>, usize)
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let n = costs.len();
    let total = costs.iter().fold(0u64, |sum, &c| sum.saturating_add(c));
    if workers <= 1 || total < INLINE_FLOOR_NS {
        return ((n > 0).then(|| f(0..n)).into_iter().collect(), 1);
    }
    let (ranges, order) = cost_ranges(costs, total / (workers * CHUNKS_PER_WORKER) as u64);
    run_ranges(workers, &ranges, &order, f)
}

/// Cuts `0..costs.len()` into contiguous ranges of about `target` cost
/// each, and orders them for claiming costliest first. A range closes once
/// its cost reaches `target`; a task of `target` or more closes the range
/// before it and is a range of its own. Returns the ranges in index order
/// and their claim order (range numbers; a stable sort, so equal costs
/// keep index order and the cut is a function of the costs alone).
fn cost_ranges(costs: &[u64], target: u64) -> (Vec<Range<usize>>, Vec<usize>) {
    let target = target.max(1);
    let (mut ranges, mut range_costs) = (Vec::new(), Vec::new());
    let (mut start, mut cost) = (0, 0u64);
    for (i, &c) in costs.iter().enumerate() {
        if c >= target && start < i {
            ranges.push(start..i);
            range_costs.push(cost);
            (start, cost) = (i, 0);
        }
        cost = cost.saturating_add(c);
        if cost >= target {
            ranges.push(start..i + 1);
            range_costs.push(cost);
            (start, cost) = (i + 1, 0);
        }
    }
    if start < costs.len() {
        ranges.push(start..costs.len());
        range_costs.push(cost);
    }
    let mut order: Vec<usize> = (0..ranges.len()).collect();
    order.sort_by_key(|&k| Reverse(range_costs[k]));
    (ranges, order)
}

/// The pool body. The caller and up to `workers − 1` scoped helpers claim
/// `ranges[order[0]]`, `ranges[order[1]]`, … until none is left, each
/// folding its range with `f`. Returns one result per range in *range*
/// order and the number of threads that took part. A task's panic reaches
/// the caller, whichever thread ran it, once every worker has stopped.
fn run_ranges<R, F>(
    workers: usize,
    ranges: &[Range<usize>],
    order: &[usize],
    f: F,
) -> (Vec<R>, usize)
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let threads = workers.min(ranges.len()).max(1);
    if threads == 1 {
        return (ranges.iter().cloned().map(f).collect(), 1);
    }
    // Relaxed: the counter hands out claim numbers and publishes nothing —
    // everything a worker reads was written before the scope began.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done: Vec<(usize, R)> = Vec::new();
        while let Some(&k) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            done.push((k, f(ranges[k].clone())));
        }
        done
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => done.extend(theirs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(k, _)| k);
    (done.into_iter().map(|(_, r)| r).collect(), threads)
}

/// The runs of a ranged dispatch, end to end.
fn concat<R>(mut runs: Vec<Vec<R>>) -> Vec<R> {
    if runs.len() == 1 {
        return runs.pop().unwrap_or_default();
    }
    let mut out = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    for run in runs {
        out.extend(run);
    }
    out
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

    /// Checks `cost_ranges`' contract on `costs` at `target`: the ranges
    /// tile `0..n` in order; each reaches the target, unless it is the last
    /// or a task at or above the target follows it; such a task is alone;
    /// and the claim order is costliest first, ties in index order.
    fn assert_cost_cut(costs: &[u64], target: u64) {
        let (ranges, order) = cost_ranges(costs, target);
        let cost = |r: &Range<usize>| costs[r.clone()].iter().sum::<u64>();
        let heavy = |i: usize| costs[i] >= target.max(1);
        let mut end = 0;
        for (k, r) in ranges.iter().enumerate() {
            assert_eq!(r.start, end, "contiguous: range {k} of {ranges:?}");
            assert!(r.start < r.end, "range {k} is empty");
            end = r.end;
            if r.clone().any(heavy) {
                assert_eq!(r.len(), 1, "a heavy task is alone: range {k}");
            } else if k + 1 < ranges.len() {
                assert!(
                    cost(r) >= target.max(1) || heavy(r.end),
                    "range {k} ({}) stops short of {target}",
                    cost(r)
                );
            }
        }
        assert_eq!(end, costs.len());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..ranges.len()).collect::<Vec<_>>());
        for w in order.windows(2) {
            let (a, b) = (cost(&ranges[w[0]]), cost(&ranges[w[1]]));
            assert!(
                a > b || (a == b && w[0] < w[1]),
                "claimed {w:?}: {a} then {b}"
            );
        }
    }

    #[test]
    fn ranges_are_contiguous_cost_cuts_claimed_costliest_first() {
        // Total 1,600 over a target of 100: ten 10s a range, then the heavy
        // 150 closes the 10s before it and stands alone, as do 250 and 200.
        let mut costs = vec![10u64; 95];
        costs.extend([150, 250, 10, 200, 10, 10, 10, 10]);
        let (ranges, order) = cost_ranges(&costs, 100);
        let expect: Vec<Range<usize>> = (0..9)
            .map(|k| 10 * k..10 * k + 10)
            .chain([90..95, 95..96, 96..97, 97..98, 98..99, 99..103])
            .collect();
        assert_eq!(ranges, expect);
        // 250, 200, 150, then the nine full ranges in index order, then
        // the 50 cut short, the 40 of the last and the lone 10.
        assert_eq!(order, [11, 13, 10, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 14, 12]);
        assert_cost_cut(&costs, 100);
        // A zero target (a total smaller than the range count) still cuts.
        let (ranges, order) = cost_ranges(&[0, 3, 0], 0);
        assert_eq!((ranges, order), (vec![0..1, 1..2, 2..3], vec![1, 0, 2]));
        for (_, costs) in cost_shapes() {
            let total: u64 = costs.iter().sum();
            for workers in [2, 3, 7] {
                assert_cost_cut(&costs, total / (workers * CHUNKS_PER_WORKER) as u64);
            }
        }
    }

    #[test]
    fn weighted_ranges_come_back_in_range_order() {
        for (shape, costs) in cost_shapes() {
            let n = costs.len();
            for workers in [1, 2, 3, 7] {
                let (runs, threads) = run_weighted_ranges(workers, &costs, |r| r);
                let covered: Vec<usize> = runs.iter().cloned().flatten().collect();
                assert_eq!(covered, (0..n).collect::<Vec<_>>(), "{shape} @ {workers}");
                assert!(runs.iter().all(|r| !r.is_empty()), "{shape} @ {workers}");
                if threads == 1 {
                    assert!(runs.len() <= 1, "{shape} @ {workers}: inline is one range");
                }
            }
        }
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
