//! Scoped worker pool over `std::thread::scope`.
//!
//! Tasks are indexed work items pulled off a shared atomic counter by a
//! fixed number of worker threads — the same self-scheduling model Hadoop
//! task trackers use within a node, and the mechanism by which
//! [`crate::cluster::Cluster`] bounds parallelism.
//!
//! [`run_chunked_tasks`] is the general form: workers claim contiguous
//! *chunks* of task indices, which amortises counter and channel traffic
//! when a caller schedules thousands of small tasks on one pool (the flat
//! query executor's shape). Results are always assembled in task order, so
//! output is independent of worker count and chunk size. [`par_map`] is
//! the same pool over owned inputs.

use crate::cluster::Cluster;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

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
    let workers = workers.max(1);
    let chunk = chunk_size.max(1);
    if workers == 1 || n_tasks <= 1 {
        return (0..n_tasks).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n_tasks).map(|_| None).collect();
    // Hand each worker a disjoint view of the result slots through a
    // channel of (start index, chunk results) messages; the receiver owns
    // `slots`.
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Vec<R>)>();
    let n_chunks = n_tasks.div_ceil(chunk);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n_chunks) {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n_tasks {
                    break;
                }
                let end = (start + chunk).min(n_tasks);
                let rs: Vec<R> = (start..end).map(f).collect();
                if tx.send((start, rs)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        while let Ok((start, rs)) = rx.recv() {
            for (off, r) in rs.into_iter().enumerate() {
                slots[start + off] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every task ran"))
        .collect()
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
        let input = slots[i].lock().take().expect("input taken once");
        f(input)
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
}
