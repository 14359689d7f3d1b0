//! The map → shuffle → reduce job runner.
//!
//! Faithful to the Hadoop semantics the paper's implementation relies on
//! (Appendix C): mappers emit `(key, value)` pairs; the shuffle hash-
//! partitions keys across reduce tasks; each reduce task sees its keys in
//! sorted order with all values grouped; optional combiners pre-aggregate
//! map-side. Everything is deterministic for a fixed input, regardless of
//! worker count — a property the tests pin down.

use crate::cluster::Cluster;
use crate::pool::run_indexed_tasks;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// One reduce partition's input, handed off to exactly one reduce task.
type ReduceSlot<K, V> = Mutex<Option<Vec<(K, V)>>>;

/// Tuning knobs for a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobConfig {
    /// Number of reduce partitions (default: worker count).
    pub reduce_tasks: Option<usize>,
    /// Map tasks per worker (default 4) — smaller tasks smooth stragglers.
    pub map_tasks_per_worker: usize,
}

impl Default for JobConfig {
    fn default() -> Self {
        Self {
            reduce_tasks: None,
            map_tasks_per_worker: 4,
        }
    }
}

/// Phase timings and record counts of one executed job.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct JobMetrics {
    /// Number of map tasks.
    pub map_tasks: usize,
    /// Number of reduce tasks.
    pub reduce_tasks: usize,
    /// Input records consumed by mappers.
    pub records_mapped: usize,
    /// Intermediate pairs after combining.
    pub pairs_shuffled: usize,
    /// Distinct keys reduced.
    pub keys_reduced: usize,
    /// Map phase wall seconds.
    pub map_secs: f64,
    /// Shuffle+sort wall seconds.
    pub shuffle_secs: f64,
    /// Reduce phase wall seconds.
    pub reduce_secs: f64,
}

impl JobMetrics {
    /// Total wall seconds across phases.
    pub fn total_secs(&self) -> f64 {
        self.map_secs + self.shuffle_secs + self.reduce_secs
    }
}

/// 64-bit FNV-1a as a `std::hash::Hasher`, for shuffle partitioning.
///
/// The partition a key lands in never reaches the output (reduce results
/// are re-sorted globally), but pinning the hash keeps task boundaries —
/// and therefore per-task metrics and scheduling traces — identical
/// across toolchains, where `std`'s `DefaultHasher` is documented to
/// drift between releases.
struct FnvPartitioner(u64);

impl FnvPartitioner {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Self(Self::OFFSET)
    }
}

impl Hasher for FnvPartitioner {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
}

fn hash_of<K: Hash>(key: &K) -> u64 {
    let mut h = FnvPartitioner::new();
    key.hash(&mut h);
    h.finish()
}

/// Runs a full map-reduce job on `cluster`.
///
/// * `inputs` — input splits (one mapper call per element);
/// * `map` — emits `(key, value)` pairs via the provided emitter;
/// * `combine` — optional associative map-side pre-aggregation;
/// * `reduce` — folds all values of one key into one output.
///
/// Returns `(key, output)` pairs sorted by key, plus metrics.
pub fn run_job<I, K, V, O, M, C, R>(
    cluster: Cluster,
    config: JobConfig,
    inputs: Vec<I>,
    map: M,
    combine: Option<C>,
    reduce: R,
) -> (Vec<(K, O)>, JobMetrics)
where
    I: Send,
    K: Ord + Hash + Clone + Send,
    V: Send,
    O: Send,
    M: Fn(I, &mut dyn FnMut(K, V)) + Sync,
    C: Fn(&K, Vec<V>) -> V + Sync,
    R: Fn(&K, Vec<V>) -> O + Sync,
{
    let workers = cluster.workers();
    let n_reduce = config.reduce_tasks.unwrap_or(workers).max(1);
    let mut metrics = JobMetrics {
        reduce_tasks: n_reduce,
        records_mapped: inputs.len(),
        ..JobMetrics::default()
    };

    // ---- Map phase: split inputs into tasks, emit partitioned pairs.
    let map_start = Instant::now();
    let n_map_tasks = (workers * config.map_tasks_per_worker)
        .min(inputs.len())
        .max(1);
    metrics.map_tasks = n_map_tasks;
    // Distribute inputs round-robin-free: contiguous chunks, remainder
    // spread over the first tasks.
    let mut chunks: Vec<Vec<I>> = Vec::with_capacity(n_map_tasks);
    {
        let total = inputs.len();
        let base = total / n_map_tasks;
        let extra = total % n_map_tasks;
        let mut it = inputs.into_iter();
        for t in 0..n_map_tasks {
            let take = base + usize::from(t < extra);
            chunks.push(it.by_ref().take(take).collect());
        }
    }
    let chunk_slots: Vec<Mutex<Option<Vec<I>>>> =
        chunks.into_iter().map(|c| Mutex::new(Some(c))).collect();

    let map_outputs: Vec<Vec<Vec<(K, V)>>> = run_indexed_tasks(workers, n_map_tasks, |t| {
        let chunk = chunk_slots[t].lock().take().expect("chunk taken once");
        let mut partitions: Vec<Vec<(K, V)>> = (0..n_reduce).map(|_| Vec::new()).collect();
        {
            let mut emit = |k: K, v: V| {
                let p = (hash_of(&k) % n_reduce as u64) as usize;
                partitions[p].push((k, v));
            };
            for input in chunk {
                map(input, &mut emit);
            }
        }
        if let Some(combine) = &combine {
            for part in &mut partitions {
                *part = combine_partition(std::mem::take(part), combine);
            }
        }
        partitions
    });
    metrics.map_secs = map_start.elapsed().as_secs_f64();

    // ---- Shuffle: gather each partition across map tasks, sort, group.
    let shuffle_start = Instant::now();
    let mut reduce_inputs: Vec<Vec<(K, V)>> = (0..n_reduce).map(|_| Vec::new()).collect();
    for task_out in map_outputs {
        for (p, pairs) in task_out.into_iter().enumerate() {
            reduce_inputs[p].extend(pairs);
        }
    }
    metrics.pairs_shuffled = reduce_inputs.iter().map(Vec::len).sum();
    let reduce_slots: Vec<ReduceSlot<K, V>> = reduce_inputs
        .into_iter()
        .map(|c| Mutex::new(Some(c)))
        .collect();
    metrics.shuffle_secs = shuffle_start.elapsed().as_secs_f64();

    // ---- Reduce phase.
    let reduce_start = Instant::now();
    let per_partition: Vec<Vec<(K, O)>> = run_indexed_tasks(workers, n_reduce, |p| {
        let mut pairs = reduce_slots[p].lock().take().expect("partition taken once");
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = Vec::new();
        let mut it = pairs.into_iter().peekable();
        while let Some((key, first)) = it.next() {
            let mut values = vec![first];
            while it.peek().is_some_and(|(k, _)| *k == key) {
                values.push(it.next().expect("peeked").1);
            }
            let o = reduce(&key, values);
            out.push((key, o));
        }
        out
    });
    let mut results: Vec<(K, O)> = per_partition.into_iter().flatten().collect();
    results.sort_by(|a, b| a.0.cmp(&b.0));
    metrics.keys_reduced = results.len();
    metrics.reduce_secs = reduce_start.elapsed().as_secs_f64();
    (results, metrics)
}

/// Parallel map with no shuffle — the shape of the feature-identification
/// job, where every scalar function is processed independently.
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

fn combine_partition<K, V, C>(mut pairs: Vec<(K, V)>, combine: &C) -> Vec<(K, V)>
where
    K: Ord + Clone,
    C: Fn(&K, Vec<V>) -> V,
{
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out: Vec<(K, V)> = Vec::with_capacity(pairs.len());
    let mut it = pairs.into_iter().peekable();
    while let Some((key, first)) = it.next() {
        let mut values = vec![first];
        while it.peek().is_some_and(|(k, _)| *k == key) {
            values.push(it.next().expect("peeked").1);
        }
        if values.len() == 1 {
            out.push((key, values.pop().expect("one value")));
        } else {
            let v = combine(&key, values);
            out.push((key, v));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run_job` with the default configuration and no combiner.
    fn run_plain<I, K, V, O>(
        cluster: Cluster,
        inputs: Vec<I>,
        map: impl Fn(I, &mut dyn FnMut(K, V)) + Sync,
        reduce: impl Fn(&K, Vec<V>) -> O + Sync,
    ) -> (Vec<(K, O)>, JobMetrics)
    where
        I: Send,
        K: Ord + Hash + Clone + Send,
        V: Send,
        O: Send,
    {
        let no_combiner = None::<fn(&K, Vec<V>) -> V>;
        run_job(
            cluster,
            JobConfig::default(),
            inputs,
            map,
            no_combiner,
            reduce,
        )
    }

    /// Canonical word count over synthetic text.
    fn word_count(cluster: Cluster) -> Vec<(String, usize)> {
        let docs: Vec<String> = (0..50)
            .map(|i| {
                let words = ["taxi", "rain", "wind", "bike", "snow"];
                (0..20)
                    .map(|j| words[(i + j * 3) % words.len()])
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        let (out, _) = run_plain(
            cluster,
            docs,
            |doc: String, emit| {
                for w in doc.split_whitespace() {
                    emit(w.to_string(), 1usize);
                }
            },
            |_k, vs| vs.into_iter().sum::<usize>(),
        );
        out
    }

    #[test]
    fn word_count_totals() {
        let out = word_count(Cluster::local(4));
        let total: usize = out.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 50 * 20);
        assert_eq!(out.len(), 5);
        // Sorted by key.
        let keys: Vec<&str> = out.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["bike", "rain", "snow", "taxi", "wind"]);
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let single = word_count(Cluster::local(1));
        for workers in [2, 3, 8] {
            assert_eq!(word_count(Cluster::local(workers)), single);
        }
    }

    #[test]
    fn combiner_matches_no_combiner() {
        let inputs: Vec<u64> = (0..10_000).collect();
        let map = |x: u64, emit: &mut dyn FnMut(u64, u64)| emit(x % 17, x);
        let reduce = |_k: &u64, vs: Vec<u64>| vs.into_iter().sum::<u64>();
        let (plain, m1) = run_plain(Cluster::local(4), inputs.clone(), map, reduce);
        let (combined, m2) = run_job(
            Cluster::local(4),
            JobConfig::default(),
            inputs,
            map,
            Some(|_k: &u64, vs: Vec<u64>| vs.into_iter().sum::<u64>()),
            reduce,
        );
        assert_eq!(plain, combined);
        // Combiner collapses each task's pairs to <= 17 per partition set.
        assert!(m2.pairs_shuffled < m1.pairs_shuffled);
    }

    #[test]
    fn metrics_populated() {
        let (out, m) = run_plain(
            Cluster::local(2),
            vec![1u32, 2, 3, 4],
            |x: u32, emit| emit(x % 2, x),
            |_k, vs: Vec<u32>| vs.len(),
        );
        assert_eq!(out.len(), 2);
        assert_eq!(m.records_mapped, 4);
        assert_eq!(m.pairs_shuffled, 4);
        assert_eq!(m.keys_reduced, 2);
        assert!(m.map_tasks >= 1);
    }

    #[test]
    fn empty_input() {
        let (out, m) = run_plain(
            Cluster::local(4),
            Vec::<u32>::new(),
            |x: u32, emit| emit(x, x),
            |_k, vs: Vec<u32>| vs.len(),
        );
        assert!(out.is_empty());
        assert_eq!(m.records_mapped, 0);
    }

    #[test]
    fn par_map_order() {
        let out = par_map(Cluster::local(8), (0..100).collect::<Vec<_>>(), |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn reduce_sees_sorted_keys_grouped() {
        // Keys must arrive grouped: reduce output equals input multiset.
        let inputs: Vec<u32> = (0..1000).rev().collect();
        let (out, _) = run_plain(
            Cluster::local(3),
            inputs,
            |x: u32, emit| emit(x / 10, x),
            |_k, vs: Vec<u32>| {
                let mut vs = vs;
                vs.sort_unstable();
                vs
            },
        );
        assert_eq!(out.len(), 100);
        for (k, vs) in out {
            assert_eq!(vs.len(), 10);
            assert!(vs.iter().all(|v| v / 10 == k));
        }
    }
}
