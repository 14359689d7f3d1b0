//! The instruments: lock-free counters, gauges and fixed-bucket
//! histograms.
//!
//! # Memory-ordering contract
//!
//! Every atomic access in this module is `Ordering::Relaxed`, on
//! purpose. The instruments are *statistical*: they promise that each
//! individual increment is atomic (no lost updates, no torn reads) and
//! that a snapshot taken after the process quiesces is exact — but a
//! snapshot taken mid-flight is only approximately simultaneous across
//! instruments, and an observer may see `serve.requests` advance before
//! the `serve.queries` increment from the same request. Nothing may use
//! a metric to *synchronise*: no happens-before edge is published by an
//! update or consumed by a read, so control flow must never branch on a
//! counter to decide whether some other write is visible. Cross-thread
//! publication belongs to the channels and mutexes that move the data
//! itself; keeping the instruments Relaxed keeps them free (one
//! uncontended atomic add) on the hot path. The project linter
//! (`polygamy-lint`, rule `atomic-ordering`) enforces the complement:
//! any non-Relaxed ordering *outside* this crate must justify itself
//! with an `// ordering:` contract comment.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Microsecond latency buckets (inclusive upper bounds), 50 µs – 5 s.
///
/// **Pinned**: client-side (`loadgen`) and server-side latency
/// distributions are only comparable because both record into these
/// exact boundaries, and committed benchmark snapshots are only
/// comparable across PRs for the same reason. Changing them is a
/// snapshot-schema event, not a tweak — the regression test
/// `bucket_boundaries_are_pinned` fails on any edit.
pub const LATENCY_BUCKETS_US: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000,
];

/// Batch-size buckets (inclusive upper bounds) for the coalescer's
/// queries-per-dispatch histogram. Power-of-two spaced; the default
/// admission cap (256 queries) is the last bound, so only a raised cap
/// can ever land in the overflow bucket. Pinned like
/// [`LATENCY_BUCKETS_US`].
pub const BATCH_SIZE_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256];

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed level (queue depths, live connections).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Moves the level by `delta` (negative to decrease).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram: `bounds.len() + 1` atomic bins (the last is
/// the overflow bin for values above every bound), plus the sum of all
/// recorded values. Bounds are inclusive upper bounds and must be
/// strictly increasing.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl Histogram {
    /// A histogram over the given pinned bounds.
    ///
    /// # Panics
    /// If `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &'static [u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds,
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// The pinned bucket bounds this histogram records into.
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Records one value into its bucket (linear scan — the pinned bound
    /// lists are short) and into the running sum.
    pub fn record(&self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bins.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]: `counts.len() ==
/// bounds.len() + 1` (the final bin counts values above every bound).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bucket bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; the extra last element is the overflow bin.
    pub counts: Vec<u64>,
    /// Sum of every recorded value.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// An upper bound on the `q`-quantile (0 < q ≤ 1): the bound of the
    /// bucket the quantile rank lands in. `None` when the histogram is
    /// empty or the rank lands in the overflow bin (the value exceeds
    /// every pinned bound).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return self.bounds.get(i).copied();
            }
        }
        None
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        let total = self.count();
        if total == 0 {
            0.0
        } else {
            self.sum as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.add(3);
        g.add(-5);
        assert_eq!(g.get(), -2);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_boundaries_are_pinned() {
        // These exact boundaries are part of the cross-PR snapshot
        // contract (docs/observability.md); editing them must be a
        // deliberate, reviewed act that updates this test too.
        assert_eq!(
            LATENCY_BUCKETS_US,
            &[
                50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
                500_000, 1_000_000, 2_500_000, 5_000_000
            ]
        );
        assert_eq!(BATCH_SIZE_BUCKETS, &[1, 2, 4, 8, 16, 32, 64, 128, 256]);
    }

    #[test]
    fn histogram_buckets_values_inclusively() {
        let h = Histogram::new(&[10, 20, 30]);
        for v in [0, 10, 11, 20, 29, 30, 31, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        // ≤10: {0, 10}; ≤20: {11, 20}; ≤30: {29, 30}; overflow: {31, 1000}.
        assert_eq!(s.counts, vec![2, 2, 2, 2]);
        assert_eq!(s.sum, 1131);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let h = Histogram::new(&[1, 2, 4, 8]);
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..9 {
            h.record(3);
        }
        h.record(100); // overflow
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), Some(1));
        assert_eq!(s.quantile(0.95), Some(4));
        assert_eq!(s.quantile(1.0), None); // lands in the overflow bin
        assert_eq!(
            HistogramSnapshot {
                bounds: vec![1],
                counts: vec![0, 0],
                sum: 0
            }
            .quantile(0.5),
            None
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_are_rejected() {
        let _ = Histogram::new(&[10, 10]);
    }
}
