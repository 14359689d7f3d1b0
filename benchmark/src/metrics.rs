//! The metric catalogue and the result schema.
//!
//! `BENCHMARK.json` at the repository root is the contract a driver
//! reads; the tables here are the same catalogue as the harness sees it
//! (name and unit — direction and bound live only in `BENCHMARK.json`).
//! `tests/smoke.rs` fails when the two drift apart.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A metric the harness reports: name and unit.
pub type MetricSpec = (&'static str, &'static str);

/// End-to-end metrics, reported by every workload with tracing off.
///
/// The names are generic because the driver contract has every workload
/// report every end-to-end metric; what "the operation" is on each
/// workload is fixed in `benchmark/README.md`.
pub const END_TO_END: &[MetricSpec] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("second_op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("store_bytes_per_input_byte", "B/B"),
];

/// Per-layer metrics, reported by every workload with tracing on. A
/// layer a workload bypasses (or a probe it does not run) reads 0.
pub const PER_LAYER: &[MetricSpec] = &[
    ("datagen.generate_s", "s"),
    ("pipeline.scalar_s", "s"),
    ("pipeline.scalar_fields", "count"),
    ("pipeline.identify_features_s", "s"),
    ("pipeline.index_dataset_max_s", "s"),
    ("topology.graph_s", "s"),
    ("topology.join_tree_s", "s"),
    ("topology.split_tree_s", "s"),
    ("topology.thresholds_s", "s"),
    ("topology.level_sets_s", "s"),
    ("topology.vertices", "count"),
    ("topology.tree_nodes", "count"),
    ("topology.vertices_per_s", "1/s"),
    ("store.save_s", "s"),
    ("store.save_bytes", "B"),
    ("store.save_mb_per_s", "MB/s"),
    ("store.upsert_copy_s", "s"),
    ("store.shard_s", "s"),
    ("store.open_lazy_ms", "ms"),
    ("store.pin_ms", "ms"),
    ("store.fault_mb_per_s", "MB/s"),
    ("store.bytes_per_cold_query", "B"),
    ("store.verify_all_ms", "ms"),
    ("store.sharded_over_monolith", "ratio"),
    ("store.bytes_fetched", "B"),
    ("store.segment_faults", "count"),
    ("store.segment_cache_hits", "count"),
    ("store.segment_evictions", "count"),
    ("store.checksum_verifications", "count"),
    ("store.checksum_failures", "count"),
    ("executor.plan_ms", "ms"),
    ("executor.expand_ms", "ms"),
    ("executor.evaluate_ms", "ms"),
    ("executor.assemble_ms", "ms"),
    ("executor.tasks", "count"),
    ("executor.tasks_per_query", "count"),
    ("executor.relationships", "count"),
    ("executor.evaluate_share", "ratio"),
    ("executor.speedup_2_over_1", "ratio"),
    ("executor.batch_over_single", "ratio"),
    ("significance.perm_ns_spatial", "ns"),
    ("significance.perm_ns_temporal", "ns"),
    ("significance.permutations", "count"),
    ("relationship.intersect_ns_spatial", "ns"),
    ("relationship.intersect_ns_temporal", "ns"),
    ("mapreduce.dispatch_us", "us"),
    ("cache.query_hits", "count"),
    ("cache.query_misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hit_query_us", "us"),
    ("pql.parse_us", "us"),
    ("pql_exec.render_us", "us"),
    ("pql_exec.response_bytes", "B"),
    ("serve.hot_roundtrip_us", "us"),
    ("serve.requests", "count"),
    ("serve.batches", "count"),
    ("serve.mean_batch", "count"),
    ("serve.errors", "count"),
    ("serve.drain_ms", "ms"),
    ("serve.coalesced_over_serial_qps", "ratio"),
    ("serve.two_connections_over_one_qps", "ratio"),
    ("obs.trace_record_ratio", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.calibration_ms", "ms"),
    ("trace.share_pipeline", "ratio"),
    ("trace.share_store", "ratio"),
    ("trace.share_executor", "ratio"),
    ("trace.share_pql", "ratio"),
    ("trace.share_other", "ratio"),
];

/// The four workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &[
    "build_urban",
    "coldstart_urban",
    "explore_urban",
    "serve_open",
];

/// One reported value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    /// The number as measured, with all its digits.
    pub value: f64,
    /// Its unit, as in the catalogue.
    pub unit: String,
}

/// The per-layer metric values of one traced run, keyed by catalogue
/// name; names never set read 0.
#[derive(Debug, Default)]
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    /// Records `value` under `name`, which must be in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "`{name}` is not in the per-layer catalogue"
        );
        // `+ 0.0` turns the `-0.0` an empty float sum yields into `0.0`.
        self.0.insert(name, value + 0.0);
    }

    /// The recorded value (0 when never set).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every catalogue metric with its value and unit.
    pub fn to_metrics(&self) -> BTreeMap<String, MetricValue> {
        with_units(PER_LAYER, |name| self.get(name))
    }
}

/// Builds the reported map for a catalogue from a value lookup.
pub fn with_units(
    catalogue: &[MetricSpec],
    value_of: impl Fn(&str) -> f64,
) -> BTreeMap<String, MetricValue> {
    catalogue
        .iter()
        .map(|(name, unit)| {
            (
                name.to_string(),
                MetricValue {
                    value: value_of(name),
                    unit: unit.to_string(),
                },
            )
        })
        .collect()
}

/// The last line of a run's standard output — exactly the four keys the
/// driver contract names.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// True when every checked output was right (`failed == 0`).
    pub correct: bool,
    /// Operations attempted (timed operations, each checked).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong result.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: BTreeMap<String, MetricValue>,
}

/// One run's full record, written to `<out-dir>/result-*.json` and read
/// back by `compare`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `full` or `smoke`.
    pub scale: String,
    /// Whether this was the traced (per-layer) run.
    pub trace: bool,
    /// `--seconds`.
    pub seconds: f64,
    /// `std::thread::available_parallelism` on the measuring machine.
    pub nproc: u64,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse --short HEAD`, or `unknown` outside a repository.
    pub commit: String,
    /// Wall seconds of the whole run, set-up and checks included.
    pub wall_s: f64,
    /// Sample counts behind the medians and percentiles.
    pub samples: BTreeMap<String, u64>,
    /// Reference-kernel samples (ms) of every untraced pass.
    pub calibration_ms: Vec<Vec<f64>>,
    /// Busy seconds of every untraced pass, in order.
    pub pass_busy_s: Vec<f64>,
    /// Raw latencies (ms) of the untraced window: `primary_ms[k][p]` is
    /// primary operation `k` on pass `p`. Kept so that run-to-run noise
    /// can be told apart from pass-to-pass noise, and so a different
    /// estimator can be tried on old runs.
    pub primary_ms: Vec<Vec<f64>>,
    /// The same for the secondary operations.
    pub secondary_ms: Vec<Vec<f64>>,
    /// The contract summary (also printed as the last stdout line).
    pub summary: Summary,
    /// End-to-end metrics of this run. On a traced run they come from
    /// the untraced half of the window and are informational only.
    pub end_to_end: BTreeMap<String, MetricValue>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric `{name}`");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|(n, u)| *n == "setup_s" && *u == "s"));
    }

    #[test]
    fn summary_round_trips_through_json() {
        let mut layer = LayerMetrics::default();
        layer.set("store.segment_faults", 62.0);
        let summary = Summary {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: layer.to_metrics(),
        };
        let text = serde_json::to_string(&summary).unwrap();
        let back: Summary = serde_json::from_str(&text).unwrap();
        assert_eq!(back, summary);
        assert_eq!(back.metrics.len(), PER_LAYER.len());
        assert_eq!(back.metrics["store.segment_faults"].value, 62.0);
        assert_eq!(back.metrics["serve.requests"].value, 0.0);
    }
}
