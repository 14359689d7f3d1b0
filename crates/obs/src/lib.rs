//! # polygamy-obs — the observability substrate
//!
//! A metrics-and-tracing core shared by every layer of
//! the Data Polygamy reproduction: the flat executor, the demand-paged
//! store, the network daemon and the load generator all report through
//! the types in this crate, so one `MetricsSnapshot` explains a whole
//! process. The prose catalogue (metric names, span names, trace JSON
//! shape, overhead statement) lives in `docs/observability.md`.
//!
//! Three pieces:
//!
//! * **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) — lock-free
//!   atomics; histograms use *pinned* bucket boundaries (constants in
//!   this crate, covered by regression tests) so snapshots are
//!   comparable across PRs and across the client/server divide.
//! * **The registry** ([`Registry`], [`global`]) — a process-wide,
//!   lazily-populated name → instrument map. [`Registry::snapshot`]
//!   captures everything as a [`MetricsSnapshot`] with a deterministic
//!   JSON rendering ([`MetricsSnapshot::to_json`]) and a matching parser
//!   ([`MetricsSnapshot::parse_json`]) so clients can validate server
//!   snapshots with this crate and its one dependency, the workspace's
//!   JSON codec (`polygamy_json`).
//! * **Tracing** ([`trace`]) — a thread-local collector that, inside
//!   [`trace::record`], receives the same events under the same names.
//!
//! Instrumented code observes an event with one call naming a
//! [`names`] constant: [`count`] adds to a registry counter, and [`stage`]
//! times a region into a `*_ns` counter. Inside a [`trace::record`] scope
//! the event also lands in the calling thread's trace, so the registry and
//! a trace can never spell one event two ways.
//!
//! ```
//! use polygamy_obs::{count, global, names, stage, trace};
//!
//! let (sum, t) = trace::record(|| {
//!     let _plan = stage(names::CORE_STAGE_PLAN_NS);
//!     count(names::CORE_QUERIES, 2);
//!     40 + 2
//! });
//! assert_eq!(sum, 42);
//! assert_eq!(t.counter(names::CORE_QUERIES), 2);
//! assert_eq!(t.spans[0].name, names::CORE_STAGE_PLAN_NS);
//! assert!(global().snapshot().counter(names::CORE_QUERIES) >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod registry;
pub mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, BATCH_SIZE_BUCKETS, LATENCY_BUCKETS_US,
};
pub use registry::{global, MetricsSnapshot, Registry};

use std::time::Instant;

/// Adds `n` to the [`global`] counter `name` — and, inside a
/// [`trace::record`] scope, to the calling thread's trace counter of the
/// same name. `name` is a [`names`] constant.
pub fn count(name: &'static str, n: u64) {
    global().add(name, n);
    trace::add(name, n);
}

/// Starts timing a stage: when the returned guard drops, its wall time in
/// nanoseconds is added to the [`global`] counter `name` (a `*_ns`
/// [`names`] constant) and, inside a [`trace::record`] scope, pushed as a
/// span named `name`.
#[must_use = "a stage measures until the guard drops; binding it to `_` ends it immediately"]
pub fn stage(name: &'static str) -> Stage {
    Stage {
        name,
        start: Instant::now(),
    }
}

/// A running [`stage`]; records on drop.
#[derive(Debug)]
pub struct Stage {
    name: &'static str,
    start: Instant,
}

impl Drop for Stage {
    fn drop(&mut self) {
        let nanos = nanos_since(self.start);
        global().add(self.name, nanos);
        trace::push_span(self.name, nanos);
    }
}

/// Nanoseconds since `t0`, saturating into `u64`.
fn nanos_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The canonical metric names every layer registers under — one place,
/// so producers (instrumented crates) and consumers (snapshots, tests,
/// the `M` protocol frame) can never drift. The full catalogue with
/// semantics is `docs/observability.md`.
pub mod names {
    /// Queries planned by the flat executor (counter).
    pub const CORE_QUERIES: &str = "core.queries";
    /// Unit tasks expanded across all queries (counter).
    pub const CORE_TASKS_EXPANDED: &str = "core.tasks_expanded";
    /// Query-cache hits resolved while planning (counter).
    pub const CORE_QUERY_CACHE_HITS: &str = "core.query_cache.hits";
    /// Query-cache misses scheduled for evaluation (counter).
    pub const CORE_QUERY_CACHE_MISSES: &str = "core.query_cache.misses";
    /// Query-cache insertions that evicted an older entry (counter).
    pub const CORE_QUERY_CACHE_EVICTIONS: &str = "core.query_cache.evictions";
    /// Cumulative wall time of the plan/cache-resolve stage (counter, ns).
    pub const CORE_STAGE_PLAN_NS: &str = "core.stage.plan_ns";
    /// Cumulative wall time of the task-expansion stage (counter, ns).
    pub const CORE_STAGE_EXPAND_NS: &str = "core.stage.expand_ns";
    /// Cumulative wall time of the evaluate stage (counter, ns).
    pub const CORE_STAGE_EVALUATE_NS: &str = "core.stage.evaluate_ns";
    /// Cumulative wall time of the assemble stage (counter, ns).
    pub const CORE_STAGE_ASSEMBLE_NS: &str = "core.stage.assemble_ns";

    /// Monte Carlo permutations drawn by unit tasks that reached the
    /// significance test (counter).
    pub const CORE_PERMUTATIONS_RUN: &str = "core.permutations_run";
    /// Significance tests a `significant_only` clause stopped before
    /// their last draw, once no remaining draw could make the pair
    /// significant (counter).
    pub const CORE_PERMUTATION_TESTS_STOPPED: &str = "core.permutation_tests_stopped";
    /// Distinct (function, class, window, thresholds) operands prepared —
    /// the window's features counted, custom features rebuilt — by
    /// evaluate dispatches (counter).
    pub const CORE_OPERANDS_PREPARED: &str = "core.operands_prepared";
    /// Unit-task operand reads served by an already prepared operand
    /// (counter): `2 · tasks − operands_prepared` per dispatch.
    pub const CORE_OPERAND_REUSES: &str = "core.operand_reuses";
    /// Second passes of the sign-count kernel, run where a point is a
    /// positive and a negative feature of both functions — degenerate
    /// thresholds on both sides (counter).
    pub const CORE_SIGN_OVERLAP_PASSES: &str = "core.sign_overlap_passes";
    /// Evaluate dispatches that stayed on the calling thread: one worker,
    /// or an estimated cost under the pool's inline floor (counter).
    pub const CORE_DISPATCHES_INLINE: &str = "core.dispatches_inline";
    /// Evaluate dispatches that spawned helper threads (counter).
    pub const CORE_DISPATCHES_PARALLEL: &str = "core.dispatches_parallel";
    /// Unit tasks of evaluate dispatches that a helper thread ran, not the
    /// calling thread (counter): did a second worker help?
    pub const CORE_TASKS_ON_HELPERS: &str = "core.tasks_on_helpers";
    /// Relationships the assemble stage named, sorted and cached — what
    /// evaluate dispatches found and the clause kept (counter).
    pub const CORE_RELATIONSHIPS_FOUND: &str = "core.relationships_found";

    /// Wall time of the scalar-function job, summed over indexed data sets
    /// (counter, ns).
    pub const INDEX_STAGE_SCALAR_NS: &str = "index.stage.scalar_ns";
    /// Time sorting and sweeping for the join + split persistence pairs,
    /// summed over fields — thread time: workers add up (counter, ns).
    pub const INDEX_STAGE_TREES_NS: &str = "index.stage.trees_ns";
    /// Time deriving seasonal thresholds from the persistence pairs,
    /// summed over fields (counter, ns).
    pub const INDEX_STAGE_THRESHOLDS_NS: &str = "index.stage.thresholds_ns";
    /// Time in the pointwise feature scan, summed over fields (counter, ns).
    pub const INDEX_STAGE_FEATURES_NS: &str = "index.stage.features_ns";
    /// Point-in-polygon lookups the scalar-function job made: one per
    /// record per multi-region partition, none at city scale (counter).
    pub const INDEX_RECORDS_LOCATED: &str = "index.records_located";
    /// Scalar fields run through feature identification (counter).
    pub const INDEX_FIELDS: &str = "index.fields";
    /// The fields among them with no value below `+0.0`, whose `+0.0`
    /// plateau the sweeps took without sorting or a join sweep (counter).
    pub const INDEX_FIELDS_PLATEAU_SWEPT: &str = "index.fields_plateau_swept";
    /// Domain vertices (`regions × steps`) of those fields (counter).
    pub const INDEX_VERTICES: &str = "index.vertices";
    /// The vertices among them that carry a value — what the sort and the
    /// sweeps actually visit (counter).
    pub const INDEX_VERTICES_DEFINED: &str = "index.vertices_defined";
    /// The defined vertices whose value is exactly `+0.0` — the run the
    /// sweeps take in index order instead of sorting (counter).
    pub const INDEX_VERTICES_ZERO_RUN: &str = "index.vertices_zero_run";

    /// Bytes read from `.plst` stores through `SegmentSource` (counter).
    pub const STORE_BYTES_FETCHED: &str = "store.bytes_fetched";
    /// Lazy segment faults: segments decoded on demand (counter).
    pub const STORE_SEGMENT_FAULTS: &str = "store.segment.faults";
    /// Lazy segment-cache hits (counter).
    pub const STORE_SEGMENT_CACHE_HITS: &str = "store.segment.cache_hits";
    /// Lazy segment-cache insertions that evicted an entry (counter).
    pub const STORE_SEGMENT_EVICTIONS: &str = "store.segment.evictions";
    /// Segment checksum verifications performed (counter).
    pub const STORE_CHECKSUM_VERIFICATIONS: &str = "store.checksum.verifications";
    /// Segment checksum verifications that failed (counter).
    pub const STORE_CHECKSUM_FAILURES: &str = "store.checksum.failures";
    /// Field-blob faults: scalar fields read and decoded on demand, for
    /// the data sets a query's `thresholds` clause names — on a lazy
    /// session and, since an eager open leaves fields encoded, on an eager
    /// one alike (counter).
    pub const STORE_FIELD_FAULTS: &str = "store.field.faults";
    /// Field-blob bytes read — by those faults and by an eager open's
    /// verify-and-validate pass — the share of `store.bytes_fetched` that
    /// is scalar field values (counter).
    pub const STORE_FIELD_BYTES_FETCHED: &str = "store.field.bytes_fetched";
    /// Segments a session pinned for query batches: per pair, those of
    /// either side at a resolution the other side shares (counter).
    pub const STORE_PIN_SEGMENTS: &str = "store.pin.segments";
    /// Segments of the data sets those batches named, at resolutions their
    /// clauses admit, that no pair shares and no pin therefore read
    /// (counter).
    pub const STORE_PIN_SKIPPED: &str = "store.pin.skipped";
    /// Wall time of an eager open's pass over the whole segment directory
    /// — read, verify, decode the hot blob, validate the field blob — run
    /// per segment on the session's worker pool (counter, ns).
    pub const STORE_OPEN_LOAD_NS: &str = "store.open.load_ns";
    /// Wall time of the pass encoding and checksumming blobs for store
    /// writes, run per segment on the worker pool: every segment on a
    /// save, the replaced data set's on an upsert (counter, ns).
    pub const STORE_SAVE_ENCODE_NS: &str = "store.save.encode_ns";
    /// Time laying out, writing, syncing and renaming store files, the
    /// verified copy of retained blobs on a rewrite included (counter, ns).
    pub const STORE_SAVE_WRITE_NS: &str = "store.save.write_ns";
    /// Raw size of the scalar fields encoded for store writes: 8 bytes per
    /// value (counter).
    pub const STORE_SAVE_FIELD_RAW_BYTES: &str = "store.save.field_raw_bytes";
    /// Size of the field blobs those fields were encoded to — what the
    /// field codec left of `store.save.field_raw_bytes` (counter).
    pub const STORE_SAVE_FIELD_STORED_BYTES: &str = "store.save.field_stored_bytes";
    /// Size the hot blobs encoded for store writes would have with their
    /// four feature vectors as raw words: 8 bytes per word and 8 for the
    /// bit count (counter).
    pub const STORE_SAVE_HOT_RAW_BYTES: &str = "store.save.hot_raw_bytes";
    /// Size of those hot blobs as written — what the bit-vector codec left
    /// of `store.save.hot_raw_bytes` (counter).
    pub const STORE_SAVE_HOT_STORED_BYTES: &str = "store.save.hot_stored_bytes";
    /// Prefix for per-shard fault counters in a sharded store:
    /// `store.shard.faults.<shard>` counts segment faults served by that
    /// shard file.
    pub const STORE_SHARD_FAULTS_PREFIX: &str = "store.shard.faults.";
    /// Prefix for per-shard byte counters in a sharded store:
    /// `store.shard.bytes_fetched.<shard>` counts bytes read from that
    /// shard file (demand-paged segment reads and eager loads alike).
    pub const STORE_SHARD_BYTES_FETCHED_PREFIX: &str = "store.shard.bytes_fetched.";

    /// Connections the daemon accepted (counter).
    pub const SERVE_CONNECTIONS_OPENED: &str = "serve.connections.opened";
    /// Connections that finished (any reason) (counter).
    pub const SERVE_CONNECTIONS_CLOSED: &str = "serve.connections.closed";
    /// Currently live connections (gauge).
    pub const SERVE_CONNECTIONS_ACTIVE: &str = "serve.connections.active";
    /// Requests admitted by the coalescer (counter).
    pub const SERVE_REQUESTS: &str = "serve.requests";
    /// Individual queries admitted (counter).
    pub const SERVE_QUERIES: &str = "serve.queries";
    /// `query_many` dispatches issued (counter).
    pub const SERVE_BATCHES: &str = "serve.batches";
    /// Requests queued, waiting for a leader to take them (gauge).
    pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
    /// Queries admitted but not yet answered (gauge).
    pub const SERVE_INFLIGHT: &str = "serve.inflight";
    /// Queries per dispatch (histogram over [`super::BATCH_SIZE_BUCKETS`]).
    pub const SERVE_BATCH_SIZE: &str = "serve.batch_size";
    /// `M` metrics frames answered (counter).
    pub const SERVE_METRICS_FRAMES: &str = "serve.metrics_frames";
    /// Wall time of the graceful drain, begin-to-exit (counter, ns).
    pub const SERVE_DRAIN_NS: &str = "serve.drain_ns";
    /// Prefix for per-kind error counters: `serve.errors.<kind>` with the
    /// wire kinds of `docs/serving.md` §6 (`parse`, `query`, `bad-frame`,
    /// `overloaded`, `shutting-down`, `internal`).
    pub const SERVE_ERRORS_PREFIX: &str = "serve.errors.";

    /// Client-observed per-request latency in µs (histogram over
    /// [`super::LATENCY_BUCKETS_US`]) — recorded by `loadgen`.
    pub const LOADGEN_LATENCY_US: &str = "loadgen.latency_us";

    /// Every canonical name above, in catalogue order — the machine-
    /// checkable form of the `docs/observability.md` catalogue. The
    /// entries ending in `.` are family *prefixes*: concrete instruments
    /// append a suffix (a §6 error kind, a shard number) to them.
    pub const ALL: &[&str] = &[
        CORE_QUERIES,
        CORE_TASKS_EXPANDED,
        CORE_QUERY_CACHE_HITS,
        CORE_QUERY_CACHE_MISSES,
        CORE_QUERY_CACHE_EVICTIONS,
        CORE_STAGE_PLAN_NS,
        CORE_STAGE_EXPAND_NS,
        CORE_STAGE_EVALUATE_NS,
        CORE_STAGE_ASSEMBLE_NS,
        CORE_PERMUTATIONS_RUN,
        CORE_PERMUTATION_TESTS_STOPPED,
        CORE_OPERANDS_PREPARED,
        CORE_OPERAND_REUSES,
        CORE_SIGN_OVERLAP_PASSES,
        CORE_DISPATCHES_INLINE,
        CORE_DISPATCHES_PARALLEL,
        CORE_TASKS_ON_HELPERS,
        CORE_RELATIONSHIPS_FOUND,
        INDEX_STAGE_SCALAR_NS,
        INDEX_STAGE_TREES_NS,
        INDEX_STAGE_THRESHOLDS_NS,
        INDEX_STAGE_FEATURES_NS,
        INDEX_RECORDS_LOCATED,
        INDEX_FIELDS,
        INDEX_FIELDS_PLATEAU_SWEPT,
        INDEX_VERTICES,
        INDEX_VERTICES_DEFINED,
        INDEX_VERTICES_ZERO_RUN,
        STORE_BYTES_FETCHED,
        STORE_SEGMENT_FAULTS,
        STORE_SEGMENT_CACHE_HITS,
        STORE_SEGMENT_EVICTIONS,
        STORE_CHECKSUM_VERIFICATIONS,
        STORE_CHECKSUM_FAILURES,
        STORE_FIELD_FAULTS,
        STORE_FIELD_BYTES_FETCHED,
        STORE_PIN_SEGMENTS,
        STORE_PIN_SKIPPED,
        STORE_OPEN_LOAD_NS,
        STORE_SAVE_ENCODE_NS,
        STORE_SAVE_WRITE_NS,
        STORE_SAVE_FIELD_RAW_BYTES,
        STORE_SAVE_FIELD_STORED_BYTES,
        STORE_SAVE_HOT_RAW_BYTES,
        STORE_SAVE_HOT_STORED_BYTES,
        STORE_SHARD_FAULTS_PREFIX,
        STORE_SHARD_BYTES_FETCHED_PREFIX,
        SERVE_CONNECTIONS_OPENED,
        SERVE_CONNECTIONS_CLOSED,
        SERVE_CONNECTIONS_ACTIVE,
        SERVE_REQUESTS,
        SERVE_QUERIES,
        SERVE_BATCHES,
        SERVE_QUEUE_DEPTH,
        SERVE_INFLIGHT,
        SERVE_BATCH_SIZE,
        SERVE_METRICS_FRAMES,
        SERVE_DRAIN_NS,
        SERVE_ERRORS_PREFIX,
        LOADGEN_LATENCY_US,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_reaches_the_registry_always_and_a_trace_when_recording() {
        let total = || global().snapshot().counter("test.count_probe");
        count("test.count_probe", 2);
        let before = total();
        assert!(before >= 2);
        let ((), t) = trace::record(|| count("test.count_probe", 3));
        assert_eq!(t.counter("test.count_probe"), 3);
        assert!(total() >= before + 3);
    }

    #[test]
    fn stage_times_into_its_counter_and_a_span_of_the_same_name() {
        let ((), t) = trace::record(|| {
            let _stage = stage("test.stage_probe_ns");
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].name, "test.stage_probe_ns");
        assert!(t.spans[0].nanos >= 1_000_000);
        let timed = global().snapshot().counter("test.stage_probe_ns");
        assert!(timed >= t.spans[0].nanos);
        assert!(
            t.counters.is_empty(),
            "a stage is a span, not a trace counter"
        );
    }
}
