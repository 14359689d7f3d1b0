//! Committed benchmark snapshots: one JSON file per measurement run.
//!
//! The `bench_snapshot` binary measures the performance axes this
//! repository optimises — index build, store open (eager vs lazy, cold vs
//! warm), first-query fault-in cost in seconds *and bytes*, sustained
//! query rate (serial vs flat-parallel) and PQL parse latency — and emits
//! them as a `BENCH_<date>.json` at the repository root. Snapshots are
//! committed, so `git log -- 'BENCH_*.json'` is the project's performance
//! trajectory: a regression shows up as a diff, not as a memory.
//!
//! The schema is the [`BenchSnapshot`] struct below. Validation
//! (`bench_snapshot --validate <path>`) deserializes the file back into
//! the struct — a missing or mistyped key is a parse error — and then
//! sanity-checks the invariants that make a snapshot meaningful (positive
//! timings, lazy reading strictly fewer bytes than eager).

use serde::{Deserialize, Serialize};

/// Current snapshot schema version. Bump when fields change meaning;
/// additions that keep old fields valid may keep the version. (The serde
/// shim treats *missing* keys as hard errors, so adding a required
/// section — like v2's `serving` — is itself a version bump, and every
/// committed snapshot must be regenerated with it.)
///
/// * v1 — index build, store open, lazy fault-in, query rate, PQL parse.
/// * v2 — adds the `serving` section: network daemon throughput,
///   coalesced vs serial dispatch (see `docs/serving.md` §8).
/// * v3 — adds the `obs` section: metrics-registry deltas captured around
///   the measurement phases (cache hit/miss, segment faults, checksum
///   verifications, coalesced batch sizes — see `docs/observability.md`).
/// * v4 — adds the `sharding` section: the same store served monolithic
///   vs sharded (query rate side by side) with per-shard fault and
///   byte-fetched deltas from the `store.shard.*.<shard>` counter
///   families (see `docs/store-format.md` § sharded stores).
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 4;

/// Corpus and store shape the metrics were measured against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusInfo {
    /// Data sets in the indexed corpus.
    pub n_datasets: usize,
    /// Function segments in the store directory.
    pub n_segments: usize,
    /// Store file size in bytes.
    pub store_bytes: u64,
    /// Indexed function entries.
    pub n_functions: usize,
}

/// The measured values. Timings are seconds unless the name says
/// otherwise; byte counts come from the store's `SegmentSource` counter,
/// so they are payload bytes actually read, not file sizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Building the full index from raw data.
    pub index_build_secs: f64,
    /// Writing the index as a store file (encode + fsync + rename).
    pub store_write_secs: f64,
    /// Eager session open, first time in this process (decodes every
    /// segment).
    pub open_eager_cold_secs: f64,
    /// Eager session open, repeated (OS page cache warm).
    pub open_eager_warm_secs: f64,
    /// Bytes one eager open reads (header + manifest + geometry + every
    /// segment).
    pub open_eager_bytes: u64,
    /// Lazy session open, first time (header + manifest + geometry only).
    pub open_lazy_cold_secs: f64,
    /// Lazy session open, repeated.
    pub open_lazy_warm_secs: f64,
    /// Bytes a lazy open reads before any query.
    pub open_lazy_bytes: u64,
    /// First single-pair query on a fresh lazy session (faults in that
    /// pair's segments).
    pub first_query_lazy_secs: f64,
    /// Total bytes the lazy session has read after that first query —
    /// open + faulted segments. Strictly less than `open_eager_bytes`.
    pub lazy_bytes_after_first_query: u64,
    /// The same single-pair query on the eager session (no disk I/O).
    pub first_query_eager_secs: f64,
    /// Repeating the query on the lazy session (segment + result caches
    /// warm).
    pub warm_query_secs: f64,
    /// Relationships evaluated in the rate query.
    pub rate_query_relationships: usize,
    /// All-pairs query throughput, one worker, relationships per minute.
    pub query_rate_serial_per_min: f64,
    /// All-pairs query throughput on the flat executor, all host cores.
    pub query_rate_flat_per_min: f64,
    /// Compiling the canonical PQL text of the rate query, microseconds.
    pub pql_parse_us: f64,
}

/// Network-daemon throughput, measured by `polygamy_bench::serving`:
/// the same store served twice — batch coalescing on, then off — by N
/// concurrent clients over localhost, each mode on a fresh cold-cache
/// session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingMetrics {
    /// Concurrent client connections per mode.
    pub clients: usize,
    /// Queries served per mode.
    pub queries_total: u64,
    /// Served queries per second with cross-connection coalescing (the
    /// daemon's default dispatch).
    pub served_qps_coalesced: f64,
    /// Served queries per second with serial per-request dispatch
    /// (`--no-coalesce`).
    pub served_qps_serial: f64,
    /// `query_many` dispatches the coalesced run issued.
    pub coalesced_batches: u64,
    /// Mean queries per coalesced dispatch (> 1 means merging happened).
    pub mean_coalesced_batch: f64,
}

/// Metrics-registry deltas captured around the measurement phases
/// (schema v3). Unlike the wall-clock numbers these are exact event
/// counts from `polygamy_obs`, so validation can check structural
/// invariants (a lazy session cannot fault more segments than the store
/// holds; a dispatch carries at least one query) instead of tolerances.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsMetrics {
    /// `core.query_cache.hits` delta across the single-pair query phase —
    /// the warm repeat must land here, so ≥ 1.
    pub query_cache_hits: u64,
    /// `core.query_cache.misses` delta across the same phase (the cold
    /// lazy and eager first runs).
    pub query_cache_misses: u64,
    /// `store.segment_faults` delta: segments the lazy session demand-
    /// paged for its queries. ≥ 1 and ≤ the corpus segment count.
    pub segment_faults: u64,
    /// `store.segment_cache_hits` delta: segment lookups the lazy cache
    /// answered without touching the source.
    pub segment_cache_hits: u64,
    /// `store.checksum_verifications` delta: first-decode integrity
    /// checks on faulted segments.
    pub checksum_verifications: u64,
    /// `store.checksum_failures` delta — anything but 0 is corruption.
    pub checksum_failures: u64,
    /// `serve.batch_size` histogram observation-count delta across the
    /// serving phase: `query_many` dispatches both modes issued.
    pub batch_dispatches: u64,
    /// `serve.batch_size` histogram sum delta: queries those dispatches
    /// carried. ≥ `batch_dispatches` and ≥ the per-mode query total.
    pub batch_queries: u64,
}

/// Sharded-vs-monolith serving (schema v4): the monolithic store is
/// migrated to an N-shard layout (`shard_store`, byte-exact) and the
/// same all-pairs workload runs on a lazy session over each, so the two
/// rates differ only by the per-shard segment I/O.
/// The per-shard vectors are deltas of the `store.shard.faults.<shard>`
/// and `store.shard.bytes_fetched.<shard>` counter families across the
/// sharded run — exact event counts, one slot per shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardingMetrics {
    /// Shards in the measured layout (≥ 2; 1 would just be the monolith).
    pub n_shards: usize,
    /// All-pairs lazy query throughput on the monolithic store,
    /// relationships per minute.
    pub query_rate_monolith_per_min: f64,
    /// The same workload on the sharded store, relationships per minute.
    pub query_rate_sharded_per_min: f64,
    /// Per-shard segment-fault deltas (`store.shard.faults.<shard>`),
    /// indexed by shard.
    pub shard_faults: Vec<u64>,
    /// Per-shard payload-byte deltas
    /// (`store.shard.bytes_fetched.<shard>`), indexed by shard.
    pub shard_bytes_fetched: Vec<u64>,
}

/// One committed benchmark measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSnapshot {
    /// Schema version ([`SNAPSHOT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Measurement date, `YYYY-MM-DD` (UTC).
    pub date: String,
    /// True when the run used the shrunk quick workload.
    pub quick: bool,
    /// Host worker threads available to the flat executor.
    pub workers: usize,
    /// Monte Carlo permutations used by the rate query.
    pub permutations: usize,
    /// Shape of the measured corpus/store.
    pub corpus: CorpusInfo,
    /// The measured values.
    pub metrics: Metrics,
    /// Network serving throughput (schema v2).
    pub serving: ServingMetrics,
    /// Metrics-registry deltas around the phases (schema v3).
    pub obs: ObsMetrics,
    /// Sharded-vs-monolith serving (schema v4).
    pub sharding: ShardingMetrics,
}

impl BenchSnapshot {
    /// Checks the invariants that make a snapshot meaningful. Returns a
    /// list of violations (empty = valid).
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.schema_version != SNAPSHOT_SCHEMA_VERSION {
            out.push(format!(
                "schema_version {} (this build reads {SNAPSHOT_SCHEMA_VERSION})",
                self.schema_version
            ));
        }
        if !is_iso_date(&self.date) {
            out.push(format!("date '{}' is not YYYY-MM-DD", self.date));
        }
        if self.workers == 0 {
            out.push("workers = 0".into());
        }
        if self.corpus.n_datasets == 0 || self.corpus.n_segments == 0 {
            out.push("empty corpus".into());
        }
        let m = &self.metrics;
        for (name, v) in [
            ("index_build_secs", m.index_build_secs),
            ("store_write_secs", m.store_write_secs),
            ("open_eager_cold_secs", m.open_eager_cold_secs),
            ("open_eager_warm_secs", m.open_eager_warm_secs),
            ("open_lazy_cold_secs", m.open_lazy_cold_secs),
            ("open_lazy_warm_secs", m.open_lazy_warm_secs),
            ("first_query_lazy_secs", m.first_query_lazy_secs),
            ("first_query_eager_secs", m.first_query_eager_secs),
            ("warm_query_secs", m.warm_query_secs),
            ("query_rate_serial_per_min", m.query_rate_serial_per_min),
            ("query_rate_flat_per_min", m.query_rate_flat_per_min),
            ("pql_parse_us", m.pql_parse_us),
        ] {
            if !(v.is_finite() && v > 0.0) {
                out.push(format!("{name} = {v} (expected finite > 0)"));
            }
        }
        if m.open_eager_bytes == 0 || m.open_lazy_bytes == 0 {
            out.push("zero byte counts".into());
        }
        if m.open_lazy_bytes >= m.open_eager_bytes {
            out.push(format!(
                "lazy open read {} bytes, eager {} — laziness bought nothing",
                m.open_lazy_bytes, m.open_eager_bytes
            ));
        }
        if m.lazy_bytes_after_first_query >= m.open_eager_bytes {
            out.push(format!(
                "lazy open + first query read {} bytes, eager open {} — \
                 expected strictly fewer",
                m.lazy_bytes_after_first_query, m.open_eager_bytes
            ));
        }
        let s = &self.serving;
        if s.clients == 0 || s.queries_total == 0 || s.coalesced_batches == 0 {
            out.push("empty serving run".into());
        }
        for (name, v) in [
            ("served_qps_coalesced", s.served_qps_coalesced),
            ("served_qps_serial", s.served_qps_serial),
        ] {
            if !(v.is_finite() && v > 0.0) {
                out.push(format!("{name} = {v} (expected finite > 0)"));
            }
        }
        if s.mean_coalesced_batch < 1.0 {
            out.push(format!(
                "mean_coalesced_batch = {} (a dispatch carries ≥ 1 query)",
                s.mean_coalesced_batch
            ));
        }
        // Coalescing must not *cost* throughput. The win itself is
        // load-shape and host dependent (a 1-core box only amortises
        // dispatch overhead), so the committed number documents the gain
        // and validation only flags an outright regression, with slack
        // for scheduler noise on loaded CI hosts.
        if s.served_qps_coalesced < 0.75 * s.served_qps_serial {
            out.push(format!(
                "coalesced dispatch served {:.1} q/s vs {:.1} serial — \
                 coalescing made serving slower",
                s.served_qps_coalesced, s.served_qps_serial
            ));
        }
        let o = &self.obs;
        if o.query_cache_hits == 0 {
            out.push("obs: warm repeat never hit the query cache".into());
        }
        if o.segment_faults == 0 {
            out.push("obs: lazy session never faulted a segment".into());
        }
        if o.segment_faults > self.corpus.n_segments as u64 {
            out.push(format!(
                "obs: {} segment faults, but the store only holds {} segments \
                 — the lazy cache is thrashing",
                o.segment_faults, self.corpus.n_segments
            ));
        }
        if o.checksum_verifications < o.segment_faults {
            out.push(format!(
                "obs: {} faults but only {} checksum verifications — \
                 segments decoded unverified",
                o.segment_faults, o.checksum_verifications
            ));
        }
        if o.checksum_failures != 0 {
            out.push(format!(
                "obs: {} checksum failure(s) — store corruption",
                o.checksum_failures
            ));
        }
        if o.batch_dispatches == 0 || o.batch_queries < o.batch_dispatches {
            out.push(format!(
                "obs: {} dispatches carrying {} queries — a dispatch holds ≥ 1 query",
                o.batch_dispatches, o.batch_queries
            ));
        }
        if o.batch_queries < s.queries_total {
            out.push(format!(
                "obs: batch histogram saw {} queries, serving ran {} per mode \
                 — dispatches went unobserved",
                o.batch_queries, s.queries_total
            ));
        }
        let sh = &self.sharding;
        if sh.n_shards < 2 {
            out.push(format!(
                "sharding: n_shards = {} (a 1-shard layout is just the monolith)",
                sh.n_shards
            ));
        }
        if sh.shard_faults.len() != sh.n_shards || sh.shard_bytes_fetched.len() != sh.n_shards {
            out.push(format!(
                "sharding: {} fault / {} byte slots for {} shards — \
                 one delta per shard expected",
                sh.shard_faults.len(),
                sh.shard_bytes_fetched.len(),
                sh.n_shards
            ));
        }
        for (name, v) in [
            (
                "query_rate_monolith_per_min",
                sh.query_rate_monolith_per_min,
            ),
            ("query_rate_sharded_per_min", sh.query_rate_sharded_per_min),
        ] {
            if !(v.is_finite() && v > 0.0) {
                out.push(format!("sharding: {name} = {v} (expected finite > 0)"));
            }
        }
        if sh.shard_faults.iter().sum::<u64>() == 0 {
            out.push("sharding: the sharded run never faulted a segment".into());
        }
        if sh.shard_faults.iter().sum::<u64>() > self.corpus.n_segments as u64 {
            out.push(format!(
                "sharding: {} shard faults, but the store only holds {} \
                 segments — the sharded run refaulted",
                sh.shard_faults.iter().sum::<u64>(),
                self.corpus.n_segments
            ));
        }
        if sh
            .shard_faults
            .iter()
            .zip(&sh.shard_bytes_fetched)
            .any(|(&f, &b)| f > 0 && b == 0)
        {
            out.push("sharding: a shard faulted segments but fetched no bytes".into());
        }
        // Sharding must not *cost* throughput: the same slack as the
        // coalescing check, for scheduler noise on loaded CI hosts.
        if sh.query_rate_sharded_per_min < 0.75 * sh.query_rate_monolith_per_min {
            out.push(format!(
                "sharding: {:.1} relationships/min sharded vs {:.1} monolithic \
                 — sharding made serving slower",
                sh.query_rate_sharded_per_min, sh.query_rate_monolith_per_min
            ));
        }
        out
    }
}

/// True for a `YYYY-MM-DD` string with plausible month/day fields.
pub fn is_iso_date(s: &str) -> bool {
    let b = s.as_bytes();
    if b.len() != 10 || b[4] != b'-' || b[7] != b'-' {
        return false;
    }
    let digits = |r: std::ops::Range<usize>| s[r].parse::<u32>().ok();
    match (digits(0..4), digits(5..7), digits(8..10)) {
        (Some(_), Some(m), Some(d)) => (1..=12).contains(&m) && (1..=31).contains(&d),
        _ => false,
    }
}

/// Today's UTC date as `YYYY-MM-DD`, derived from the system clock with
/// the standard days-to-civil conversion (no date-time dependency).
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0);
    let (y, m, d) = civil_from_days(secs.div_euclid(86_400));
    format!("{y:04}-{m:02}-{d:02}")
}

/// Converts days since 1970-01-01 to (year, month, day) — Howard Hinnant's
/// `civil_from_days` algorithm, exact over the proleptic Gregorian
/// calendar.
pub fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097); // day of era [0, 146096]
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365; // year of era
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // day of year, Mar-based
    let mp = (5 * doy + 2) / 153; // Mar-based month
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_conversion_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year start
        assert_eq!(civil_from_days(19_782), (2024, 2, 29)); // leap day
        assert_eq!(civil_from_days(20_672), (2026, 8, 7));
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
    }

    #[test]
    fn iso_date_checks() {
        assert!(is_iso_date("2026-08-07"));
        assert!(!is_iso_date("2026-8-7"));
        assert!(!is_iso_date("2026-13-01"));
        assert!(!is_iso_date("20260807"));
        assert!(is_iso_date(&today_utc()));
    }

    fn sample() -> BenchSnapshot {
        BenchSnapshot {
            schema_version: SNAPSHOT_SCHEMA_VERSION,
            date: "2026-08-07".into(),
            quick: true,
            workers: 4,
            permutations: 40,
            corpus: CorpusInfo {
                n_datasets: 9,
                n_segments: 300,
                store_bytes: 1_000_000,
                n_functions: 300,
            },
            metrics: Metrics {
                index_build_secs: 1.0,
                store_write_secs: 0.1,
                open_eager_cold_secs: 0.2,
                open_eager_warm_secs: 0.15,
                open_eager_bytes: 990_000,
                open_lazy_cold_secs: 0.001,
                open_lazy_warm_secs: 0.001,
                open_lazy_bytes: 10_000,
                first_query_lazy_secs: 0.05,
                lazy_bytes_after_first_query: 200_000,
                first_query_eager_secs: 0.04,
                warm_query_secs: 0.001,
                rate_query_relationships: 500,
                query_rate_serial_per_min: 10_000.0,
                query_rate_flat_per_min: 40_000.0,
                pql_parse_us: 3.0,
            },
            serving: ServingMetrics {
                clients: 4,
                queries_total: 24,
                served_qps_coalesced: 12.0,
                served_qps_serial: 9.0,
                coalesced_batches: 8,
                mean_coalesced_batch: 3.0,
            },
            obs: ObsMetrics {
                query_cache_hits: 1,
                query_cache_misses: 2,
                segment_faults: 6,
                segment_cache_hits: 6,
                checksum_verifications: 6,
                checksum_failures: 0,
                batch_dispatches: 32,
                batch_queries: 48,
            },
            sharding: ShardingMetrics {
                n_shards: 3,
                query_rate_monolith_per_min: 38_000.0,
                query_rate_sharded_per_min: 39_000.0,
                shard_faults: vec![40, 35, 25],
                shard_bytes_fetched: vec![120_000, 100_000, 80_000],
            },
        }
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let snap = sample();
        let json = serde_json::to_string(&snap).unwrap();
        let back: BenchSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert!(back.problems().is_empty(), "{:?}", back.problems());
    }

    #[test]
    fn validation_catches_regressions() {
        let mut snap = sample();
        snap.metrics.open_lazy_bytes = snap.metrics.open_eager_bytes;
        snap.metrics.query_rate_flat_per_min = f64::NAN;
        let problems = snap.problems();
        assert_eq!(problems.len(), 2, "{problems:?}");
    }

    #[test]
    fn validation_catches_serving_regression() {
        let mut snap = sample();
        // Slower than serial beyond the noise allowance: flagged.
        snap.serving.served_qps_coalesced = 0.5 * snap.serving.served_qps_serial;
        let problems = snap.problems();
        assert_eq!(problems.len(), 1, "{problems:?}");
        // Within the noise allowance: tolerated.
        snap.serving.served_qps_coalesced = 0.9 * snap.serving.served_qps_serial;
        assert!(snap.problems().is_empty());
    }

    #[test]
    fn validation_catches_obs_violations() {
        let mut snap = sample();
        // More faults than the store has segments, and a corruption.
        snap.obs.segment_faults = snap.corpus.n_segments as u64 + 1;
        snap.obs.checksum_verifications = snap.obs.segment_faults;
        snap.obs.checksum_failures = 1;
        let problems = snap.problems();
        assert_eq!(problems.len(), 2, "{problems:?}");
        // A dispatch carrying less than one query is structurally
        // impossible (31 still covers the per-mode total of 24).
        let mut snap = sample();
        snap.obs.batch_queries = snap.obs.batch_dispatches - 1;
        let problems = snap.problems();
        assert_eq!(problems.len(), 1, "{problems:?}");
    }

    #[test]
    fn validation_catches_sharding_violations() {
        let mut snap = sample();
        // A slot count that disagrees with the layout, and a sharded run
        // slower than the monolith beyond the noise allowance.
        snap.sharding.shard_faults = vec![100, 0];
        snap.sharding.query_rate_sharded_per_min = 0.5 * snap.sharding.query_rate_monolith_per_min;
        let problems = snap.problems();
        assert_eq!(problems.len(), 2, "{problems:?}");
        // A degenerate 1-shard layout is just the monolith: flagged.
        let mut snap = sample();
        snap.sharding.n_shards = 1;
        snap.sharding.shard_faults = vec![100];
        snap.sharding.shard_bytes_fetched = vec![300_000];
        let problems = snap.problems();
        assert_eq!(problems.len(), 1, "{problems:?}");
        // Faults without bytes means the counters disagree: flagged.
        let mut snap = sample();
        snap.sharding.shard_bytes_fetched = vec![120_000, 0, 80_000];
        let problems = snap.problems();
        assert_eq!(problems.len(), 1, "{problems:?}");
    }

    #[test]
    fn missing_keys_fail_to_parse() {
        let snap = sample();
        let json = serde_json::to_string(&snap).unwrap();
        let broken = json.replace("\"pql_parse_us\"", "\"renamed_key\"");
        assert!(serde_json::from_str::<BenchSnapshot>(&broken).is_err());
    }
}
