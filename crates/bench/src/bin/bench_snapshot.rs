//! Measures the tracked performance axes and emits a committed
//! `BENCH_<date>.json` snapshot — the repository's benchmark trajectory.
//!
//! ```text
//! bench_snapshot [--quick] [--out PATH] [--date YYYY-MM-DD]
//! bench_snapshot --validate PATH
//! ```
//!
//! Measurement covers: index build, store write, store open eager vs lazy
//! (cold and warm), the lazy path's byte footprint through the first
//! single-pair query (asserted strictly smaller than an eager open's),
//! sustained all-pairs query rate serial vs flat-parallel, sharded vs
//! monolithic serving of the same workload (with per-shard fault/byte
//! deltas), and PQL parse latency. `--validate` re-reads an emitted file
//! through the schema struct — a missing or mistyped key is a parse
//! error — and checks the snapshot invariants, exiting non-zero on any
//! violation.

use polygamy_bench::snapshot::{
    today_utc, BenchSnapshot, CorpusInfo, Metrics, ObsMetrics, ServingMetrics, ShardingMetrics,
    SNAPSHOT_SCHEMA_VERSION,
};
use polygamy_bench::{human_bytes, timed};
use polygamy_core::cache::{QueryCache, DEFAULT_QUERY_CACHE_CAPACITY};
use polygamy_core::pql::{parse_query, to_pql};
use polygamy_core::prelude::*;
use polygamy_core::{run_query, DataPolygamy};
use polygamy_datagen::{urban_collection, UrbanConfig};
use polygamy_mapreduce::Cluster;
use polygamy_obs::names;
use polygamy_store::{shard_store, LoadFilter, SourceBackend, Store, StoreSession};
use std::hint::black_box;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if let Some(path) = flag_value(&args, "--validate") {
        validate(&path)
    } else {
        run(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("bench_snapshot: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The registry metric each `ObsMetrics` snapshot field is derived
/// from, by **literal** name. `--validate` diffs this mapping against
/// the catalogue (`polygamy_obs::names::ALL`), so renaming or retiring
/// a metric breaks snapshot validation here instead of silently
/// orphaning the committed `BENCH_*.json` obs sections.
fn obs_metric_sources() -> [(&'static str, &'static str); 10] {
    [
        ("query_cache_hits", "core.query_cache.hits"),
        ("query_cache_misses", "core.query_cache.misses"),
        ("segment_faults", "store.segment.faults"),
        ("segment_cache_hits", "store.segment.cache_hits"),
        ("checksum_verifications", "store.checksum.verifications"),
        ("checksum_failures", "store.checksum.failures"),
        ("batch_dispatches", "serve.batch_size"),
        ("batch_queries", "serve.batch_size"),
        // The sharding section's per-shard vectors index these families;
        // shard 0 always exists, so it stands in for the family here.
        ("shard_faults", "store.shard.faults.0"),
        ("shard_bytes_fetched", "store.shard.bytes_fetched.0"),
    ]
}

fn validate(path: &str) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("validate: cannot read {path}: {e}"))?;
    let snap: BenchSnapshot = serde_json::from_str(&text)
        .map_err(|e| format!("validate: {path} does not match the snapshot schema: {e}"))?;
    let problems = snap.problems();
    if !problems.is_empty() {
        return Err(format!(
            "validate: {path} violates snapshot invariants:\n  - {}",
            problems.join("\n  - ")
        ));
    }
    for (field, metric) in obs_metric_sources() {
        if !names::is_canonical(metric) {
            return Err(format!(
                "validate: obs field `{field}` is derived from `{metric}`, which is not \
                 in the polygamy_obs::names catalogue — the metric was renamed or \
                 retired without updating the snapshot schema"
            ));
        }
    }
    println!(
        "{path}: valid snapshot (schema v{}, {}, {} data sets, {} segments)",
        snap.schema_version, snap.date, snap.corpus.n_datasets, snap.corpus.n_segments
    );
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let quick = polygamy_bench::quick_mode();
    let date = match flag_value(args, "--date") {
        Some(d) if polygamy_bench::snapshot::is_iso_date(&d) => d,
        Some(d) => return Err(format!("--date '{d}' is not YYYY-MM-DD")),
        None => today_utc(),
    };
    let out_path = flag_value(args, "--out").unwrap_or_else(|| format!("BENCH_{date}.json"));
    let permutations = if quick { 40 } else { 200 };

    // ---- Corpus + index build.
    eprintln!("building corpus (quick = {quick})...");
    let collection = urban_collection(UrbanConfig {
        n_years: if quick { 1 } else { 2 },
        scale: if quick { 0.02 } else { 0.2 },
        extra_weather_attrs: if quick { 0 } else { 8 },
        ..UrbanConfig::default()
    });
    let mut dp = DataPolygamy::new(
        collection.geometry().clone(),
        polygamy_core::framework::Config::default(),
    );
    for d in &collection.datasets {
        dp.add_dataset(d.clone());
    }
    let (_, index_build_secs) = timed(|| dp.build_index());
    let index = dp.index().map_err(|e| e.to_string())?;
    eprintln!(
        "indexed {} data sets, {} functions in {index_build_secs:.2}s",
        collection.datasets.len(),
        index.functions.len()
    );

    // ---- Store write.
    let store_path =
        std::env::temp_dir().join(format!("bench-snapshot-{}.plst", std::process::id()));
    let (store, store_write_secs) = timed(|| Store::save(&store_path, dp.geometry(), index));
    let store = store.map_err(|e| e.to_string())?;
    let corpus = CorpusInfo {
        n_datasets: store.manifest().datasets.len(),
        n_segments: store.manifest().segments.len(),
        store_bytes: store.file_bytes().map_err(|e| e.to_string())?,
        n_functions: index.functions.len(),
    };
    drop(store);
    eprintln!(
        "wrote store: {} in {store_write_secs:.2}s",
        human_bytes(corpus.store_bytes as usize)
    );

    let config = polygamy_core::framework::Config::default();

    // ---- Store open: eager, cold then warm, with byte accounting. The
    // byte counter lives on the Store's source, so open + load are staged
    // explicitly.
    let (eager_cold, open_eager_cold_secs) = timed(|| -> Result<_, String> {
        let store = Store::open(&store_path).map_err(|e| e.to_string())?;
        let session = StoreSession::from_store(&store, config, &LoadFilter::all())
            .map_err(|e| e.to_string())?;
        Ok((session, store.source().bytes_fetched()))
    });
    let (eager_session, open_eager_bytes) = eager_cold?;
    let (warm, open_eager_warm_secs) = timed(|| -> Result<_, String> {
        let store = Store::open(&store_path).map_err(|e| e.to_string())?;
        StoreSession::from_store(&store, config, &LoadFilter::all()).map_err(|e| e.to_string())
    });
    drop(warm?);

    // ---- Store open: lazy, cold then warm.
    let (lazy_cold, open_lazy_cold_secs) = timed(|| {
        StoreSession::open_lazy_with(
            &store_path,
            config,
            &LoadFilter::all(),
            SourceBackend::default(),
        )
        .map_err(|e| e.to_string())
    });
    let lazy_session = lazy_cold?;
    let open_lazy_bytes = lazy_session
        .lazy_index()
        .expect("lazy session")
        .store()
        .source()
        .bytes_fetched();
    let (lazy_warm, open_lazy_warm_secs) = timed(|| {
        StoreSession::open_lazy_with(
            &store_path,
            config,
            &LoadFilter::all(),
            SourceBackend::default(),
        )
        .map_err(|e| e.to_string())
    });
    drop(lazy_warm?);
    eprintln!(
        "open: eager {open_eager_cold_secs:.3}s / {} — lazy {open_lazy_cold_secs:.4}s / {}",
        human_bytes(open_eager_bytes as usize),
        human_bytes(open_lazy_bytes as usize)
    );

    // ---- First single-pair query: lazy faults in only that pair. The
    // registry snapshot taken here brackets the phase, so the deltas are
    // exactly this phase's cache/fault/verification events.
    let obs_pair_before = polygamy_obs::global().snapshot();
    let first = collection
        .datasets
        .first()
        .ok_or("empty corpus")?
        .meta
        .name
        .clone();
    let second = collection
        .datasets
        .get(1)
        .ok_or("need at least two data sets")?
        .meta
        .name
        .clone();
    let pair_query = RelationshipQuery::between(&[first.as_str()], &[second.as_str()]).with_clause(
        Clause::default()
            .permutations(permutations)
            .include_insignificant(),
    );
    let (lazy_first, first_query_lazy_secs) =
        timed(|| lazy_session.query(&pair_query).map_err(|e| e.to_string()));
    let lazy_first = lazy_first?;
    let lazy_bytes_after_first_query = lazy_session
        .lazy_index()
        .expect("lazy session")
        .store()
        .source()
        .bytes_fetched();
    let (eager_first, first_query_eager_secs) =
        timed(|| eager_session.query(&pair_query).map_err(|e| e.to_string()));
    let eager_first = eager_first?;
    if lazy_first != eager_first {
        return Err("lazy and eager sessions disagree on the same query".into());
    }
    if lazy_bytes_after_first_query >= open_eager_bytes {
        return Err(format!(
            "lazy open + first query read {lazy_bytes_after_first_query} bytes, \
             eager open read {open_eager_bytes} — laziness bought nothing"
        ));
    }
    let (warm_res, warm_query_secs) =
        timed(|| lazy_session.query(&pair_query).map_err(|e| e.to_string()));
    let _ = warm_res?;
    let obs_pair_after = polygamy_obs::global().snapshot();
    eprintln!(
        "first pair query: lazy {first_query_lazy_secs:.2}s (total {} read), eager {first_query_eager_secs:.2}s",
        human_bytes(lazy_bytes_after_first_query as usize)
    );

    // ---- Sustained all-pairs rate, serial vs flat, on the in-memory index
    // (disk out of the picture: this measures the evaluation engine).
    let rate_query = RelationshipQuery::all().with_clause(
        Clause::default()
            .permutations(permutations)
            .include_insignificant(),
    );
    let run_with = |cluster: Cluster| {
        let cfg = polygamy_core::framework::Config {
            cluster,
            ..polygamy_core::framework::Config::default()
        };
        let cache = QueryCache::new(DEFAULT_QUERY_CACHE_CAPACITY);
        timed(|| run_query(index, dp.geometry(), &cfg, &cache, &rate_query).expect("rate query"))
    };
    let (serial_rels, serial_secs) = run_with(Cluster::local(1));
    let (flat_rels, flat_secs) = run_with(Cluster::host());
    assert_eq!(serial_rels, flat_rels, "executor is worker-independent");
    let workers = Cluster::host().workers();
    eprintln!(
        "rate: {} relationships — serial {serial_secs:.2}s, flat {flat_secs:.2}s on {workers} workers",
        flat_rels.len()
    );

    // ---- Network serving: coalesced vs serial dispatch over the store
    // file written above, fresh cold-cache sessions per mode.
    let serve_clients = 4;
    let serve_requests = if quick { 6 } else { 12 };
    let serve_queries: Vec<String> = [
        format!("between {first} and {second} where permutations = {permutations} and include insignificant"),
        format!("between {first} and * where permutations = {permutations}"),
        format!("between {second} and * where permutations = {permutations} and class = salient"),
    ]
    .into_iter()
    .collect();
    let obs_serving_before = polygamy_obs::global().snapshot();
    let served = polygamy_bench::serving::measure_serving(
        &store_path,
        serve_clients,
        serve_requests,
        &serve_queries,
    )?;
    let obs_serving_after = polygamy_obs::global().snapshot();
    eprintln!(
        "serving: coalesced {:.1} q/s vs serial {:.1} q/s — {} queries in {} dispatches \
         (mean batch {:.2})",
        served.qps_coalesced,
        served.qps_serial,
        served.coalesced.queries,
        served.coalesced.batches,
        served.coalesced.mean_batch()
    );

    // ---- Sharded vs monolithic serving: migrate the store (byte-exact)
    // to a 3-shard layout and run the same all-pairs workload on a fresh
    // cold lazy session over each, so the two rates differ only by the
    // per-shard segment I/O. Results are asserted
    // identical, and the sharded run's registry bracket yields the exact
    // per-shard fault/byte deltas.
    let n_shards = 3usize;
    let catalog_path = std::env::temp_dir().join(format!(
        "bench-snapshot-{}-sharded.plst",
        std::process::id()
    ));
    let shard_catalog =
        shard_store(&store_path, &catalog_path, n_shards).map_err(|e| e.to_string())?;
    let rate_over = |path: &std::path::Path| -> Result<(usize, f64), String> {
        let session = StoreSession::open_lazy_with(
            path,
            config,
            &LoadFilter::all(),
            SourceBackend::default(),
        )
        .map_err(|e| e.to_string())?;
        let (rels, secs) = timed(|| session.query(&rate_query).map_err(|e| e.to_string()));
        let rels = rels?;
        if rels != flat_rels {
            return Err(format!(
                "lazy session over {} disagrees with the in-memory index",
                path.display()
            ));
        }
        Ok((rels.len(), secs))
    };
    let (mono_rels_n, mono_secs) = rate_over(&store_path)?;
    let obs_shard_before = polygamy_obs::global().snapshot();
    let (sharded_rels_n, sharded_secs) = rate_over(&catalog_path)?;
    let obs_shard_after = polygamy_obs::global().snapshot();
    let shard_counter_delta = |prefix: &str| -> Vec<u64> {
        (0..n_shards)
            .map(|s| {
                let name = format!("{prefix}{s}");
                obs_shard_after
                    .counter(&name)
                    .saturating_sub(obs_shard_before.counter(&name))
            })
            .collect()
    };
    let sharding = ShardingMetrics {
        n_shards,
        query_rate_monolith_per_min: mono_rels_n as f64 / mono_secs.max(1e-9) * 60.0,
        query_rate_sharded_per_min: sharded_rels_n as f64 / sharded_secs.max(1e-9) * 60.0,
        shard_faults: shard_counter_delta(names::STORE_SHARD_FAULTS_PREFIX),
        shard_bytes_fetched: shard_counter_delta(names::STORE_SHARD_BYTES_FETCHED_PREFIX),
    };
    for shard in 0..n_shards {
        let _ = std::fs::remove_file(shard_catalog.shard_path(&catalog_path, shard));
    }
    let _ = std::fs::remove_file(&catalog_path);
    eprintln!(
        "sharding: {:.0} relationships/min over {n_shards} shards vs {:.0} monolithic — \
         per-shard faults {:?}",
        sharding.query_rate_sharded_per_min,
        sharding.query_rate_monolith_per_min,
        sharding.shard_faults
    );

    // ---- PQL parse latency, amortised to a stable microsecond figure.
    let pql = to_pql(&rate_query);
    let parse_repeats = 2_000u32;
    let (_, parse_total) = timed(|| {
        for _ in 0..parse_repeats {
            black_box(parse_query(black_box(&pql)).expect("canonical PQL parses"));
        }
    });

    // ---- Registry deltas for the obs section: exact event counts
    // bracketed by the snapshots above, so concurrent phases cannot bleed
    // into each other's numbers.
    let delta =
        |after: &polygamy_obs::MetricsSnapshot,
         before: &polygamy_obs::MetricsSnapshot,
         name: &str| { after.counter(name).saturating_sub(before.counter(name)) };
    let batch_hist = |s: &polygamy_obs::MetricsSnapshot| {
        s.histogram(names::SERVE_BATCH_SIZE)
            .map(|h| (h.count(), h.sum))
            .unwrap_or((0, 0))
    };
    let (dispatches_before, batch_sum_before) = batch_hist(&obs_serving_before);
    let (dispatches_after, batch_sum_after) = batch_hist(&obs_serving_after);
    let obs = ObsMetrics {
        query_cache_hits: delta(
            &obs_pair_after,
            &obs_pair_before,
            names::CORE_QUERY_CACHE_HITS,
        ),
        query_cache_misses: delta(
            &obs_pair_after,
            &obs_pair_before,
            names::CORE_QUERY_CACHE_MISSES,
        ),
        segment_faults: delta(
            &obs_pair_after,
            &obs_pair_before,
            names::STORE_SEGMENT_FAULTS,
        ),
        segment_cache_hits: delta(
            &obs_pair_after,
            &obs_pair_before,
            names::STORE_SEGMENT_CACHE_HITS,
        ),
        checksum_verifications: delta(
            &obs_pair_after,
            &obs_pair_before,
            names::STORE_CHECKSUM_VERIFICATIONS,
        ),
        checksum_failures: delta(
            &obs_pair_after,
            &obs_pair_before,
            names::STORE_CHECKSUM_FAILURES,
        ),
        batch_dispatches: dispatches_after.saturating_sub(dispatches_before),
        batch_queries: batch_sum_after.saturating_sub(batch_sum_before),
    };
    eprintln!(
        "obs: {} segment fault(s), {} cache hit(s), {} verification(s); \
         serving dispatched {} quer(ies) in {} batch(es)",
        obs.segment_faults,
        obs.segment_cache_hits,
        obs.checksum_verifications,
        obs.batch_queries,
        obs.batch_dispatches
    );

    let snapshot = BenchSnapshot {
        schema_version: SNAPSHOT_SCHEMA_VERSION,
        date,
        quick,
        workers,
        permutations,
        corpus,
        metrics: Metrics {
            index_build_secs,
            store_write_secs,
            open_eager_cold_secs,
            open_eager_warm_secs,
            open_eager_bytes,
            open_lazy_cold_secs,
            open_lazy_warm_secs,
            open_lazy_bytes,
            first_query_lazy_secs,
            lazy_bytes_after_first_query,
            first_query_eager_secs,
            warm_query_secs,
            rate_query_relationships: flat_rels.len(),
            query_rate_serial_per_min: serial_rels.len() as f64 / serial_secs.max(1e-9) * 60.0,
            query_rate_flat_per_min: flat_rels.len() as f64 / flat_secs.max(1e-9) * 60.0,
            pql_parse_us: parse_total * 1e6 / f64::from(parse_repeats),
        },
        serving: ServingMetrics {
            clients: served.clients,
            queries_total: served.queries_total,
            served_qps_coalesced: served.qps_coalesced,
            served_qps_serial: served.qps_serial,
            coalesced_batches: served.coalesced.batches,
            mean_coalesced_batch: served.coalesced.mean_batch(),
        },
        obs,
        sharding,
    };
    let problems = snapshot.problems();
    if !problems.is_empty() {
        return Err(format!(
            "snapshot violates its own invariants:\n  - {}",
            problems.join("\n  - ")
        ));
    }
    let json = serde_json::to_string(&snapshot).map_err(|e| e.to_string())?;
    std::fs::write(&out_path, json.as_bytes())
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    let _ = std::fs::remove_file(&store_path);
    println!("wrote {out_path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_sources_are_in_the_catalogue() {
        for (field, metric) in obs_metric_sources() {
            assert!(
                names::is_canonical(metric),
                "obs field `{field}` derives from `{metric}`, absent from names::ALL"
            );
        }
    }

    #[test]
    fn catalogue_rejects_unknown_and_prefix_only_names() {
        assert!(!names::is_canonical("store.segment_faults")); // pre-rename spelling
        assert!(!names::is_canonical("serve.errors.")); // bare prefix
        assert!(names::is_canonical("serve.errors.parse"));
    }
}
