//! Layer-isolating probes: direct calls into one layer's public
//! functions, run only on traced runs, after the measured windows.
//!
//! A probe answers "how fast is this layer by itself, on this workload's
//! data?" — the number an optimisation of that layer should move first,
//! before any end-to-end metric does.

use crate::clock;
use crate::corpus::{config, fresh_cache, Built, WORKERS};
use crate::metrics::LayerMetrics;
use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::ratio;
use polygamy_core::framework::IndexBuildReport;
use polygamy_core::{
    evaluate_features, parse_query, run_query, run_query_many, significance_test, DataPolygamy,
    FunctionEntry, PermutationScheme, RelationshipQuery,
};
use polygamy_mapreduce::run_chunked_tasks;
use polygamy_stats::permutation::MonteCarlo;
use polygamy_stdata::temporal::SeasonalInterval;
use polygamy_topology::{seasonal_thresholds, DomainGraph, FeatureClass, FeatureSets, MergeTree};
use std::hint::black_box;

/// What set-up cost, by layer: corpus generation, the index build's
/// stage split, and the store write.
pub fn setup_metrics(tracer: &Tracer, built: &Built, layer: &mut LayerMetrics) {
    layer.set(
        "datagen.generate_s",
        median(&tracer.durations_ms("datagen.generate")) / 1e3,
    );
    pipeline_metrics(&built.report, layer);
    layer.set("store.save_s", built.save_s);
    layer.set("store.save_bytes", built.store_bytes as f64);
    layer.set(
        "store.save_mb_per_s",
        ratio(built.store_bytes as f64 / 1e6, built.save_s),
    );
}

/// Stage split of an index build, from the report `build_index` returns.
fn pipeline_metrics(report: &IndexBuildReport, layer: &mut LayerMetrics) {
    let per = &report.per_dataset;
    layer.set("pipeline.scalar_s", per.iter().map(|d| d.scalar_secs).sum());
    layer.set(
        "pipeline.identify_features_s",
        per.iter().map(|d| d.feature_secs).sum(),
    );
    layer.set(
        "pipeline.scalar_fields",
        per.iter().map(|d| d.n_functions as f64).sum(),
    );
    layer.set(
        "pipeline.index_dataset_max_s",
        per.iter()
            .map(|d| d.scalar_secs + d.feature_secs)
            .fold(0.0, f64::max),
    );
}

/// Replays, on one thread, the five public topology calls
/// `field_features` makes for every indexed scalar field, timing each
/// call family separately.
pub fn topology_replay(dp: &DataPolygamy, layer: &mut LayerMetrics) -> Result<(), String> {
    let index = dp.index().map_err(|e| e.to_string())?;
    let (mut graph_s, mut join_s, mut split_s, mut thresholds_s, mut level_sets_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut vertices, mut tree_nodes) = (0usize, 0usize);
    for entry in &index.functions {
        let field = entry
            .field
            .as_ref()
            .ok_or("index built without keep_fields")?;
        let adjacency = dp
            .geometry()
            .adjacency(field.resolution.spatial)
            .ok_or("indexed resolution without geometry")?;
        let (graph, s) = clock::timed(|| DomainGraph::new(adjacency, field.n_steps));
        graph_s += s;
        let (join, s) = clock::timed(|| MergeTree::join(&graph, &field.values));
        join_s += s;
        let (split, s) = clock::timed(|| MergeTree::split(&graph, &field.values));
        split_s += s;
        let season = SeasonalInterval::for_resolution(field.resolution.temporal);
        let interval_of_step: Vec<i64> = (0..field.n_steps)
            .map(|z| season.interval_of(field.step_start(z)))
            .collect();
        let (thresholds, s) =
            clock::timed(|| seasonal_thresholds(&join, &split, field.n_regions, &interval_of_step));
        thresholds_s += s;
        let (features, s) = clock::timed(|| {
            FeatureSets::compute(&graph, &field.values, &join, &split, &thresholds)
        });
        level_sets_s += s;
        black_box(features);
        vertices += graph.vertex_count();
        tree_nodes += join.node_count() + split.node_count();
    }
    layer.set("topology.graph_s", graph_s);
    layer.set("topology.join_tree_s", join_s);
    layer.set("topology.split_tree_s", split_s);
    layer.set("topology.thresholds_s", thresholds_s);
    layer.set("topology.level_sets_s", level_sets_s);
    layer.set("topology.vertices", vertices as f64);
    layer.set("topology.tree_nodes", tree_nodes as f64);
    layer.set(
        "topology.vertices_per_s",
        ratio(
            vertices as f64,
            graph_s + join_s + split_s + thresholds_s + level_sets_s,
        ),
    );
    Ok(())
}

/// Seconds to evaluate `queries` one at a time on a fresh cache.
fn serial_seconds(
    dp: &DataPolygamy,
    workers: usize,
    queries: &[RelationshipQuery],
) -> Result<f64, String> {
    let index = dp.index().map_err(|e| e.to_string())?;
    let cache = fresh_cache();
    let cfg = config(workers);
    let t0 = clock::now();
    for q in queries {
        black_box(run_query(index, dp.geometry(), &cfg, &cache, q).map_err(|e| e.to_string())?);
    }
    Ok(clock::secs_since(t0))
}

/// Executor probes over a sample of the workload's own queries, on the
/// in-memory index (no store in the way):
///
/// * `executor.speedup_2_over_1` — the sample at one worker ÷ at two;
/// * `executor.batch_over_single` — one `query_many` of the sample ÷ the
///   sum of single `query` calls;
/// * `obs.trace_record_ratio` — the sample inside
///   `polygamy_obs::trace::record` ÷ outside: the price of the program's
///   own per-query tracing.
pub fn executor_probes(
    dp: &DataPolygamy,
    sample_pql: &[String],
    layer: &mut LayerMetrics,
) -> Result<(), String> {
    let queries = sample_pql
        .iter()
        .map(|src| parse_query(src).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let two = serial_seconds(dp, WORKERS, &queries)?;
    let one = serial_seconds(dp, 1, &queries)?;
    layer.set("executor.speedup_2_over_1", ratio(one, two));

    let index = dp.index().map_err(|e| e.to_string())?;
    let cache = fresh_cache();
    let (batch, batch_s) =
        clock::timed(|| run_query_many(index, dp.geometry(), &config(WORKERS), &cache, &queries));
    black_box(batch.map_err(|e| e.to_string())?);
    layer.set("executor.batch_over_single", ratio(batch_s, two));

    let (recorded, _trace) = polygamy_obs::trace::record(|| serial_seconds(dp, WORKERS, &queries));
    layer.set("obs.trace_record_ratio", ratio(recorded?, two));
    Ok(())
}

/// Up to `max` aligned feature-set pairs from the index, one per data
/// set pair, with spatial (`n_regions > 1`) or purely temporal domains.
fn feature_pairs(
    dp: &DataPolygamy,
    spatial: bool,
    max: usize,
) -> Result<Vec<(&FunctionEntry, &FunctionEntry)>, String> {
    let index = dp.index().map_err(|e| e.to_string())?;
    let wanted = |e: &FunctionEntry| (e.n_regions > 1) == spatial;
    let mut pairs = Vec::new();
    let n = index.datasets.len();
    'pairs: for a in 0..n {
        for b in a + 1..n {
            let found = index.functions_of(a).filter(|e| wanted(e)).find_map(|e1| {
                index
                    .functions_of(b)
                    .find(|e2| e1.overlap(e2).is_some())
                    .map(|e2| (e1, e2))
            });
            pairs.extend(found);
            if pairs.len() == max {
                break 'pairs;
            }
        }
    }
    Ok(pairs)
}

/// Times `significance_test` and `evaluate_features` directly on a fixed
/// sample of salient feature-set pairs, exactly as the executor's unit
/// task slices them. Reports ns per permutation and ns per intersection
/// under `significance.perm_ns_<kind>` / `relationship.intersect_ns_<kind>`.
pub fn significance_probes(
    dp: &DataPolygamy,
    spatial: bool,
    layer: &mut LayerMetrics,
) -> Result<(), String> {
    let (perm_name, intersect_name, permutations) = if spatial {
        (
            "significance.perm_ns_spatial",
            "relationship.intersect_ns_spatial",
            20,
        )
    } else {
        (
            "significance.perm_ns_temporal",
            "relationship.intersect_ns_temporal",
            400,
        )
    };
    let mc = MonteCarlo {
        permutations,
        ..MonteCarlo::default()
    };
    const INTERSECTIONS: usize = 200;
    let (mut perm_s, mut intersect_s, mut n) = (0.0, 0.0, 0usize);
    for (e1, e2) in feature_pairs(dp, spatial, 8)? {
        let (start, len) = e1.overlap(e2).expect("pairs are chosen overlapping");
        let (lo1, hi1) = e1.vertex_range(start, len);
        let (lo2, hi2) = e2.vertex_range(start, len);
        let f1 = e1.features.class(FeatureClass::Salient).slice(lo1, hi1);
        let f2 = e2.features.class(FeatureClass::Salient).slice(lo2, hi2);
        let adjacency = dp
            .geometry()
            .adjacency(e1.resolution.spatial)
            .ok_or("indexed resolution without geometry")?;
        let (measures, s) = clock::timed(|| {
            let mut last = evaluate_features(&f1, &f2);
            for _ in 1..INTERSECTIONS {
                last = evaluate_features(black_box(&f1), black_box(&f2));
            }
            last
        });
        intersect_s += s;
        let (p, s) = clock::timed(|| {
            significance_test(
                &f1,
                &f2,
                adjacency,
                len,
                measures.score,
                &mc,
                PermutationScheme::Paper,
                n as u64,
            )
        });
        black_box(p);
        perm_s += s;
        n += 1;
    }
    layer.set(perm_name, ratio(perm_s * 1e9, (n * permutations) as f64));
    layer.set(
        intersect_name,
        ratio(intersect_s * 1e9, (n * INTERSECTIONS) as f64),
    );
    layer.set("significance.permutations", (n * permutations) as f64);
    Ok(())
}

/// Median µs of one worker-pool dispatch: `run_chunked_tasks` spawns a
/// scoped pool per call, and the serving path pays that per batch.
pub fn dispatch_probe(layer: &mut LayerMetrics) {
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let (out, s) = clock::timed(|| run_chunked_tasks(WORKERS, 64, 4, |i| i));
            black_box(out);
            s * 1e6
        })
        .collect();
    layer.set("mapreduce.dispatch_us", median(&samples));
}
