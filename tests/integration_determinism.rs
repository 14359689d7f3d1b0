//! Determinism matrix for the flat query executor.
//!
//! The PR's core guarantee: query results are **byte-identical** for any
//! worker count — `Cluster::local(1)`, `local(2)`, …, `Cluster::host()` —
//! on both the in-memory framework and a persistent `StoreSession`, for
//! both `query` and `query_many`, in both **eager and lazy** read modes
//! (the lazy session faults segments in per query footprint; pinned
//! entries keep directory order, so expansion — and therefore output — is
//! unchanged), and — since the store learned to shard — for **any shard
//! count**: a store split over 1, 2 or 5 shard files answers with the
//! exact bytes of the monolith it was migrated from, because shards only
//! decide which file a segment faults from: the pinned entries reach the
//! one executor in the monolith's directory order, so expansion never sees
//! the layout; and for clauses **with and without a `thresholds`
//! override** — the one clause that makes a lazy session fetch scalar
//! field blobs. Tasks carry their own FNV-derived Monte
//! Carlo seeds and results are assembled in canonical task order, so
//! scheduling can never leak into significance verdicts. Byte-identity is
//! checked on the serialized JSON, not just `PartialEq`, so even the bit
//! patterns of scores and p-values must agree.
//!
//! Every corpus above is city-level (1-D). The last two tests run a small
//! **spatial** corpus — neighbourhood and zip partitions, overlap windows
//! cropped off a word boundary — through the same matrix, asked cold, again,
//! and against a second partner on one session (the region-major rows the
//! spatial significance test shifts are memoised on the index entry and
//! cropped per window), and re-derive a whole query pair by pair on the
//! naive path: the executor-level oracle for spatial domains.

use polygamy_core::prelude::*;
use polygamy_core::relationship::write_json_array;
use polygamy_core::{
    evaluate_features, significance_test, DataPolygamy, Fnv1a, FunctionEntry, PermutationScheme,
};
use polygamy_mapreduce::Cluster;
use polygamy_obs::{names, trace};
use polygamy_stats::permutation::MonteCarlo;
use polygamy_stdata::Polygon;
use polygamy_store::{shard_store, LoadFilter, SourceBackend, Store, StoreSession};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "polygamy-determinism-test-{}-{tag}.plst",
        std::process::id()
    ))
}

/// Removes the file when dropped, so failures don't litter the temp dir.
struct Cleanup(PathBuf);

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The worker-count matrix every result must be invariant over. Three is
/// the odd one: the calling thread is a worker, so chunks are claimed by
/// one caller and two helpers.
fn worker_matrix() -> Vec<Cluster> {
    vec![
        Cluster::local(1),
        Cluster::local(2),
        Cluster::local(3),
        Cluster::host(),
    ]
}

/// The read-mode axis: every store-session result must also be invariant
/// over eager vs lazy materialization.
fn session_matrix(path: &std::path::Path, cluster: Cluster) -> Vec<(&'static str, StoreSession)> {
    vec![
        (
            "eager",
            StoreSession::open_with(path, Config { cluster }, &LoadFilter::all()).unwrap(),
        ),
        (
            "lazy",
            StoreSession::open_lazy_with(
                path,
                Config { cluster },
                &LoadFilter::all(),
                SourceBackend::default(),
            )
            .unwrap(),
        ),
    ]
}

fn spiky_dataset(name: &str, level: f64, bump_at: i64) -> Dataset {
    let meta = DatasetMeta {
        name: name.into(),
        spatial_resolution: SpatialResolution::City,
        temporal_resolution: TemporalResolution::Hour,
        description: String::new(),
    };
    let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("signal"));
    for h in 0..400i64 {
        let v = if h == bump_at || h == bump_at + 61 {
            40.0
        } else {
            level + (h % 24) as f64 * 0.05
        };
        b.push(GeoPoint::new(0.5, 0.5), h * 3_600, &[v])
            .expect("schema matches");
    }
    b.build().expect("dataset builds")
}

fn build_framework(datasets: &[Dataset], cluster: Cluster) -> DataPolygamy {
    let mut dp = DataPolygamy::new(
        CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
        Config { cluster },
    );
    for d in datasets {
        dp.add_dataset(d.clone());
    }
    dp.build_index();
    dp
}

fn test_queries() -> Vec<RelationshipQuery> {
    let clause = Clause::default().permutations(40).include_insignificant();
    vec![
        RelationshipQuery::all().with_clause(clause.clone()),
        RelationshipQuery::between(&["alpha"], &["beta"]).with_clause(clause.clone()),
        RelationshipQuery::of("gamma").with_clause(clause),
    ]
}

fn json(rels: &[Relationship]) -> String {
    let mut out = String::new();
    write_json_array(&mut out, rels).expect("relationships serialize");
    out
}

#[test]
fn framework_results_identical_across_worker_counts() {
    let datasets = vec![
        spiky_dataset("alpha", 1.0, 100),
        spiky_dataset("beta", -2.0, 100),
        spiky_dataset("gamma", 0.5, 222),
    ];
    let queries = test_queries();
    let reference: Vec<String> = {
        let dp = build_framework(&datasets, Cluster::local(1));
        queries
            .iter()
            .map(|q| json(&dp.query(q).unwrap()))
            .collect()
    };
    assert!(
        reference.iter().any(|j| j != "[]"),
        "matrix must be non-trivial"
    );
    for cluster in worker_matrix() {
        // query: one at a time, fresh framework (cold caches).
        let dp = build_framework(&datasets, cluster);
        for (q, expect) in queries.iter().zip(&reference) {
            assert_eq!(&json(&dp.query(q).unwrap()), expect, "query @ {cluster:?}");
        }
        // query_many: whole batch on one pool, fresh framework again.
        let dp = build_framework(&datasets, cluster);
        let batched = dp.query_many(&queries).unwrap();
        for (rels, expect) in batched.iter().zip(&reference) {
            assert_eq!(&json(rels), expect, "query_many @ {cluster:?}");
        }
    }
}

#[test]
fn store_session_results_identical_across_worker_counts() {
    let path = tmp_path("matrix");
    let _cleanup = Cleanup(path.clone());
    let datasets = vec![
        spiky_dataset("alpha", 1.0, 100),
        spiky_dataset("beta", -2.0, 100),
        spiky_dataset("gamma", 0.5, 222),
    ];
    let dp = build_framework(&datasets, Cluster::local(1));
    Store::save(&path, dp.geometry(), dp.index().unwrap()).unwrap();

    let queries = test_queries();
    let reference: Vec<String> = queries
        .iter()
        .map(|q| json(&dp.query(q).unwrap()))
        .collect();
    for cluster in worker_matrix() {
        for (mode, session) in session_matrix(&path, cluster) {
            for (q, expect) in queries.iter().zip(&reference) {
                assert_eq!(
                    &json(&session.query(q).unwrap()),
                    expect,
                    "{mode} query @ {cluster:?}"
                );
            }
        }
        // Fresh sessions for the batched path (cold caches again).
        for (mode, session) in session_matrix(&path, cluster) {
            let batched = session.query_many(&queries).unwrap();
            for (rels, expect) in batched.iter().zip(&reference) {
                assert_eq!(&json(rels), expect, "{mode} query_many @ {cluster:?}");
            }
        }
    }
}

/// The shard axis of the matrix: workers {1, 2, host} × shards {1, 2, 5}
/// × {eager, lazy} × {query, query_many}, every cell
/// byte-identical to the monolithic single-worker baseline. The 1-shard
/// store pins the degenerate case (sharded ≡ monolith), and the 5-shard
/// layout (more shards than data sets, so some shard files are empty)
/// exercises pinning across uneven data-set/shard splits.
#[test]
fn sharded_sessions_identical_to_monolith_for_any_shard_count() {
    let path = tmp_path("shard-matrix");
    let _cleanup = Cleanup(path.clone());
    let datasets = vec![
        spiky_dataset("alpha", 1.0, 100),
        spiky_dataset("beta", -2.0, 100),
        spiky_dataset("gamma", 0.5, 222),
    ];
    let dp = build_framework(&datasets, Cluster::local(1));
    Store::save(&path, dp.geometry(), dp.index().unwrap()).unwrap();

    let queries = test_queries();
    let reference: Vec<String> = queries
        .iter()
        .map(|q| json(&dp.query(q).unwrap()))
        .collect();
    assert!(reference.iter().any(|j| j != "[]"));

    let mut cleanups = Vec::new();
    for n_shards in [1usize, 2, 5] {
        let catalog_path = tmp_path(&format!("shard-matrix-{n_shards}"));
        cleanups.push(Cleanup(catalog_path.clone()));
        let catalog = shard_store(&path, &catalog_path, n_shards).unwrap();
        for i in 0..n_shards {
            cleanups.push(Cleanup(catalog.shard_path(&catalog_path, i)));
        }
        for cluster in worker_matrix() {
            // The same session_matrix helper opens sharded stores — the
            // session auto-detects the catalog magic.
            for (mode, session) in session_matrix(&catalog_path, cluster) {
                assert_eq!(session.n_shards(), n_shards, "{mode}");
                for (q, expect) in queries.iter().zip(&reference) {
                    assert_eq!(
                        &json(&session.query(q).unwrap()),
                        expect,
                        "{mode} query @ {cluster:?} × {n_shards} shards"
                    );
                }
            }
            // Fresh sessions for the batched path (cold caches again).
            for (mode, session) in session_matrix(&catalog_path, cluster) {
                let batched = session.query_many(&queries).unwrap();
                for (rels, expect) in batched.iter().zip(&reference) {
                    assert_eq!(
                        &json(rels),
                        expect,
                        "{mode} query_many @ {cluster:?} × {n_shards} shards"
                    );
                }
            }
        }
    }
}

/// The `thresholds` axis of the matrix: a clause that overrides feature
/// thresholds is the only reader of a stored scalar field, and since
/// store format 2 a lazy session fetches field blobs only for the data
/// sets such a clause names. In-memory, eager, lazy and sharded
/// {1, 2, 5} sessions at every worker count must still answer
/// with identical bytes — and with bytes that *differ* from the same
/// queries without the override, so a session that failed to fetch a
/// field and silently kept the precomputed features cannot pass.
#[test]
fn thresholds_clause_identical_across_every_session_kind() {
    let path = tmp_path("thresholds-matrix");
    let _cleanup = Cleanup(path.clone());
    let datasets = vec![
        spiky_dataset("alpha", 1.0, 100),
        spiky_dataset("beta", -2.0, 100),
        spiky_dataset("gamma", 0.5, 222),
    ];
    let dp = build_framework(&datasets, Cluster::local(1));
    Store::save(&path, dp.geometry(), dp.index().unwrap()).unwrap();

    let clause = Clause::default().permutations(40).include_insignificant();
    let on_alpha = clause.clone().with_thresholds("alpha", 5.0, 1.1);
    let on_both = on_alpha.clone().with_thresholds("gamma", 5.0, 0.6);
    let queries = vec![
        RelationshipQuery::between(&["alpha"], &["beta"]).with_clause(on_alpha.clone()),
        RelationshipQuery::all().with_clause(on_both),
        // A field-less query between two overrides: its pins must not
        // disturb (or be disturbed by) the entries cached with fields.
        RelationshipQuery::of("gamma").with_clause(clause.clone()),
        RelationshipQuery::of("gamma").with_clause(on_alpha),
    ];
    let reference: Vec<String> = queries
        .iter()
        .map(|q| json(&dp.query(q).unwrap()))
        .collect();
    let plain = RelationshipQuery::between(&["alpha"], &["beta"]).with_clause(clause);
    assert_ne!(
        reference[0],
        json(&dp.query(&plain).unwrap()),
        "the override must change the answer"
    );

    let mut stores = vec![path.clone()];
    let mut cleanups = Vec::new();
    for n_shards in [1usize, 2, 5] {
        let catalog_path = tmp_path(&format!("thresholds-matrix-{n_shards}"));
        cleanups.push(Cleanup(catalog_path.clone()));
        let catalog = shard_store(&path, &catalog_path, n_shards).unwrap();
        for i in 0..n_shards {
            cleanups.push(Cleanup(catalog.shard_path(&catalog_path, i)));
        }
        stores.push(catalog_path);
    }
    for store in &stores {
        for cluster in worker_matrix() {
            for (mode, session) in session_matrix(store, cluster) {
                for (q, expect) in queries.iter().zip(&reference) {
                    assert_eq!(
                        &json(&session.query(q).unwrap()),
                        expect,
                        "{mode} query @ {cluster:?} over {}",
                        store.display()
                    );
                }
            }
            for (mode, session) in session_matrix(store, cluster) {
                let batched = session.query_many(&queries).unwrap();
                for (rels, expect) in batched.iter().zip(&reference) {
                    assert_eq!(
                        &json(rels),
                        expect,
                        "{mode} query_many @ {cluster:?} over {}",
                        store.display()
                    );
                }
            }
        }
    }
}

/// Asserts that a trace speaks the metric catalogue's vocabulary: every
/// counter key and span name is in `names::ALL` or extends one of its
/// family prefixes — all but the trace-only `parse` span.
fn assert_catalogue_vocabulary(t: &trace::Trace, context: &str) {
    let catalogued = |name: &str| {
        (names::ALL.iter()).any(|&n| name == n || (n.ends_with('.') && name.starts_with(n)))
    };
    for (name, _) in &t.counters {
        assert!(
            catalogued(name),
            "trace counter `{name}` is not a catalogue name ({context})"
        );
    }
    for span in &t.spans {
        assert!(
            span.name == "parse" || catalogued(&span.name),
            "trace span `{}` is not a catalogue name ({context})",
            span.name
        );
    }
}

/// The tracing axis of the matrix: running the *same* queries inside a
/// `trace::record` scope must not change a byte of the result JSON, on
/// any worker count, eager or lazy, `query` or PQL. Tracing observes the
/// executor; it must never steer it (`docs/observability.md`). Every
/// trace on the way is spelled in the metric catalogue's names.
#[test]
fn traced_results_identical_to_untraced() {
    use polygamy_store::{execute_pql_query, execute_pql_query_traced};

    let path = tmp_path("traced");
    let _cleanup = Cleanup(path.clone());
    let datasets = vec![
        spiky_dataset("alpha", 1.0, 100),
        spiky_dataset("beta", -2.0, 100),
        spiky_dataset("gamma", 0.5, 222),
    ];
    let dp = build_framework(&datasets, Cluster::local(1));
    Store::save(&path, dp.geometry(), dp.index().unwrap()).unwrap();

    let queries = test_queries();
    let reference: Vec<String> = queries
        .iter()
        .map(|q| json(&dp.query(q).unwrap()))
        .collect();
    assert!(reference.iter().any(|j| j != "[]"));

    for cluster in worker_matrix() {
        for (mode, session) in session_matrix(&path, cluster) {
            for (q, expect) in queries.iter().zip(&reference) {
                let (rels, t) = trace::record(|| session.query(q).unwrap());
                assert_eq!(&json(&rels), expect, "traced {mode} query @ {cluster:?}");
                // The trace itself must have observed the run.
                assert!(
                    t.span_nanos(names::CORE_STAGE_EVALUATE_NS) > 0,
                    "traced {mode} run recorded no evaluate span @ {cluster:?}"
                );
                assert_catalogue_vocabulary(&t, &format!("{mode} @ {cluster:?}"));
            }
        }
    }

    // The PQL layer: the traced executor entry point returns the same
    // canonical JSON as the untraced one, trace attached out-of-band.
    let session = StoreSession::open_with(&path, Config::fast_test(), &LoadFilter::all()).unwrap();
    let pql = "between alpha and beta where permutations = 40 and include insignificant";
    let plain = execute_pql_query(&session, pql).unwrap();
    let traced = execute_pql_query_traced(&session, pql).unwrap();
    let t = traced
        .trace
        .as_ref()
        .expect("traced outcome carries its trace");
    assert!(
        t.spans.iter().any(|s| s.name == "parse"),
        "the PQL trace times compilation"
    );
    assert_catalogue_vocabulary(t, "PQL");
    assert_eq!(traced.to_json(), plain.to_json(), "trace changed the bytes");
    assert_eq!(traced.render_text(), plain.render_text());
}

/// A 3 × 2-neighbourhood city under two zip codes (the west four cells,
/// the east two).
fn spatial_geometry() -> CityGeometry {
    let cells: Vec<(u32, u32)> = (0..2).flat_map(|y| (0..3).map(move |x| (x, y))).collect();
    let polygons = cells
        .iter()
        .map(|&(x, y)| Polygon::rect(x as f64, y as f64, x as f64 + 1.0, y as f64 + 1.0))
        .collect();
    let adjacency = cells
        .iter()
        .map(|&(x, y)| {
            let east = (x + 1 < 3).then_some(y * 3 + x + 1);
            let north = (y + 1 < 2).then_some((y + 1) * 3 + x);
            east.into_iter().chain(north).collect()
        })
        .collect();
    let zips = vec![
        Polygon::rect(0.0, 0.0, 2.0, 2.0),
        Polygon::rect(2.0, 0.0, 3.0, 2.0),
    ];
    CityGeometry {
        neighborhood: Some(
            SpatialPartition::new(SpatialResolution::Neighborhood, polygons, adjacency).unwrap(),
        ),
        zip: Some(
            SpatialPartition::new(SpatialResolution::Zip, zips, vec![vec![1], vec![0]]).unwrap(),
        ),
        city: SpatialPartition::city(0.0, 0.0, 3.0, 2.0),
    }
}

/// An hourly GPS data set over `hours`: a trickle of records in every cell
/// and bursts, with a jump of the attribute, every 53 hours of `hours +
/// phase` in one cell — data sets of one phase burst together.
fn gps_dataset(name: &str, hours: std::ops::Range<i64>, phase: i64) -> Dataset {
    let meta = DatasetMeta {
        name: name.into(),
        spatial_resolution: SpatialResolution::Gps,
        temporal_resolution: TemporalResolution::Hour,
        description: String::new(),
    };
    let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("signal"));
    for h in hours {
        for cell in 0..6i64 {
            let burst = (h + phase) % 53 == 0 && (h + phase) / 53 % 6 == cell;
            let records = match burst {
                true => 9,
                false => 1 + i64::from((h * 7 + cell * 3 + phase) % 5 == 0),
            };
            let signal = (h % 24) as f64 * 0.1 + cell as f64 + if burst { 30.0 } else { 0.0 };
            for k in 0..records {
                let at = GeoPoint::new(
                    (cell % 3) as f64 + 0.1 + 0.08 * k as f64,
                    (cell / 3) as f64 + 0.5,
                );
                b.push(at, h * 3_600 + k * 60, &[signal + k as f64 * 0.01])
                    .expect("schema matches");
            }
        }
    }
    b.build().expect("dataset builds")
}

/// Three GPS data sets: `north` and `south` share a time range (their
/// windows are whole fields), `late` starts 37 hours after them — every
/// window with it is cropped, at hour 37 of 400: off a word boundary.
fn spatial_datasets() -> Vec<Dataset> {
    vec![
        gps_dataset("north", 0..400, 0),
        gps_dataset("late", 37..437, 0),
        gps_dataset("south", 0..400, 11),
    ]
}

fn build_spatial(cluster: Cluster) -> DataPolygamy {
    let mut dp = DataPolygamy::new(spatial_geometry(), Config { cluster });
    for d in spatial_datasets() {
        dp.add_dataset(d);
    }
    dp.build_index();
    dp
}

/// What one session is asked, in order: a pair with cropped windows, the
/// same again (a cache hit), `north` against a partner of its own range
/// (rows already memoised, another window), the remaining pair, and the
/// clauses that change what a spatial task does.
fn spatial_queries() -> Vec<RelationshipQuery> {
    let clause = Clause::default().permutations(30).include_insignificant();
    let pair = |a: &str, b: &str, c: &Clause| {
        RelationshipQuery::between(&[a], &[b]).with_clause(c.clone())
    };
    vec![
        pair("north", "late", &clause),
        pair("north", "late", &clause),
        pair("north", "south", &clause),
        pair("late", "south", &clause),
        pair(
            "north",
            "late",
            &clause
                .clone()
                .with_scheme(PermutationScheme::SpatioTemporal),
        ),
        pair(
            "late",
            "south",
            &clause.clone().class(FeatureClass::Extreme),
        ),
        pair("north", "late", &clause.clone().min_score(0.5)),
        pair(
            "north",
            "late",
            &clause.clone().with_thresholds("north", 5.0, 1.0),
        ),
        RelationshipQuery::all().with_clause(clause),
    ]
}

/// The spatial axis of the matrix: workers {1, 2, 3, host} × {in-memory,
/// eager, lazy, 3 shards} on a corpus whose unit tasks shift
/// region rows, with every session asked the whole query sequence — so
/// each answer after the first is computed over rows an earlier query
/// left on the entries.
#[test]
fn spatial_corpus_identical_across_every_session_kind() {
    let path = tmp_path("spatial-matrix");
    let catalog_path = tmp_path("spatial-matrix-sharded");
    let mut cleanups = vec![Cleanup(path.clone()), Cleanup(catalog_path.clone())];
    let queries = spatial_queries();
    // Every reference answer comes from a framework of its own: no rows
    // memoised, no query cached.
    let reference: Vec<String> = queries
        .iter()
        .map(|q| json(&build_spatial(Cluster::local(1)).query(q).unwrap()))
        .collect();
    let spatial = |j: &String| j.contains("\"Neighborhood\"") && j.contains("\"Zip\"");
    assert!(reference.iter().all(spatial), "every query must be spatial");
    assert_ne!(reference[0], reference[4], "the scheme must show");
    assert_ne!(reference[0], reference[7], "the override must show");

    let dp = build_spatial(Cluster::local(1));
    Store::save(&path, dp.geometry(), dp.index().unwrap()).unwrap();
    let catalog = shard_store(&path, &catalog_path, 3).unwrap();
    for i in 0..3 {
        cleanups.push(Cleanup(catalog.shard_path(&catalog_path, i)));
    }

    for cluster in worker_matrix() {
        let dp = build_spatial(cluster);
        for (q, expect) in queries.iter().zip(&reference) {
            assert_eq!(&json(&dp.query(q).unwrap()), expect, "query @ {cluster:?}");
        }
        let batched = build_spatial(cluster).query_many(&queries).unwrap();
        for (rels, expect) in batched.iter().zip(&reference) {
            assert_eq!(&json(rels), expect, "query_many @ {cluster:?}");
        }
        for store in [&path, &catalog_path] {
            for (mode, session) in session_matrix(store, cluster) {
                for (q, expect) in queries.iter().zip(&reference) {
                    assert_eq!(
                        &json(&session.query(q).unwrap()),
                        expect,
                        "{mode} query @ {cluster:?} over {}",
                        store.display()
                    );
                }
            }
            for (mode, session) in session_matrix(store, cluster) {
                let batched = session.query_many(&queries).unwrap();
                for (rels, expect) in batched.iter().zip(&reference) {
                    assert_eq!(
                        &json(rels),
                        expect,
                        "{mode} query_many @ {cluster:?} over {}",
                        store.display()
                    );
                }
            }
        }
    }
}

/// The Monte Carlo seed of one unit task, from its inputs (the framing
/// `core/src/operator.rs` pins in `seed_format_pinned`).
fn unit_seed(base: u64, e1: &FunctionEntry, e2: &FunctionEntry, class: FeatureClass) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(base);
    for name in [
        &e1.spec.dataset,
        &e1.spec.name,
        &e2.spec.dataset,
        &e2.spec.name,
    ] {
        h.write_str(name);
    }
    h.write_u8(e1.resolution.spatial.code());
    h.write_u8(e1.resolution.temporal.code());
    h.write_u8(match class {
        FeatureClass::Salient => 1,
        FeatureClass::Extreme => 2,
    });
    h.finish()
}

/// The executor-level oracle on a spatial domain: every relationship of a
/// whole query re-derived pair by pair with nothing shared — the window
/// sliced off the time-major features, intersected, and tested by
/// `significance_test` (which transposes its two arguments itself) — and
/// compared bit for bit, for both permutation schemes. On the way it
/// counts what the executor may build: one transpose per spatial (entry,
/// class) that reaches a test, however many queries and windows use it.
#[test]
fn spatial_query_matches_the_naive_path_pair_by_pair() {
    let dp = build_spatial(Cluster::local(3));
    let index = dp.index().unwrap();
    let mc = MonteCarlo {
        permutations: 30,
        ..MonteCarlo::default()
    };
    let mut rows_built = 0;
    let mut tested: BTreeSet<(usize, bool)> = BTreeSet::new();
    for scheme in [PermutationScheme::Paper, PermutationScheme::SpatioTemporal] {
        let clause = Clause::default()
            .permutations(mc.permutations)
            .include_insignificant()
            .with_scheme(scheme);
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            let names = [&index.datasets[a].meta.name, &index.datasets[b].meta.name];
            let query =
                RelationshipQuery::between(&[names[0]], &[names[1]]).with_clause(clause.clone());
            let (got, t) = trace::record(|| dp.query(&query).unwrap());
            rows_built += t.counter(names::CORE_OPERAND_ROWS_BUILT);
            assert_eq!(
                t.counter(names::CORE_DISPATCHES_INLINE)
                    + t.counter(names::CORE_DISPATCHES_PARALLEL),
                1,
                "one dispatch per evaluated query"
            );

            let mut expected = Vec::new();
            for e1 in index.functions_of(a) {
                for e2 in index.functions_of(b) {
                    let Some((start, len)) = e1.overlap(e2) else {
                        continue;
                    };
                    let (lo1, hi1) = e1.vertex_range(start, len);
                    let (lo2, hi2) = e2.vertex_range(start, len);
                    let adjacency = dp.geometry().adjacency(e1.resolution.spatial).unwrap();
                    for class in FeatureClass::ALL {
                        let f1 = e1.features.class(class).slice(lo1, hi1);
                        let f2 = e2.features.class(class).slice(lo2, hi2);
                        let measures = evaluate_features(&f1, &f2);
                        if measures.related_count() == 0 {
                            continue;
                        }
                        if e1.n_regions > 1 {
                            for e in [e1, e2] {
                                tested.insert((
                                    std::ptr::from_ref(e) as usize,
                                    class == FeatureClass::Salient,
                                ));
                            }
                        }
                        let seed = unit_seed(0xDA7A_9A17, e1, e2, class);
                        let p = significance_test(
                            &f1,
                            &f2,
                            adjacency,
                            len,
                            measures.score,
                            &mc,
                            scheme,
                            seed,
                        );
                        expected.push((
                            (e1.spec.to_string(), e2.spec.to_string()),
                            (e1.resolution, class),
                            [measures.score, measures.strength, p].map(f64::to_bits),
                        ));
                    }
                }
            }
            assert!(
                expected
                    .iter()
                    .any(|(_, (r, _), _)| r.spatial != SpatialResolution::City),
                "{names:?} must relate somewhere spatial"
            );
            let mut got: Vec<_> = got
                .iter()
                .map(|r| {
                    (
                        (r.left.to_string(), r.right.to_string()),
                        (r.resolution, r.class),
                        [r.score(), r.strength(), r.p_value].map(f64::to_bits),
                    )
                })
                .collect();
            let key = |x: &((String, String), (Resolution, FeatureClass), [u64; 3])| {
                (x.0.clone(), x.1 .0.label(), x.1 .1.label())
            };
            got.sort_by_key(key);
            expected.sort_by_key(key);
            assert_eq!(got, expected, "{names:?} under {scheme:?}");
        }
    }
    // Six queries, three windows per data set, two schemes — and one
    // transpose per (entry, class) that ever reached a test.
    assert!(tested.len() >= 12, "{} spatial operands", tested.len());
    assert_eq!(rows_built, tested.len() as u64);

    // Asked again, nothing is evaluated.
    let clause = Clause::default()
        .permutations(30)
        .include_insignificant()
        .with_scheme(PermutationScheme::Paper);
    let again = RelationshipQuery::between(&["north"], &["late"]).with_clause(clause.clone());
    let (_, t) = trace::record(|| dp.query(&again).unwrap());
    assert_eq!(t.counter(names::CORE_QUERY_CACHE_HITS), 1);
    assert_eq!(t.counter(names::CORE_OPERAND_ROWS_BUILT), 0);
    assert_eq!(
        t.counter(names::CORE_DISPATCHES_INLINE) + t.counter(names::CORE_DISPATCHES_PARALLEL),
        0
    );
    // Under a thresholds override the named data set's rows are the
    // clause's: built for the dispatch and gone with it, so every dispatch
    // builds them again (the first may also fill rows of `late` that no
    // query above needed).
    let built_under_override = |permutations: usize| {
        let clause = clause
            .clone()
            .permutations(permutations)
            .with_thresholds("north", 5.0, 1.0);
        let query = RelationshipQuery::between(&["north"], &["late"]).with_clause(clause);
        let (rels, t) = trace::record(|| dp.query(&query).unwrap());
        assert!(!rels.is_empty());
        t.counter(names::CORE_OPERAND_ROWS_BUILT)
    };
    built_under_override(30);
    let built = built_under_override(31);
    assert!(built > 0, "the override's rows are transposed");
    assert_eq!(built_under_override(32), built);
}

/// A data set native at `(spatial, temporal)` over the first twenty weeks
/// of the epoch: one record per bucket in each cell of the spatial
/// geometry (one cell for a city-level data set), a burst of five and a
/// jump of the attribute every eleventh bucket of `bucket + phase`.
fn native_dataset(
    name: &str,
    spatial: SpatialResolution,
    temporal: TemporalResolution,
    phase: i64,
) -> Dataset {
    let meta = DatasetMeta {
        name: name.into(),
        spatial_resolution: spatial,
        temporal_resolution: temporal,
        description: String::new(),
    };
    let step_hours = match temporal {
        TemporalResolution::Hour => 2,
        TemporalResolution::Day => 24,
        TemporalResolution::Week => 168,
        TemporalResolution::Month => 30 * 24,
    };
    let cells = if spatial == SpatialResolution::City {
        1
    } else {
        6
    };
    let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("signal"));
    for (bucket, h) in (0..20 * 168).step_by(step_hours).enumerate() {
        let bucket = bucket as i64 + phase;
        for cell in 0..cells {
            let burst = bucket % 11 == 0 && bucket / 11 % cells == cell;
            let at = GeoPoint::new((cell % 3) as f64 + 0.5, (cell / 3) as f64 + 0.5);
            for k in 0..if burst { 5 } else { 1 } {
                let signal = (bucket % 7) as f64 * 0.2 + if burst { 25.0 } else { 0.0 };
                b.push(at, h as i64 * 3_600 + k * 60, &[signal + k as f64 * 0.01])
                    .expect("schema matches");
            }
        }
    }
    b.build().expect("dataset builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random layered corpora — three data sets of random native
    /// resolutions, so random sets of resolutions each pair shares (some
    /// none at all) — asked random collections (`*`, lists, repeated
    /// names, a data set against itself) under random clauses: a lazy
    /// session, which reads per pair only the resolutions both sides have,
    /// answers with the bytes of the eager session and of the in-memory
    /// framework, which see every entry, at one worker and at three.
    #[test]
    fn random_native_resolutions_answer_identically_lazy_eager_and_in_memory(
        natives in prop::collection::vec(0usize..16, 3),
        lefts in prop::collection::vec(prop::collection::vec(0usize..3, 0..4), 4),
        rights in prop::collection::vec(prop::collection::vec(0usize..3, 0..4), 4),
        kinds in prop::collection::vec(0usize..5, 4),
        picks in prop::collection::vec(0usize..12, 4),
    ) {
        let spatials = [
            SpatialResolution::Gps,
            SpatialResolution::Zip,
            SpatialResolution::Neighborhood,
            SpatialResolution::City,
        ];
        let temporals = TemporalResolution::ALL;
        let name = |i: usize| format!("d{i}");
        let mut dp = DataPolygamy::new(spatial_geometry(), Config { cluster: Cluster::local(1) });
        for (i, &n) in natives.iter().enumerate() {
            let (spatial, temporal) = (spatials[n / 4], temporals[n % 4]);
            dp.add_dataset(native_dataset(&name(i), spatial, temporal, 3 * i as i64));
        }
        dp.build_index();
        let path = tmp_path(&format!("prop-native-{}-{}-{}", natives[0], natives[1], natives[2]));
        let _cleanup = Cleanup(path.clone());
        Store::save(&path, dp.geometry(), dp.index().unwrap()).unwrap();

        let base = Clause::default().permutations(20).include_insignificant();
        let queries: Vec<RelationshipQuery> = (0..4)
            .map(|i| {
                // An empty pick is `*`; a list may repeat a name.
                let collection = |picks: &Vec<usize>| {
                    (!picks.is_empty()).then(|| picks.iter().map(|&i| name(i)).collect())
                };
                // Resolutions a clause can name: the evaluable ones.
                let picked = Resolution::new(spatials[1 + picks[i] / 4], temporals[picks[i] % 4]);
                let clause = match kinds[i] {
                    0 => base.clone(),
                    1 => base.clone().at_resolution(picked),
                    2 => base.clone().at_resolution(picked).at_resolution(Resolution::new(
                        SpatialResolution::City,
                        TemporalResolution::Week,
                    )),
                    3 => base.clone().class(FeatureClass::Extreme),
                    _ => base.clone().with_thresholds("d0", 5.0, 1.0),
                };
                RelationshipQuery {
                    left: collection(&lefts[i]),
                    right: collection(&rights[i]),
                    clause,
                }
            })
            .collect();
        let reference: Vec<String> = queries
            .iter()
            .map(|q| json(&dp.query(q).unwrap()))
            .collect();
        for cluster in [Cluster::local(1), Cluster::local(3)] {
            for (mode, session) in session_matrix(&path, cluster) {
                for (q, expect) in queries.iter().zip(&reference) {
                    let answer = json(&session.query(q).unwrap());
                    prop_assert!(&answer == expect, "{} @ {:?}: {:?}", mode, cluster, q);
                }
            }
            for (mode, session) in session_matrix(&path, cluster) {
                let batched = session.query_many(&queries).unwrap();
                for (rels, expect) in batched.iter().zip(&reference) {
                    prop_assert!(&json(rels) == expect, "{} query_many @ {:?}", mode, cluster);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random small corpora: for arbitrary data set collections, query and
    /// query_many results are identical at 1, 2 and host workers, in
    /// memory and through a store session.
    #[test]
    fn random_corpora_are_worker_count_invariant(
        bumps in prop::collection::vec(10i64..350, 2..5)
    ) {
        let datasets: Vec<Dataset> = bumps
            .iter()
            .enumerate()
            .map(|(i, &bump)| spiky_dataset(&format!("d{i}"), (bump % 4) as f64 - 1.5, bump))
            .collect();
        let clause = Clause::default().permutations(30).include_insignificant();
        let query = RelationshipQuery::all().with_clause(clause);

        let reference = {
            let dp = build_framework(&datasets, Cluster::local(1));
            json(&dp.query(&query).unwrap())
        };
        for cluster in worker_matrix() {
            let dp = build_framework(&datasets, cluster);
            prop_assert_eq!(&json(&dp.query(&query).unwrap()), &reference);
            let batched = dp.query_many(std::slice::from_ref(&query)).unwrap();
            prop_assert_eq!(&json(&batched[0]), &reference);
        }

        // And through the persistent store.
        let path = tmp_path(&format!("prop-{}", bumps.len()));
        let _cleanup = Cleanup(path.clone());
        let dp = build_framework(&datasets, Cluster::local(1));
        Store::save(&path, dp.geometry(), dp.index().unwrap()).unwrap();
        for cluster in worker_matrix() {
            for (_mode, session) in session_matrix(&path, cluster) {
                prop_assert_eq!(&json(&session.query(&query).unwrap()), &reference);
            }
        }

        // And sharded: the same random corpus split over 3 shard files
        // still answers with the reference bytes in every mode.
        let catalog_path = tmp_path(&format!("prop-shard-{}", bumps.len()));
        let catalog = shard_store(&path, &catalog_path, 3).unwrap();
        let mut cleanups = vec![Cleanup(catalog_path.clone())];
        for i in 0..3 {
            cleanups.push(Cleanup(catalog.shard_path(&catalog_path, i)));
        }
        for cluster in worker_matrix() {
            for (_mode, session) in session_matrix(&catalog_path, cluster) {
                prop_assert_eq!(&json(&session.query(&query).unwrap()), &reference);
            }
        }
    }
}
