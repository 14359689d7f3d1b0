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

use polygamy_core::prelude::*;
use polygamy_core::DataPolygamy;
use polygamy_mapreduce::Cluster;
use polygamy_store::{shard_store, LoadFilter, SourceBackend, Store, StoreSession};
use proptest::prelude::*;
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

fn config_with(cluster: Cluster) -> Config {
    Config {
        cluster,
        ..Config::fast_test()
    }
}

/// The worker-count matrix every result must be invariant over.
fn worker_matrix() -> Vec<Cluster> {
    vec![Cluster::local(1), Cluster::local(2), Cluster::host()]
}

/// The read-mode axis: every store-session result must also be invariant
/// over eager vs lazy materialization (and the lazy I/O backends).
fn session_matrix(path: &std::path::Path, cluster: Cluster) -> Vec<(&'static str, StoreSession)> {
    vec![
        (
            "eager",
            StoreSession::open_with(path, config_with(cluster), &LoadFilter::all()).unwrap(),
        ),
        (
            "lazy",
            StoreSession::open_lazy_with(
                path,
                config_with(cluster),
                &LoadFilter::all(),
                SourceBackend::PositionedRead,
            )
            .unwrap(),
        ),
        (
            "lazy-mmap",
            StoreSession::open_lazy_with(
                path,
                config_with(cluster),
                &LoadFilter::all(),
                SourceBackend::Mmap,
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
        config_with(cluster),
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
    serde_json::to_string(rels).expect("relationships serialize")
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
/// × {eager, lazy, lazy-mmap} × {query, query_many}, every cell
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
/// sets such a clause names. In-memory, eager, lazy (positioned and mmap)
/// and sharded {1, 2, 5} sessions at every worker count must still answer
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

/// The tracing axis of the matrix: running the *same* queries inside a
/// `trace::record` scope must not change a byte of the result JSON, on
/// any worker count, eager or lazy, `query` or PQL. Tracing observes the
/// executor; it must never steer it (`docs/observability.md`).
#[test]
fn traced_results_identical_to_untraced() {
    use polygamy_obs::trace;
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
                    t.span_nanos("evaluate") > 0,
                    "traced {mode} run recorded no evaluate span @ {cluster:?}"
                );
            }
        }
    }

    // The PQL layer: the traced executor entry point returns the same
    // canonical JSON as the untraced one, trace attached out-of-band.
    let session =
        StoreSession::open_with(&path, config_with(Cluster::local(2)), &LoadFilter::all()).unwrap();
    let pql = "between alpha and beta where permutations = 40 and include insignificant";
    let plain = execute_pql_query(&session, pql).unwrap();
    let traced = execute_pql_query_traced(&session, pql).unwrap();
    assert!(traced.trace.is_some(), "traced outcome carries its trace");
    assert_eq!(traced.to_json(), plain.to_json(), "trace changed the bytes");
    assert_eq!(traced.render_text(), plain.render_text());
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
