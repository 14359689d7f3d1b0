//! End-to-end store invariants (the PR's acceptance criteria):
//!
//! * save → load → `StoreSession::query` returns results identical to the
//!   in-memory `DataPolygamy::query` for the same corpus and clause;
//! * incremental upsert of one data set into an existing store matches a
//!   from-scratch rebuild of the same corpus;
//! * selective loading materializes only the requested segments;
//! * corrupted/truncated/mis-versioned files yield typed errors;
//! * one session serves concurrent readers;
//! * the whole-store passes, which run per segment on a worker pool, are
//!   worker-independent at the API: an upsert writes the same bytes at any
//!   worker count, and a corrupt store fails with the first failing
//!   segment in directory order.

use polygamy_core::index::{DatasetEntry, FunctionEntry, PolygamyIndex};
use polygamy_core::prelude::*;
use polygamy_core::DataPolygamy;
use polygamy_mapreduce::Cluster;
use polygamy_store::codec::encode_field;
use polygamy_store::{LoadFilter, SourceBackend, Store, StoreError, StoreSession};
use std::path::PathBuf;

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "polygamy-store-test-{}-{tag}.plst",
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

fn spiky_dataset(name: &str, level: f64, bump_at: i64) -> Dataset {
    let meta = DatasetMeta {
        name: name.into(),
        spatial_resolution: SpatialResolution::City,
        temporal_resolution: TemporalResolution::Hour,
        description: format!("store-test data set {name}"),
    };
    let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("signal"));
    for h in 0..600i64 {
        let v = if h == bump_at || h == bump_at + 137 {
            40.0
        } else {
            level + (h % 24) as f64 * 0.05
        };
        b.push(GeoPoint::new(0.5, 0.5), h * 3_600, &[v])
            .expect("schema matches");
    }
    b.build().expect("dataset builds")
}

fn corpus() -> Vec<Dataset> {
    vec![
        spiky_dataset("alpha", 1.0, 100),
        spiky_dataset("beta", -2.0, 100),
        spiky_dataset("gamma", 0.5, 333),
    ]
}

fn build_framework(datasets: &[Dataset]) -> DataPolygamy {
    let mut dp = DataPolygamy::new(
        CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
        Config::fast_test(),
    );
    for d in datasets {
        dp.add_dataset(d.clone());
    }
    dp.build_index();
    dp
}

/// The eager materialization of the store at `path` — what every eager
/// session holds.
fn load(path: &PathBuf) -> Result<PolygamyIndex, StoreError> {
    let session = StoreSession::open_with(path, Config::fast_test(), &LoadFilter::all())?;
    Ok(session.index().expect("eager session").clone())
}

fn load_all(path: &PathBuf) -> PolygamyIndex {
    load(path).unwrap()
}

/// An index as a store holds it: the catalog, and every function as its
/// hot-only entry — compared whole with `==` — beside its field blob's
/// bytes, for equality that is exact on the fields' NaNs, which `==` on
/// the values is not.
type Encoded = (Vec<DatasetEntry>, Vec<(FunctionEntry, Option<Vec<u8>>)>);

fn encoded(index: &PolygamyIndex) -> Encoded {
    let functions = index
        .functions
        .iter()
        .map(|f| {
            let field = f.field.as_ref().map(|field| encode_field(&field.values));
            let hot_only = FunctionEntry {
                field: None,
                ..f.clone()
            };
            (hot_only, field)
        })
        .collect();
    (index.datasets.clone(), functions)
}

/// What the store at `path` holds, in the same form: the entries as an
/// eager session materializes them — its `index()` is hot-only, an eager
/// open leaves the scalar fields encoded — and the field blobs as the
/// manifest locates them in the file.
fn stored(path: &PathBuf) -> Encoded {
    let index = load_all(path);
    assert!(index.functions.iter().all(|f| f.field.is_none()));
    let store = Store::open(path).unwrap();
    let segments = &store.manifest().segments;
    assert_eq!(segments.len(), index.functions.len());
    let functions = (index.functions.into_iter().zip(segments))
        .map(|(f, info)| {
            assert_eq!(f.dataset_index, info.dataset_index);
            let field = (info.field).map(|loc| store.source().read(loc, "field blob").unwrap());
            (f, field)
        })
        .collect();
    (index.datasets, functions)
}

fn test_clause() -> Clause {
    Clause::default().permutations(40).include_insignificant()
}

#[test]
fn session_query_matches_in_memory_framework() {
    let path = tmp_path("roundtrip");
    let _cleanup = Cleanup(path.clone());
    let dp = build_framework(&corpus());
    Store::save(&path, dp.geometry(), dp.index().unwrap()).unwrap();

    let session = StoreSession::open_with(&path, Config::fast_test(), &LoadFilter::all()).unwrap();
    // What the store holds is byte-for-byte the index that was saved.
    assert_eq!(stored(&path), encoded(dp.index().unwrap()));
    // And every query form answers identically.
    for query in [
        RelationshipQuery::all().with_clause(test_clause()),
        RelationshipQuery::of("alpha").with_clause(test_clause()),
        RelationshipQuery::between(&["beta"], &["gamma"]).with_clause(test_clause()),
    ] {
        let from_store = session.query(&query).unwrap();
        let in_memory = dp.query(&query).unwrap();
        assert_eq!(from_store, in_memory);
        assert!(!from_store.is_empty() || query.left.is_some());
    }
    assert!(session.cache_len() > 0, "results were cached");
}

#[test]
fn incremental_upsert_matches_scratch_rebuild() {
    let incremental = tmp_path("upsert-inc");
    let scratch = tmp_path("upsert-scratch");
    let _c1 = Cleanup(incremental.clone());
    let _c2 = Cleanup(scratch.clone());
    let datasets = corpus();
    let config = Config::fast_test();

    // Store over {alpha, beta}, then upsert gamma incrementally.
    let two = build_framework(&datasets[..2]);
    Store::save(&incremental, two.geometry(), two.index().unwrap()).unwrap();
    Store::upsert_dataset(&incremental, &datasets[2], &config).unwrap();

    // From-scratch store over {alpha, beta, gamma}.
    let three = build_framework(&datasets);
    Store::save(&scratch, three.geometry(), three.index().unwrap()).unwrap();

    // A store's layout is a pure function of its inputs: the two files
    // are the same bytes.
    assert!(std::fs::read(&incremental).unwrap() == std::fs::read(&scratch).unwrap());

    // Queries agree too (and with the in-memory framework).
    let q = RelationshipQuery::all().with_clause(test_clause());
    let inc_session = StoreSession::open_with(&incremental, config, &LoadFilter::all()).unwrap();
    assert_eq!(inc_session.query(&q).unwrap(), three.query(&q).unwrap());
}

#[test]
fn upsert_of_an_empty_dataset_catalogs_it_with_no_segments() {
    // `DatasetBuilder::build` accepts zero records; indexing one used to
    // panic in the scalar job.
    let path = tmp_path("upsert-empty");
    let _cleanup = Cleanup(path.clone());
    let config = Config::fast_test();
    let dp = build_framework(&corpus());
    Store::save(&path, dp.geometry(), dp.index().unwrap()).unwrap();
    let meta = DatasetMeta {
        name: "empty".into(),
        spatial_resolution: SpatialResolution::City,
        temporal_resolution: TemporalResolution::Hour,
        description: String::new(),
    };
    let empty = DatasetBuilder::new(meta)
        .attribute(AttributeMeta::named("signal"))
        .build()
        .unwrap();
    let store = Store::upsert_dataset(&path, &empty, &config).unwrap();
    let manifest = store.manifest();
    let di = manifest.dataset_index("empty").unwrap();
    assert_eq!(manifest.datasets[di].n_records, 0);
    assert!(manifest.segments.iter().all(|s| s.dataset_index != di));

    let q = RelationshipQuery::between(&["empty"], &["alpha"]).with_clause(test_clause());
    let eager = StoreSession::open_with(&path, config, &LoadFilter::all()).unwrap();
    assert_eq!(eager.query(&q).unwrap(), []);
    let lazy = StoreSession::open_lazy(&path).unwrap();
    assert_eq!(lazy.query(&q).unwrap(), []);
    let n_segments = lazy.lazy_index().unwrap().verify_all().unwrap();
    assert_eq!(n_segments, manifest.segments.len());
    // The rest of the corpus answers as before.
    let rest = RelationshipQuery::all().with_clause(test_clause());
    assert_eq!(eager.query(&rest).unwrap(), dp.query(&rest).unwrap());
}

#[test]
fn upsert_replaces_existing_dataset() {
    let path = tmp_path("upsert-replace");
    let scratch = tmp_path("upsert-replace-scratch");
    let _c1 = Cleanup(path.clone());
    let _c2 = Cleanup(scratch.clone());
    let config = Config::fast_test();
    let datasets = corpus();
    let dp = build_framework(&datasets);
    Store::save(&path, dp.geometry(), dp.index().unwrap()).unwrap();

    // Replace beta with a reshaped version, in place.
    let beta2 = spiky_dataset("beta", 3.0, 200);
    Store::upsert_dataset(&path, &beta2, &config).unwrap();

    let replaced = vec![datasets[0].clone(), beta2, datasets[2].clone()];
    let expect = build_framework(&replaced);
    Store::save(&scratch, expect.geometry(), expect.index().unwrap()).unwrap();
    assert!(std::fs::read(&path).unwrap() == std::fs::read(&scratch).unwrap());
}

#[test]
fn remove_dataset_matches_scratch_rebuild() {
    let path = tmp_path("remove");
    let _cleanup = Cleanup(path.clone());
    let datasets = corpus();
    let dp = build_framework(&datasets);
    Store::save(&path, dp.geometry(), dp.index().unwrap()).unwrap();
    let store = Store::remove_dataset(&path, "beta").unwrap();
    assert_eq!(store.manifest().datasets.len(), 2);

    let kept = vec![datasets[0].clone(), datasets[2].clone()];
    let expect = build_framework(&kept);
    assert_eq!(stored(&path), encoded(expect.index().unwrap()));
    // Removing a data set not in the catalog is a typed error.
    assert!(matches!(
        Store::remove_dataset(&path, "beta"),
        Err(StoreError::UnknownDataset(_))
    ));
}

#[test]
fn corruption_yields_typed_errors() {
    let path = tmp_path("corruption");
    let _cleanup = Cleanup(path.clone());
    let dp = build_framework(&corpus()[..2]);
    Store::save(&path, dp.geometry(), dp.index().unwrap()).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let store = Store::open(&path).unwrap();
    let first_segment = store.manifest().segments[0].loc;

    // Truncated inside the manifest tail: open() fails with Truncated.
    std::fs::write(&path, &pristine[..pristine.len() - 10]).unwrap();
    assert!(matches!(
        Store::open(&path),
        Err(StoreError::Truncated { .. })
    ));

    // Truncated to a partial header.
    std::fs::write(&path, &pristine[..20]).unwrap();
    assert!(matches!(
        Store::open(&path),
        Err(StoreError::Truncated { .. })
    ));

    // A flipped byte inside a segment payload: open() succeeds (manifest is
    // intact), loading that segment reports a checksum mismatch.
    let mut flipped = pristine.clone();
    flipped[first_segment.offset as usize + 3] ^= 0x40;
    std::fs::write(&path, &flipped).unwrap();
    Store::open(&path).unwrap();
    assert!(matches!(
        load(&path),
        Err(StoreError::ChecksumMismatch { .. })
    ));
    // Maintenance refuses to copy the corruption forward: removing beta
    // would copy alpha's (corrupted) segments verbatim, so it must fail.
    assert!(matches!(
        Store::remove_dataset(&path, "beta"),
        Err(StoreError::ChecksumMismatch { .. })
    ));

    // A flipped byte in the stored manifest checksum field of the header.
    let mut bad_sum = pristine.clone();
    bad_sum[32] ^= 0xFF; // header bytes 32..40 = manifest checksum
    std::fs::write(&path, &bad_sum).unwrap();
    assert!(matches!(
        Store::open(&path),
        Err(StoreError::ChecksumMismatch { .. })
    ));

    // Wrong version.
    let mut bad_version = pristine.clone();
    bad_version[8] = 0x7F;
    std::fs::write(&path, &bad_version).unwrap();
    assert!(matches!(
        Store::open(&path),
        Err(StoreError::UnsupportedVersion {
            found: 0x7F,
            supported: 9
        })
    ));

    // Wrong magic.
    let mut bad_magic = pristine.clone();
    bad_magic[0] = b'X';
    std::fs::write(&path, &bad_magic).unwrap();
    assert!(matches!(Store::open(&path), Err(StoreError::BadMagic)));

    // And the pristine bytes still load fine (the tests above really were
    // exercising the corruption, not some unrelated breakage).
    std::fs::write(&path, &pristine).unwrap();
    load_all(&path);
}

#[test]
fn session_query_many_matches_single_queries() {
    let path = tmp_path("query-many");
    let _cleanup = Cleanup(path.clone());
    let dp = build_framework(&corpus());
    Store::save(&path, dp.geometry(), dp.index().unwrap()).unwrap();
    let queries = vec![
        RelationshipQuery::between(&["alpha"], &["beta"]).with_clause(test_clause()),
        RelationshipQuery::all().with_clause(test_clause()),
        RelationshipQuery::of("gamma").with_clause(test_clause()),
    ];

    let batch_session =
        StoreSession::open_with(&path, Config::fast_test(), &LoadFilter::all()).unwrap();
    let batched = batch_session.query_many(&queries).unwrap();
    assert_eq!(batched.len(), queries.len());
    // The batch evaluated each canonical pair exactly once.
    assert_eq!(batch_session.cache_len(), 3);

    let single_session =
        StoreSession::open_with(&path, Config::fast_test(), &LoadFilter::all()).unwrap();
    for (q, batch_result) in queries.iter().zip(&batched) {
        assert_eq!(batch_result, &single_session.query(q).unwrap());
    }

    // One query naming a data set outside the catalog fails the whole
    // batch with the executor's typed error, never a silently empty result.
    let mut with_unknown = queries.clone();
    with_unknown.push(RelationshipQuery::between(&["alpha"], &["nope"]).with_clause(test_clause()));
    assert!(matches!(
        batch_session.query_many(&with_unknown),
        Err(StoreError::Query(polygamy_core::Error::UnknownDataset(name))) if name == "nope"
    ));
}

#[test]
fn geometry_missing_an_indexed_resolution_is_a_typed_error() {
    use polygamy_core::function::FunctionSpec;
    use polygamy_topology::{FeatureSet, FeatureSets};

    let path = tmp_path("missing-geometry");
    let _cleanup = Cleanup(path.clone());
    // A store whose segments sit at zip resolution while its geometry blob
    // only carries the city partition (Store::save trusts its caller, so a
    // mismatched pair of artifacts can reach disk).
    let entry = |di: usize, name: &str| {
        let (n_regions, n_steps) = (2usize, 4usize);
        FunctionEntry {
            spec: FunctionSpec::density(name),
            dataset_index: di,
            resolution: Resolution::new(SpatialResolution::Zip, TemporalResolution::Hour),
            n_regions,
            start_bucket: 0,
            n_steps,
            features: FeatureSets {
                salient: FeatureSet::empty(n_regions * n_steps),
                extreme: FeatureSet::empty(n_regions * n_steps),
            },
            field: None,
        }
    };
    let catalog = |name: &str| DatasetEntry {
        meta: DatasetMeta {
            name: name.into(),
            spatial_resolution: SpatialResolution::Zip,
            temporal_resolution: TemporalResolution::Hour,
            description: String::new(),
        },
        n_records: 4,
        raw_bytes: 64,
        n_specs: 1,
    };
    let index = PolygamyIndex {
        datasets: vec![catalog("a"), catalog("b")],
        functions: vec![entry(0, "a"), entry(1, "b")],
    };
    Store::save(&path, &CityGeometry::city_only(0.0, 0.0, 1.0, 1.0), &index).unwrap();

    let session = StoreSession::open_with(&path, Config::fast_test(), &LoadFilter::all()).unwrap();
    let err = session
        .query(&RelationshipQuery::all().with_clause(test_clause()))
        .unwrap_err();
    assert!(matches!(
        err,
        StoreError::Query(polygamy_core::Error::MissingGeometry(
            SpatialResolution::Zip
        ))
    ));
    assert!(err.to_string().contains("zip"), "{err}");
}

#[test]
fn one_session_serves_concurrent_readers() {
    let path = tmp_path("concurrent");
    let _cleanup = Cleanup(path.clone());
    let dp = build_framework(&corpus());
    Store::save(&path, dp.geometry(), dp.index().unwrap()).unwrap();
    let session = StoreSession::open_with(&path, Config::fast_test(), &LoadFilter::all()).unwrap();
    let expected = dp
        .query(&RelationshipQuery::all().with_clause(test_clause()))
        .unwrap();

    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..3 {
                    let got = session
                        .query(&RelationshipQuery::all().with_clause(test_clause()))
                        .unwrap();
                    assert_eq!(got, expected);
                }
            });
        }
    });
    // All threads hit the same pair/clause keys: the cache stays bounded
    // and small.
    assert!(session.cache_len() >= 1);
}

/// A city-level hourly data set of `hours` records whose attribute is a
/// real-valued noise series: its `avg` fields stay literal words in the
/// field codec, eight bytes a value, so a few of these make a store whose
/// whole-store passes are estimated well over the pool's inline floor.
fn dense_dataset(name: &str, hours: i64) -> Dataset {
    let meta = DatasetMeta {
        name: name.into(),
        spatial_resolution: SpatialResolution::City,
        temporal_resolution: TemporalResolution::Hour,
        description: String::new(),
    };
    let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("signal"));
    let mut state = name.bytes().fold(0x9E37_79B9_7F4A_7C15u64, |h, c| {
        (h ^ u64::from(c)).wrapping_mul(0x100_0000_01B3)
    });
    for h in 0..hours {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let v = (state >> 11) as f64 / (1u64 << 53) as f64 + (h % 24) as f64 * 0.1;
        b.push(GeoPoint::new(0.5, 0.5), h * 3_600, &[v])
            .expect("schema matches");
    }
    b.build().expect("dataset builds")
}

/// Six dense data sets: ≈ 1.6 MB of blobs, 8 segments and ≈ 63,000
/// domain vertices each.
fn dense_corpus() -> Vec<Dataset> {
    (0..6)
        .map(|i| dense_dataset(&format!("dense-{i}"), 30_000))
        .collect()
}

fn on(workers: usize) -> Config {
    Config {
        cluster: Cluster::local(workers),
    }
}

#[test]
fn upsert_writes_the_same_bytes_at_any_worker_count() {
    let datasets = dense_corpus();
    let (base, fresh) = datasets.split_at(datasets.len() - 1);
    let before = build_framework(base);
    let after = build_framework(&datasets);
    let scratch = tmp_path("upsert-workers-scratch");
    let _cleanup = Cleanup(scratch.clone());
    let store = Store::save(&scratch, after.geometry(), after.index().unwrap()).unwrap();
    // Both passes of the upsert are big enough to leave the caller: the
    // retained copy reads ≈ 1.3 MB, the fresh data set encodes ≈ 63,000
    // values — each estimated above the pool's 0.28 ms inline floor.
    let blob_bytes: u64 = (store.manifest().segments.iter())
        .map(|s| s.loc.len + s.field.map_or(0, |f| f.len))
        .sum();
    assert!(blob_bytes > 1_500_000, "{blob_bytes} B of blobs");
    let fresh_values: usize = (after.index().unwrap().functions.iter())
        .filter(|f| f.dataset_index == base.len())
        .map(|f| f.n_regions * f.n_steps)
        .sum();
    assert!(fresh_values > 60_000, "{fresh_values} values to encode");
    let expected = std::fs::read(&scratch).unwrap();
    for workers in [1, 4] {
        let path = tmp_path(&format!("upsert-workers-{workers}"));
        let _cleanup = Cleanup(path.clone());
        Store::save(&path, before.geometry(), before.index().unwrap()).unwrap();
        Store::upsert_dataset(&path, &fresh[0], &on(workers)).unwrap();
        assert!(
            std::fs::read(&path).unwrap() == expected,
            "upsert at {workers} worker(s) differs from a fresh save"
        );
    }
}

/// How errors name a segment: `segment <data set>.<function>`.
fn label(store: &Store, segment: usize) -> String {
    let manifest = store.manifest();
    let info = &manifest.segments[segment];
    let dataset = &manifest.datasets[info.dataset_index].meta.name;
    format!("segment {dataset}.{}", info.function)
}

#[test]
fn a_corrupt_store_fails_with_its_first_bad_segment_in_directory_order() {
    let path = tmp_path("first-error");
    let _cleanup = Cleanup(path.clone());
    let datasets = dense_corpus();
    let dp = build_framework(&datasets);
    let store = Store::save(&path, dp.geometry(), dp.index().unwrap()).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let segments = &store.manifest().segments;
    let first_of = |di: usize| segments.iter().position(|s| s.dataset_index == di).unwrap();
    // Far apart in the directory: the first segment of the second data
    // set and the last segment of the last one, both with a field blob.
    let (early, late) = (first_of(1), segments.len() - 1);
    assert!(segments[early].field.is_some() && segments[late].field.is_some());
    assert!(late - early > segments.len() / 2);
    let untouched =
        RelationshipQuery::between(&["dense-3"], &["dense-4"]).with_clause(test_clause());
    let answer = dp.query(&untouched).unwrap();

    let blob = |segment: usize, hot: bool| match hot {
        true => segments[segment].loc,
        false => segments[segment].field.unwrap(),
    };
    // Each way round: a hot blob early and a field blob late, then a field
    // blob early and a hot blob late.
    for early_is_hot in [true, false] {
        let mut corrupt = pristine.clone();
        for loc in [blob(early, early_is_hot), blob(late, !early_is_hot)] {
            corrupt[loc.offset as usize + loc.len as usize / 2] ^= 0x40;
        }
        std::fs::write(&path, &corrupt).unwrap();
        let what = match early_is_hot {
            true => label(&store, early),
            false => format!("{} field", label(&store, early)),
        };
        for workers in [1, 2, 4] {
            let config = on(workers);
            let eager = StoreSession::open_with(&path, config, &LoadFilter::all());
            match eager {
                Err(StoreError::ChecksumMismatch { what: got }) => {
                    assert_eq!(got, what, "eager open at {workers} worker(s)")
                }
                other => panic!("eager open at {workers} worker(s): {other:?}"),
            }
            let lazy = StoreSession::open_lazy_with(
                &path,
                config,
                &LoadFilter::all(),
                SourceBackend::default(),
            )
            .unwrap();
            match lazy.lazy_index().unwrap().verify_all() {
                Err(StoreError::ChecksumMismatch { what: got }) => {
                    assert_eq!(got, what, "verify_all at {workers} worker(s)")
                }
                other => panic!("verify_all at {workers} worker(s): {other:?}"),
            }
            // A pair that touches neither corrupt segment still answers.
            assert_eq!(lazy.query(&untouched).unwrap(), answer);
        }
    }
}
