//! Demand-paged serving invariants (this PR's acceptance criteria):
//!
//! * a lazy open plus the first single-pair query reads **strictly fewer
//!   bytes** than an eager load — asserted through the `SegmentSource`
//!   byte counter, not inferred from timings;
//! * lazy and eager sessions return byte-identical results for every
//!   query form;
//! * corruption surfaces lazily: a flipped byte in one segment leaves the
//!   open and queries over other data sets untouched, and only a query
//!   whose footprint reaches the corrupt segment errors — repeatably,
//!   thanks to the sticky per-segment verification verdict;
//! * the single pinned handle keeps a session consistent when a writer
//!   replaces the store file mid-session, and a file truncated in place
//!   under it fails only the reads past the cut, with a typed error;
//! * a pair reads only the resolutions both of its data sets have —
//!   exactly Σ `loc.len` of those directory entries — and corruption is
//!   scoped by the same bound;
//! * an eager session decodes hot blobs only and goes back to the file
//!   for exactly the scalar fields a `thresholds` clause names.

use polygamy_core::prelude::*;
use polygamy_core::DataPolygamy;
use polygamy_obs::names;
use polygamy_stdata::Polygon;
use polygamy_store::{shard_store, LoadFilter, SourceBackend, Store, StoreError, StoreSession};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "polygamy-lazy-test-{}-{tag}.plst",
        std::process::id()
    ))
}

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
        description: format!("lazy-test data set {name}"),
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

fn save_corpus(path: &PathBuf) -> DataPolygamy {
    let dp = build_framework(&corpus());
    Store::save(path, dp.geometry(), dp.index().unwrap()).unwrap();
    dp
}

fn test_clause() -> Clause {
    Clause::default().permutations(40).include_insignificant()
}

fn open_lazy(path: &PathBuf) -> StoreSession {
    StoreSession::open_lazy_with(
        path,
        Config::fast_test(),
        &LoadFilter::all(),
        SourceBackend::default(),
    )
    .unwrap()
}

fn dataset_names(session: &StoreSession) -> Vec<&str> {
    (session.catalog().iter())
        .map(|d| d.meta.name.as_str())
        .collect()
}

/// Bytes read so far by a lazy session's pinned source.
fn lazy_bytes(session: &StoreSession) -> u64 {
    session.lazy_index().expect("lazy session").bytes_fetched()
}

#[test]
fn lazy_open_plus_first_query_reads_strictly_fewer_bytes_than_eager() {
    let path = tmp_path("bytes");
    let _cleanup = Cleanup(path.clone());
    save_corpus(&path);

    // Eager baseline: open + full load, counted at the source.
    let eager_bytes = StoreSession::open_with(&path, Config::fast_test(), &LoadFilter::all())
        .unwrap()
        .bytes_fetched();

    // Lazy: open is O(header + manifest + geometry)...
    let session = open_lazy(&path);
    let open_bytes = lazy_bytes(&session);
    assert!(open_bytes > 0);
    assert!(
        open_bytes < eager_bytes / 2,
        "lazy open read {open_bytes} of eager's {eager_bytes} bytes"
    );

    // ...and the first single-pair query faults in only alpha's and beta's
    // segments, never gamma's.
    let q = RelationshipQuery::between(&["alpha"], &["beta"]).with_clause(test_clause());
    session.query(&q).unwrap();
    let after_query = lazy_bytes(&session);
    assert!(after_query > open_bytes, "the query faulted segments in");
    assert!(
        after_query < eager_bytes,
        "lazy open + first query read {after_query} bytes, eager load read \
         {eager_bytes} — laziness must read strictly fewer"
    );

    // Re-running the query faults nothing new: segment + result caches hold.
    session.query(&q).unwrap();
    assert_eq!(lazy_bytes(&session), after_query);

    // A name outside the catalog is the executor's typed error, raised
    // before anything is read.
    assert!(matches!(
        session
            .query(&RelationshipQuery::between(&["gamma"], &["nope"]).with_clause(test_clause())),
        Err(StoreError::Query(polygamy_core::Error::UnknownDataset(name))) if name == "nope"
    ));
    assert_eq!(lazy_bytes(&session), after_query);
}

#[test]
fn lazy_matches_eager_for_every_query_form() {
    let path = tmp_path("equivalence");
    let _cleanup = Cleanup(path.clone());
    let dp = save_corpus(&path);

    let eager = StoreSession::open_with(&path, Config::fast_test(), &LoadFilter::all()).unwrap();
    let queries = [
        RelationshipQuery::all().with_clause(test_clause()),
        RelationshipQuery::of("alpha").with_clause(test_clause()),
        RelationshipQuery::between(&["beta"], &["gamma"]).with_clause(test_clause()),
    ];
    let lazy = open_lazy(&path);
    assert!(lazy.is_lazy() && lazy.index().is_none());
    for q in &queries {
        let expect = dp.query(q).unwrap();
        assert_eq!(eager.query(q).unwrap(), expect);
        assert_eq!(lazy.query(q).unwrap(), expect);
    }
    // The batched path pins the whole footprint once and still matches
    // per-query evaluation.
    let batched = lazy.query_many(&queries).unwrap();
    for (q, rels) in queries.iter().zip(&batched) {
        assert_eq!(rels, &dp.query(q).unwrap());
    }
}

#[test]
fn corruption_surfaces_only_for_queries_touching_the_corrupt_segment() {
    let path = tmp_path("corruption");
    let _cleanup = Cleanup(path.clone());
    save_corpus(&path);

    // Flip one byte inside a segment owned by gamma.
    let pristine = std::fs::read(&path).unwrap();
    let store = Store::open(&path).unwrap();
    let gamma = store.manifest().dataset_index("gamma").unwrap();
    let gamma_seg = store
        .manifest()
        .segments
        .iter()
        .find(|s| s.dataset_index == gamma)
        .expect("gamma has segments")
        .loc;
    drop(store);
    let mut flipped = pristine.clone();
    flipped[gamma_seg.offset as usize + 3] ^= 0x40;
    std::fs::write(&path, &flipped).unwrap();

    // The eager open refuses the whole store...
    assert!(matches!(
        StoreSession::open_with(&path, Config::fast_test(), &LoadFilter::all()),
        Err(StoreError::ChecksumMismatch { .. })
    ));

    // ...the lazy session opens fine and serves every query that stays
    // away from the corrupt segment.
    let session = open_lazy(&path);
    let clean = RelationshipQuery::between(&["alpha"], &["beta"]).with_clause(test_clause());
    assert!(!session.query(&clean).unwrap().is_empty());

    // Only the query whose footprint reaches gamma errors — with the
    // accurate typed error, naming the corrupt segment's owner.
    let touching = RelationshipQuery::between(&["alpha"], &["gamma"]).with_clause(test_clause());
    for _ in 0..2 {
        // Twice: the sticky verdict keeps failing without re-reading.
        match session.query(&touching) {
            Err(StoreError::ChecksumMismatch { what }) => {
                assert!(what.contains("gamma"), "{what}")
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }
    // The clean query still works after the failure.
    assert!(!session.query(&clean).unwrap().is_empty());
}

#[test]
fn pinned_handle_keeps_a_session_consistent_across_file_replacement() {
    let path = tmp_path("pinned");
    let _cleanup = Cleanup(path.clone());
    save_corpus(&path);

    let session = open_lazy(&path);
    let q = RelationshipQuery::between(&["alpha"], &["beta"]).with_clause(test_clause());
    let before = session.query(&q).unwrap();

    // A writer atomically replaces the store with a different corpus (the
    // same rename path `Store::save` uses in production).
    let other = build_framework(&[
        spiky_dataset("delta", 3.0, 50),
        spiky_dataset("epsilon", -1.0, 50),
    ]);
    Store::save(&path, other.geometry(), other.index().unwrap()).unwrap();

    // The open session still serves the revision it pinned — including
    // segments it has not faulted in yet (gamma) — never a torn mix of the
    // two revisions.
    assert_eq!(session.query(&q).unwrap(), before);
    let gamma_q = RelationshipQuery::between(&["alpha"], &["gamma"]).with_clause(test_clause());
    assert!(session.query(&gamma_q).is_ok());
    assert_eq!(dataset_names(&session), ["alpha", "beta", "gamma"]);

    // A fresh open sees the new revision.
    let fresh = open_lazy(&path);
    assert_eq!(dataset_names(&fresh), ["delta", "epsilon"]);
}

/// Truncating a served store *in place* (the same inode, not a writer's
/// rename) fails only the reads past the cut, each with a typed error — a
/// positioned read past the new end of file is an I/O error, never a
/// fault. What the session already decoded keeps serving, and so does
/// every blob below the cut.
#[test]
fn a_store_truncated_in_place_fails_only_reads_past_the_cut() {
    let path = tmp_path("truncated-in-place");
    let _cleanup = Cleanup(path.clone());
    let dp = save_corpus(&path);
    let store = Store::open(&path).unwrap();
    let cut = store.file_bytes().unwrap() / 2;
    let manifest = store.manifest();
    let gamma = manifest.dataset_index("gamma").unwrap();
    // Every hot blob lies below the cut, every one of gamma's field blobs
    // past it.
    assert!(manifest
        .segments
        .iter()
        .all(|s| s.loc.offset + s.loc.len <= cut));
    let mut gamma_fields = manifest
        .segments
        .iter()
        .filter(|s| s.dataset_index == gamma);
    assert!(gamma_fields.all(|s| s.field.is_some_and(|f| f.offset >= cut)));
    drop(store);

    let session = open_lazy(&path);
    let warmed = RelationshipQuery::between(&["alpha"], &["beta"]).with_clause(test_clause());
    assert_eq!(session.query(&warmed).unwrap(), dp.query(&warmed).unwrap());
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(cut)
        .unwrap();

    // The pair whose field blobs lie past the cut: a typed error, twice
    // (nothing was verified, so the second ask reads again and fails the
    // same way).
    let past_cut =
        RelationshipQuery::between(&["alpha"], &["gamma"]).with_clause(thresholds_clause("gamma"));
    for _ in 0..2 {
        match session.query(&past_cut) {
            Err(StoreError::Io(_) | StoreError::Truncated { .. }) => {}
            other => panic!("expected an I/O or truncation error, got {other:?}"),
        }
    }
    // The warmed pair answers from the decode cache: a new clause misses
    // the query cache, and not one byte is read.
    let rewarmed = RelationshipQuery::between(&["alpha"], &["beta"])
        .with_clause(test_clause().permutations(30));
    let before = lazy_bytes(&session);
    let (rels, t) = polygamy_obs::trace::record(|| session.query(&rewarmed).unwrap());
    assert_eq!(rels, dp.query(&rewarmed).unwrap());
    assert_eq!(t.counter(names::STORE_SEGMENT_FAULTS), 0);
    assert_eq!(lazy_bytes(&session), before);
    // A pair below the cut, never read before, still serves.
    let below = RelationshipQuery::between(&["alpha"], &["gamma"]).with_clause(test_clause());
    assert_eq!(session.query(&below).unwrap(), dp.query(&below).unwrap());
    // The force-check reads every blob, so it meets the cut.
    assert!(matches!(
        session.lazy_index().unwrap().verify_all(),
        Err(StoreError::Io(_) | StoreError::Truncated { .. })
    ));
}

/// Σ over `name`'s directory entries of (hot blob bytes, field blob bytes).
fn dataset_blob_bytes(store: &Store, name: &str) -> (u64, u64) {
    let manifest = store.manifest();
    let di = manifest.dataset_index(name).unwrap();
    let total = manifest.dataset_disk_bytes(di);
    let field = manifest.dataset_field_bytes(di);
    (total - field, field)
}

fn thresholds_clause(dataset: &str) -> Clause {
    test_clause().with_thresholds(dataset, 5.0, 0.9)
}

#[test]
fn field_blobs_are_fetched_only_for_data_sets_a_thresholds_clause_names() {
    let path = tmp_path("field-bytes");
    let _cleanup = Cleanup(path.clone());
    let dp = save_corpus(&path);
    let store = Store::open(&path).unwrap();
    let (alpha_hot, alpha_field) = dataset_blob_bytes(&store, "alpha");
    let (beta_hot, beta_field) = dataset_blob_bytes(&store, "beta");
    assert!(alpha_field > alpha_hot && beta_field > beta_hot);

    let plain = RelationshipQuery::between(&["alpha"], &["beta"]).with_clause(test_clause());
    let on_alpha =
        RelationshipQuery::between(&["alpha"], &["beta"]).with_clause(thresholds_clause("alpha"));
    // The override really changes the answer, so a session that silently
    // fell back to the precomputed features could not pass below.
    assert_ne!(dp.query(&on_alpha).unwrap(), dp.query(&plain).unwrap());

    // Without `thresholds`: exactly the two data sets' hot blobs —
    // zero field bytes.
    let session = open_lazy(&path);
    let opened = lazy_bytes(&session);
    let (rels, t) = polygamy_obs::trace::record(|| session.query(&plain).unwrap());
    assert_eq!(rels, dp.query(&plain).unwrap());
    assert_eq!(lazy_bytes(&session) - opened, alpha_hot + beta_hot);
    assert_eq!(t.counter(names::STORE_FIELD_FAULTS), 0);
    assert_eq!(t.counter(names::STORE_FIELD_BYTES_FETCHED), 0);

    // `thresholds alpha (…)` on the same session: alpha's entries are
    // re-faulted with their fields, beta's stay cached and field-less.
    let before = lazy_bytes(&session);
    let (rels, t) = polygamy_obs::trace::record(|| session.query(&on_alpha).unwrap());
    assert_eq!(rels, dp.query(&on_alpha).unwrap());
    assert_eq!(lazy_bytes(&session) - before, alpha_hot + alpha_field);
    assert_eq!(t.counter(names::STORE_FIELD_BYTES_FETCHED), alpha_field);
    assert!(t.counter(names::STORE_FIELD_FAULTS) > 0);

    // An entry cached with its field serves field-less pins: nothing
    // more is read for the plain query, nor for the override again.
    let before = lazy_bytes(&session);
    session.query(&plain).unwrap();
    session.query(&on_alpha).unwrap();
    assert_eq!(lazy_bytes(&session), before);

    // A fresh session asking the override first reads alpha's field
    // blobs and never beta's.
    let fresh = open_lazy(&path);
    let opened = lazy_bytes(&fresh);
    assert_eq!(
        fresh.query(&on_alpha).unwrap(),
        dp.query(&on_alpha).unwrap()
    );
    assert_eq!(
        lazy_bytes(&fresh) - opened,
        alpha_hot + alpha_field + beta_hot
    );
}

#[test]
fn a_corrupt_field_blob_fails_only_the_queries_that_read_it() {
    let path = tmp_path("field-corruption");
    let _cleanup = Cleanup(path.clone());
    let dp = save_corpus(&path);

    // Flip one byte inside one of gamma's field blobs.
    let store = Store::open(&path).unwrap();
    let gamma = store.manifest().dataset_index("gamma").unwrap();
    let field = store
        .manifest()
        .segments
        .iter()
        .find(|s| s.dataset_index == gamma)
        .and_then(|s| s.field)
        .expect("gamma kept its fields");
    drop(store);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[(field.offset + field.len / 2) as usize] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    // The eager open reads every byte: it refuses the store.
    assert!(matches!(
        StoreSession::open_with(&path, Config::fast_test(), &LoadFilter::all()),
        Err(StoreError::ChecksumMismatch { .. })
    ));

    let session = open_lazy(&path);
    // Every field-less query on gamma keeps serving, correctly.
    let plain = RelationshipQuery::between(&["alpha"], &["gamma"]).with_clause(test_clause());
    assert_eq!(session.query(&plain).unwrap(), dp.query(&plain).unwrap());
    // So does an override on the *other* side of the pair.
    let on_alpha =
        RelationshipQuery::between(&["alpha"], &["gamma"]).with_clause(thresholds_clause("alpha"));
    assert_eq!(
        session.query(&on_alpha).unwrap(),
        dp.query(&on_alpha).unwrap()
    );
    // The override on gamma needs the corrupt blob: a typed error
    // naming it, twice (the verdict is sticky — no re-read, no retry
    // that could decode bytes once seen to fail).
    let on_gamma =
        RelationshipQuery::between(&["alpha"], &["gamma"]).with_clause(thresholds_clause("gamma"));
    for _ in 0..2 {
        match session.query(&on_gamma) {
            Err(StoreError::ChecksumMismatch { what }) => {
                assert!(what.contains("gamma") && what.contains("field"), "{what}")
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }
    // And the field-less query still works afterwards.
    assert_eq!(session.query(&plain).unwrap(), dp.query(&plain).unwrap());
    // The force-check covers field blobs too.
    assert!(matches!(
        session.lazy_index().unwrap().verify_all(),
        Err(StoreError::ChecksumMismatch { .. })
    ));
}

/// A store written without a data set's field blobs cannot answer a
/// `thresholds` clause naming it — and says so with a typed error, in
/// both read modes, rather than answering from the precomputed features.
/// Everything that does not need those fields keeps serving.
#[test]
fn thresholds_over_a_store_without_field_blobs_is_a_typed_error() {
    let path = tmp_path("no-field-blobs");
    let _cleanup = Cleanup(path.clone());
    let dp = build_framework(&corpus());
    let mut stripped = dp.index().unwrap().clone();
    for entry in &mut stripped.functions {
        if entry.spec.dataset == "alpha" {
            entry.field = None;
        }
    }
    let store = Store::save(&path, dp.geometry(), &stripped).unwrap();
    assert_eq!(dataset_blob_bytes(&store, "alpha").1, 0);
    assert!(dataset_blob_bytes(&store, "beta").1 > 0);

    let alpha_beta = |clause| RelationshipQuery::between(&["alpha"], &["beta"]).with_clause(clause);
    let eager = StoreSession::open_with(&path, Config::fast_test(), &LoadFilter::all()).unwrap();
    let lazy = open_lazy(&path);
    for session in [&eager, &lazy] {
        for _ in 0..2 {
            let err = session
                .query(&alpha_beta(thresholds_clause("alpha")))
                .unwrap_err();
            match err {
                StoreError::Query(polygamy_core::Error::MissingField(function)) => {
                    assert_eq!(function.dataset, "alpha")
                }
                other => panic!("expected a missing-field error, got {other:?}"),
            }
        }
        assert_eq!(session.cache_len(), 0, "the refusal is not cached");
        for clause in [test_clause(), thresholds_clause("beta")] {
            let query = alpha_beta(clause);
            assert_eq!(session.query(&query).unwrap(), dp.query(&query).unwrap());
        }
    }
}

// ---------------------------------------------------------------------------
// The pair-exact footprint: a pair reads only the resolutions both sides have
// ---------------------------------------------------------------------------

/// A 2 × 2-neighbourhood city with no zip partition.
fn quartered_geometry() -> CityGeometry {
    let cells = [(0u32, 0u32), (1, 0), (0, 1), (1, 1)];
    let polygons = cells
        .iter()
        .map(|&(x, y)| Polygon::rect(x as f64, y as f64, x as f64 + 1.0, y as f64 + 1.0))
        .collect();
    let adjacency = vec![vec![1, 2], vec![0, 3], vec![0, 3], vec![1, 2]];
    CityGeometry {
        neighborhood: Some(
            SpatialPartition::new(SpatialResolution::Neighborhood, polygons, adjacency).unwrap(),
        ),
        zip: None,
        city: SpatialPartition::city(0.0, 0.0, 2.0, 2.0),
    }
}

const MIXED_WEEKS: i64 = 16;

/// A city-level weekly series: it exists at (week, city) and nowhere else.
fn weekly_dataset(name: &str) -> Dataset {
    let meta = DatasetMeta {
        name: name.into(),
        spatial_resolution: SpatialResolution::City,
        temporal_resolution: TemporalResolution::Week,
        description: String::new(),
    };
    let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("price"));
    for w in 0..MIXED_WEEKS {
        let v = if w % 5 == 3 {
            9.0
        } else {
            2.0 + (w % 3) as f64 * 0.1
        };
        b.push(GeoPoint::new(1.0, 1.0), w * 7 * 86_400, &[v])
            .expect("schema matches");
    }
    b.build().expect("dataset builds")
}

/// An hourly GPS data set over the same weeks: indexed at {neighbourhood,
/// city} × {hour, day, week, month}, with a burst in one cell every week
/// `w` with `(w + phase) % 5 == 3`.
fn hourly_dataset(name: &str, phase: i64) -> Dataset {
    let meta = DatasetMeta {
        name: name.into(),
        spatial_resolution: SpatialResolution::Gps,
        temporal_resolution: TemporalResolution::Hour,
        description: String::new(),
    };
    let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("signal"));
    for h in (0..MIXED_WEEKS * 168).step_by(3) {
        let week = h / 168;
        for cell in 0..4i64 {
            let burst = (week + phase) % 5 == 3 && h % 168 < 48 && cell == week % 4;
            let records = if burst { 6 } else { 1 };
            for k in 0..records {
                let at = GeoPoint::new((cell % 2) as f64 + 0.5, (cell / 2) as f64 + 0.5);
                let v = (h % 24) as f64 * 0.1 + if burst { 20.0 } else { 0.0 };
                b.push(at, h * 3_600 + k * 60, &[v])
                    .expect("schema matches");
            }
        }
    }
    b.build().expect("dataset builds")
}

/// `weekly` (one resolution) beside `hourly1` and `hourly2` (eight each):
/// the layered corpus on which naming a data set and reading it part ways.
fn save_mixed(path: &PathBuf) -> DataPolygamy {
    let mut dp = DataPolygamy::new(quartered_geometry(), Config::fast_test());
    dp.add_dataset(weekly_dataset("weekly"));
    dp.add_dataset(hourly_dataset("hourly1", 0));
    dp.add_dataset(hourly_dataset("hourly2", 0));
    dp.build_index();
    Store::save(path, dp.geometry(), dp.index().unwrap()).unwrap();
    dp
}

fn resolutions_of(store: &Store, name: &str) -> BTreeSet<Resolution> {
    let di = store.manifest().dataset_index(name).unwrap();
    let segments = store.manifest().segments.iter();
    segments
        .filter(|s| s.dataset_index == di)
        .map(|s| s.resolution)
        .collect()
}

/// (count, Σ `loc.len`) of `name`'s directory entries at a resolution in `at`.
fn hot_blobs_at(store: &Store, name: &str, at: &BTreeSet<Resolution>) -> (u64, u64) {
    let di = store.manifest().dataset_index(name).unwrap();
    let segments = store.manifest().segments.iter();
    segments
        .filter(|s| s.dataset_index == di && at.contains(&s.resolution))
        .fold((0, 0), |(n, bytes), s| (n + 1, bytes + s.loc.len))
}

/// Asks `query` of `session`, checks the answer against the in-memory
/// framework and an eager session, and returns (bytes fetched, segments
/// pinned, segments the pair-blind bound would have added).
fn footprint_of(
    session: &StoreSession,
    eager: &StoreSession,
    dp: &DataPolygamy,
    query: &RelationshipQuery,
) -> (u64, u64, u64) {
    let before = lazy_bytes(session);
    let (rels, t) = polygamy_obs::trace::record(|| session.query(query).unwrap());
    assert_eq!(rels, dp.query(query).unwrap());
    assert_eq!(rels, eager.query(query).unwrap());
    (
        lazy_bytes(session) - before,
        t.counter(names::STORE_PIN_SEGMENTS),
        t.counter(names::STORE_PIN_SKIPPED),
    )
}

#[test]
fn a_pair_reads_only_the_resolutions_both_sides_have() {
    let path = tmp_path("pair-footprint");
    let _cleanup = Cleanup(path.clone());
    let dp = save_mixed(&path);
    let store = Store::open(&path).unwrap();
    let eager = StoreSession::open_with(&path, Config::fast_test(), &LoadFilter::all()).unwrap();

    let weekly = resolutions_of(&store, "weekly");
    let hourly = resolutions_of(&store, "hourly1");
    assert_eq!(hourly, resolutions_of(&store, "hourly2"));
    let city_week = Resolution::new(SpatialResolution::City, TemporalResolution::Week);
    assert_eq!(weekly, BTreeSet::from([city_week]));
    assert_eq!(hourly.len(), 8);
    assert!(hourly.contains(&city_week));
    // Both sides of a pair at the resolutions in `at`.
    let both = |a: &str, b: &str, at: &BTreeSet<Resolution>| {
        let (na, bytes_a) = hot_blobs_at(&store, a, at);
        let (nb, bytes_b) = hot_blobs_at(&store, b, at);
        (na + nb, bytes_a + bytes_b)
    };
    let between = |left: &[&str], right: &[&str], clause: Clause| {
        RelationshipQuery::between(left, right).with_clause(clause)
    };

    // weekly × hourly1 meet at (week, city) alone: hourly1's seven other
    // resolutions — the large blobs — are never read.
    let session = open_lazy(&path);
    let query = between(&["weekly"], &["hourly1"], test_clause());
    assert!(!dp.query(&query).unwrap().is_empty());
    let (n, bytes) = both("weekly", "hourly1", &weekly);
    let (n_named, bytes_named) = both("weekly", "hourly1", &hourly);
    assert!(bytes < bytes_named / 4, "{bytes} of {bytes_named}");
    assert_eq!(
        footprint_of(&session, &eager, &dp, &query),
        (bytes, n, n_named - n)
    );

    // One collection of two: weekly × hourly1 and weekly × hourly2 are
    // enumerated, hourly1 × hourly2 is not — no hour blob is read.
    let session = open_lazy(&path);
    let query = between(&["weekly"], &["hourly1", "hourly2"], test_clause());
    let (n2, bytes2) = hot_blobs_at(&store, "hourly2", &weekly);
    assert_eq!(
        footprint_of(&session, &eager, &dp, &query),
        (bytes + bytes2, n + n2, 2 * (n_named - n))
    );
    // Split the other way, hourly1 × hourly2 is a pair: everything the
    // two have is read, each blob once.
    let session = open_lazy(&path);
    let query = between(&["weekly", "hourly1"], &["hourly2"], test_clause());
    let (n_weekly, bytes_weekly) = hot_blobs_at(&store, "weekly", &weekly);
    let (n_all, bytes_all) = both("hourly1", "hourly2", &hourly);
    assert_eq!(
        footprint_of(&session, &eager, &dp, &query),
        (bytes_weekly + bytes_all, n_weekly + n_all, 0)
    );

    // A data set against itself is no pair: nothing is pinned.
    let session = open_lazy(&path);
    let query = between(&["hourly1"], &["hourly1"], test_clause());
    let (n_self, _) = hot_blobs_at(&store, "hourly1", &hourly);
    assert_eq!(footprint_of(&session, &eager, &dp, &query), (0, 0, n_self));

    // A resolution clause intersects with what the pair shares.
    let nbhd_day = Resolution::new(SpatialResolution::Neighborhood, TemporalResolution::Day);
    let two = test_clause()
        .at_resolution(city_week)
        .at_resolution(nbhd_day);
    let query = between(&["hourly1"], &["hourly2"], two.clone());
    let (n_two, bytes_two) = both("hourly1", "hourly2", &BTreeSet::from([city_week, nbhd_day]));
    assert_eq!(
        footprint_of(&session, &eager, &dp, &query),
        (bytes_two, n_two, 0)
    );
    let session = open_lazy(&path);
    let query = between(&["weekly"], &["hourly1"], two);
    assert_eq!(
        footprint_of(&session, &eager, &dp, &query),
        (
            bytes,
            n,
            hot_blobs_at(&store, "hourly1", &BTreeSet::from([nbhd_day])).0
        )
    );
    let query = between(
        &["weekly"],
        &["hourly1"],
        test_clause().at_resolution(nbhd_day),
    );
    assert_eq!(footprint_of(&session, &eager, &dp, &query).0, 0);
}

/// Corruption is scoped by the same bound: a flipped byte in a segment at
/// a resolution the partner lacks cannot fail the pair — the segment is
/// never read — while a partner that shares the resolution meets the typed
/// error, repeatably, and the force-check still finds it.
#[test]
fn corruption_at_a_resolution_the_partner_lacks_does_not_fail_the_pair() {
    let path = tmp_path("pair-corruption");
    let _cleanup = Cleanup(path.clone());
    let dp = save_mixed(&path);

    let store = Store::open(&path).unwrap();
    let hourly1 = store.manifest().dataset_index("hourly1").unwrap();
    let nbhd_hour = Resolution::new(SpatialResolution::Neighborhood, TemporalResolution::Hour);
    let mut segments = store.manifest().segments.iter();
    let victim = segments
        .find(|s| s.dataset_index == hourly1 && s.resolution == nbhd_hour)
        .expect("hourly1 is indexed at (hour, neighbourhood)")
        .loc;
    drop(store);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[(victim.offset + victim.len / 2) as usize] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    let clause = test_clause();
    let lacking = RelationshipQuery::between(&["weekly"], &["hourly1"]).with_clause(clause.clone());
    let sharing = RelationshipQuery::between(&["hourly1"], &["hourly2"]).with_clause(clause);
    let session = open_lazy(&path);
    assert_eq!(
        session.query(&lacking).unwrap(),
        dp.query(&lacking).unwrap()
    );
    for _ in 0..2 {
        match session.query(&sharing) {
            Err(StoreError::ChecksumMismatch { what }) => {
                assert!(what.contains("hourly1"), "{what}")
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }
    assert_eq!(
        session.query(&lacking).unwrap(),
        dp.query(&lacking).unwrap()
    );
    assert!(matches!(
        session.lazy_index().unwrap().verify_all(),
        Err(StoreError::ChecksumMismatch { .. })
    ));
}

// ---------------------------------------------------------------------------
// Eager sessions: every hot blob pinned at open, fields left in the file
// ---------------------------------------------------------------------------

/// An eager open decodes hot blobs only; a `thresholds` clause is the one
/// thing that sends an eager session back to the file, for exactly the
/// named data set's field blobs, once — on a monolith, on a 3-shard
/// catalog and under a load filter — and the answer is the lazy session's
/// and the in-memory framework's.
#[test]
fn an_eager_session_reads_fields_only_when_a_thresholds_clause_asks() {
    let path = tmp_path("eager-fields");
    let catalog_path = tmp_path("eager-fields-sharded");
    let mut cleanups = vec![Cleanup(path.clone()), Cleanup(catalog_path.clone())];
    let dp = save_corpus(&path);
    let catalog = shard_store(&path, &catalog_path, 3).unwrap();
    cleanups.extend((0..3).map(|i| Cleanup(catalog.shard_path(&catalog_path, i))));
    let store = Store::open(&path).unwrap();
    let (alpha_hot, alpha_field) = dataset_blob_bytes(&store, "alpha");
    let alpha = store.manifest().dataset_index("alpha").unwrap();
    let segments = store.manifest().segments.iter();
    let alpha_segments = segments.filter(|s| s.dataset_index == alpha).count() as u64;

    let alpha_beta = |clause| RelationshipQuery::between(&["alpha"], &["beta"]).with_clause(clause);
    let plain = alpha_beta(test_clause());
    let on_alpha = alpha_beta(thresholds_clause("alpha"));
    // Another override of alpha: misses the query cache, not the fields.
    let on_alpha_again = alpha_beta(test_clause().with_thresholds("alpha", 4.0, 0.8));
    let lazy = open_lazy(&path);

    for (what, at) in [("monolith", &path), ("3 shards", &catalog_path)] {
        let session = StoreSession::open_with(at, Config::fast_test(), &LoadFilter::all()).unwrap();
        let hot_only = |s: &StoreSession| {
            s.index()
                .unwrap()
                .functions
                .iter()
                .all(|f| f.field.is_none())
        };
        assert!(hot_only(&session), "{what}");
        assert!(session.lazy_index().is_none(), "{what}");

        let opened = session.bytes_fetched();
        assert_eq!(session.query(&plain).unwrap(), dp.query(&plain).unwrap());
        assert_eq!(
            session.bytes_fetched(),
            opened,
            "{what}: no clause, no read"
        );

        let (rels, t) = polygamy_obs::trace::record(|| session.query(&on_alpha).unwrap());
        assert_eq!(rels, dp.query(&on_alpha).unwrap(), "{what}");
        assert_eq!(rels, lazy.query(&on_alpha).unwrap(), "{what}");
        assert_eq!(
            t.counter(names::STORE_FIELD_BYTES_FETCHED),
            alpha_field,
            "{what}"
        );
        assert_eq!(
            t.counter(names::STORE_FIELD_FAULTS),
            alpha_segments,
            "{what}"
        );
        // The live counter: alpha's entries were faulted whole.
        assert_eq!(session.bytes_fetched() - opened, alpha_hot + alpha_field);

        let before = session.bytes_fetched();
        let (rels, t) = polygamy_obs::trace::record(|| session.query(&on_alpha_again).unwrap());
        assert_eq!(rels, dp.query(&on_alpha_again).unwrap(), "{what}");
        assert_eq!(t.counter(names::STORE_FIELD_BYTES_FETCHED), 0, "{what}");
        assert_eq!(session.bytes_fetched(), before, "{what}");
        assert!(
            hot_only(&session),
            "{what}: the resident index stays hot-only"
        );
    }
}
