//! Fault injection for sharded stores (this PR's acceptance criteria):
//!
//! * a missing, truncated or manifest-corrupted shard file makes **only
//!   the queries whose footprint touches that shard** fail, with the typed
//!   [`StoreError::ShardUnavailable`] naming the shard and file — and they
//!   keep failing with the same error on every retry;
//! * queries confined to healthy shards keep serving, before and after a
//!   failed query, with results byte-identical to the monolithic baseline;
//! * segment-level corruption *inside* an otherwise healthy shard keeps
//!   the narrower contract: the shard stays available and only queries
//!   reaching the corrupt segment see [`StoreError::ChecksumMismatch`];
//! * eager sharded opens fail up front when the filter's footprint
//!   touches a broken shard, and succeed when a load filter keeps the
//!   footprint on healthy shards.

use polygamy_core::prelude::*;
use polygamy_core::DataPolygamy;
use polygamy_store::{shard_store, LoadFilter, SourceBackend, Store, StoreError, StoreSession};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("polygamy-shard-fault-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Cleanup(PathBuf);

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn spiky_dataset(name: &str, level: f64, bump_at: i64) -> Dataset {
    let meta = DatasetMeta {
        name: name.into(),
        spatial_resolution: SpatialResolution::City,
        temporal_resolution: TemporalResolution::Hour,
        description: format!("shard-fault data set {name}"),
    };
    let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("signal"));
    for h in 0..480i64 {
        let v = if h == bump_at || h == bump_at + 91 {
            40.0
        } else {
            level + (h % 24) as f64 * 0.05
        };
        b.push(GeoPoint::new(0.5, 0.5), h * 3_600, &[v])
            .expect("schema matches");
    }
    b.build().expect("dataset builds")
}

/// Five data sets over three shards (round-robin): shard 0 = {alpha,
/// delta}, shard 1 = {beta, epsilon}, shard 2 = {gamma}.
fn build_sharded(dir: &std::path::Path) -> (DataPolygamy, PathBuf) {
    let datasets = vec![
        spiky_dataset("alpha", 1.0, 100),
        spiky_dataset("beta", -2.0, 100),
        spiky_dataset("gamma", 0.5, 333),
        spiky_dataset("delta", 3.0, 210),
        spiky_dataset("epsilon", -0.5, 210),
    ];
    let mut dp = DataPolygamy::new(
        CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
        Config::fast_test(),
    );
    for d in &datasets {
        dp.add_dataset(d.clone());
    }
    dp.build_index();
    let monolith = dir.join("corpus-mono.plst");
    Store::save(&monolith, dp.geometry(), dp.index().unwrap()).unwrap();
    let catalog_path = dir.join("corpus.plst");
    shard_store(&monolith, &catalog_path, 3).unwrap();
    (dp, catalog_path)
}

fn test_clause() -> Clause {
    Clause::default().permutations(40).include_insignificant()
}

fn between(a: &str, b: &str) -> RelationshipQuery {
    RelationshipQuery::between(&[a], &[b]).with_clause(test_clause())
}

fn open_lazy(path: &std::path::Path) -> StoreSession {
    StoreSession::open_lazy_with(
        path,
        Config::fast_test(),
        &LoadFilter::all(),
        SourceBackend::default(),
    )
    .unwrap()
}

/// Asserts `result` is the typed unavailability error for `shard`.
fn assert_unavailable(result: Result<Vec<Relationship>, StoreError>, shard: usize) {
    match result {
        Err(StoreError::ShardUnavailable { shard: s, file, .. }) => {
            assert_eq!(s, shard);
            assert!(
                file.contains(&format!("shard{shard}")),
                "error names the shard file: {file}"
            );
        }
        other => panic!("expected ShardUnavailable for shard {shard}, got {other:?}"),
    }
}

#[test]
fn missing_shard_fails_only_touching_queries_repeatably() {
    let dir = tmp_dir("missing");
    let _cleanup = Cleanup(dir.clone());
    let (dp, catalog_path) = build_sharded(&dir);

    // Kill shard 2 (gamma) outright.
    std::fs::remove_file(dir.join("corpus.shard2.plst")).unwrap();

    // Degraded open still succeeds...
    let session = open_lazy(&catalog_path);
    assert_eq!(session.n_shards(), 3);
    let lazy = session.lazy_index().expect("lazy session");
    assert!(lazy.unavailable_reason(0).is_none());
    assert!(lazy.unavailable_reason(1).is_none());
    assert!(lazy.unavailable_reason(2).is_some());

    // ...and queries that stay on shards 0/1 serve the monolithic
    // bytes (alpha–beta crosses shards, alpha–delta stays on one).
    for q in [between("alpha", "beta"), between("alpha", "delta")] {
        assert_eq!(session.query(&q).unwrap(), dp.query(&q).unwrap());
    }

    // Queries touching gamma fail with the typed error — repeatably.
    for _ in 0..2 {
        assert_unavailable(session.query(&between("alpha", "gamma")), 2);
    }
    // Whole-corpus footprints touch every shard, so they fail too.
    assert_unavailable(
        session.query(&RelationshipQuery::all().with_clause(test_clause())),
        2,
    );

    // Clean shards keep serving after the failures.
    let q = between("beta", "epsilon");
    assert_eq!(session.query(&q).unwrap(), dp.query(&q).unwrap());
    // A batch confined to healthy shards works end to end.
    let healthy = [between("alpha", "beta"), between("delta", "epsilon")];
    let batched = session.query_many(&healthy).unwrap();
    for (q, rels) in healthy.iter().zip(&batched) {
        assert_eq!(rels, &dp.query(q).unwrap());
    }
}

#[test]
fn truncated_and_corrupted_shards_degrade_the_same_way() {
    let dir = tmp_dir("truncate");
    let _cleanup = Cleanup(dir.clone());
    let (dp, catalog_path) = build_sharded(&dir);

    // Truncate shard 1 (beta, epsilon) to half its size: its tail manifest
    // is gone, so it cannot open.
    let shard1 = dir.join("corpus.shard1.plst");
    let bytes = std::fs::read(&shard1).unwrap();
    std::fs::write(&shard1, &bytes[..bytes.len() / 2]).unwrap();

    // Flip a byte inside shard 2's manifest so its checksum fails.
    let shard2 = dir.join("corpus.shard2.plst");
    let mut bytes = std::fs::read(&shard2).unwrap();
    let last = bytes.len() - 5;
    bytes[last] ^= 0x10;
    std::fs::write(&shard2, &bytes).unwrap();

    let session = open_lazy(&catalog_path);
    let lazy = session.lazy_index().unwrap();
    assert!(lazy.unavailable_reason(0).is_none());
    assert!(lazy.unavailable_reason(1).unwrap().contains("truncated"));
    assert!(lazy.unavailable_reason(2).unwrap().contains("checksum"));

    // Shard 0's pair still answers with monolithic bytes.
    let q = between("alpha", "delta");
    assert_eq!(session.query(&q).unwrap(), dp.query(&q).unwrap());
    // Each broken shard rejects with its own index.
    assert_unavailable(session.query(&between("alpha", "beta")), 1);
    assert_unavailable(session.query(&between("alpha", "gamma")), 2);
    // Verification fails fast on the first broken shard.
    assert!(lazy.verify_all().is_err());
}

#[test]
fn segment_corruption_inside_a_healthy_shard_stays_segment_scoped() {
    let dir = tmp_dir("segment");
    let _cleanup = Cleanup(dir.clone());
    let (dp, catalog_path) = build_sharded(&dir);

    // Flip one byte inside a *segment* of shard 2 (gamma): the manifest
    // still verifies, so the shard opens and stays available.
    let shard2 = dir.join("corpus.shard2.plst");
    let store = Store::open(&shard2).unwrap();
    let seg = store.manifest().segments[0].loc;
    drop(store);
    let mut bytes = std::fs::read(&shard2).unwrap();
    bytes[seg.offset as usize + 3] ^= 0x40;
    std::fs::write(&shard2, &bytes).unwrap();

    let session = open_lazy(&catalog_path);
    let lazy = session.lazy_index().unwrap();
    assert!(lazy.unavailable_reason(2).is_none(), "shard itself is fine");

    // Only queries reaching the corrupt segment fail — with the narrower
    // checksum error naming gamma, twice (the verdict is sticky).
    for _ in 0..2 {
        match session.query(&between("alpha", "gamma")) {
            Err(StoreError::ChecksumMismatch { what }) => assert!(what.contains("gamma")),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }
    let q = between("alpha", "beta");
    assert_eq!(session.query(&q).unwrap(), dp.query(&q).unwrap());
}

#[test]
fn eager_open_needs_every_shard() {
    let dir = tmp_dir("eager");
    let _cleanup = Cleanup(dir.clone());
    let (_, catalog_path) = build_sharded(&dir);
    std::fs::remove_file(dir.join("corpus.shard2.plst")).unwrap();

    // An eager open reads every shard: typed failure up front.
    match StoreSession::open_with(&catalog_path, Config::fast_test(), &LoadFilter::all()) {
        Err(StoreError::ShardUnavailable { shard: 2, .. }) => {}
        other => panic!("expected ShardUnavailable for shard 2, got {other:?}"),
    }
}
