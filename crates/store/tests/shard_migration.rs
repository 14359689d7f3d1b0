//! Migration round-trips between monolithic and sharded stores:
//!
//! * monolith → N shards → monolith reproduces the original file
//!   **byte-for-byte** — manifest, geometry and segment bytes — for every
//!   shard count, including the degenerate 1-shard layout;
//! * maintenance takes the catalog's path as it takes a monolith's:
//!   [`Store::upsert_dataset`] / [`Store::remove_dataset`] on a catalog
//!   rewrite **exactly one shard file** and return it: after an upsert or
//!   removal every other shard's bytes are untouched, and the rewritten
//!   layout still merges back to the byte-identical monolith a monolithic
//!   maintenance pass would have produced.

use polygamy_core::prelude::*;
use polygamy_core::DataPolygamy;
use polygamy_obs::{names, trace};
use polygamy_store::{
    is_sharded, merge_shards, shard_store, LoadFilter, ShardCatalog, SourceBackend, Store,
    StoreSession,
};
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "polygamy-shard-migrate-{}-{tag}",
        std::process::id()
    ));
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
        description: format!("migration data set {name}"),
    };
    let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("signal"));
    for h in 0..480i64 {
        let v = if h == bump_at {
            40.0
        } else {
            level + (h % 24) as f64 * 0.05
        };
        b.push(GeoPoint::new(0.5, 0.5), h * 3_600, &[v])
            .expect("schema matches");
    }
    b.build().expect("dataset builds")
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

fn corpus() -> Vec<Dataset> {
    vec![
        spiky_dataset("alpha", 1.0, 100),
        spiky_dataset("beta", -2.0, 100),
        spiky_dataset("gamma", 0.5, 333),
        spiky_dataset("delta", 3.0, 210),
    ]
}

/// Pins a fixed query sequence (two pairs, the whole corpus, then the
/// first pair again — a pure cache hit) through a fresh lazy session over
/// `path`. Returns every pinned entry's `(data set index, function,
/// resolution)` in pin order, plus the number of segments the sequence
/// faulted in (counted on this thread's trace, so parallel tests cannot
/// perturb it).
fn pin_sequence(path: &Path) -> (Vec<(usize, String, Resolution)>, u64) {
    let session = StoreSession::open_lazy_with(
        path,
        Config::fast_test(),
        &LoadFilter::all(),
        SourceBackend::default(),
    )
    .unwrap();
    let lazy = session.lazy_index().expect("lazy session");
    let clause = Clause::default().permutations(40).include_insignificant();
    let pair =
        |a: &str, b: &str| RelationshipQuery::between(&[a], &[b]).with_clause(clause.clone());
    let sequence = [
        pair("alpha", "beta"),
        pair("gamma", "delta"),
        RelationshipQuery::all().with_clause(clause.clone()),
        pair("alpha", "beta"),
    ];
    let (pinned, trace) = trace::record(|| {
        let mut pinned = Vec::new();
        for query in &sequence {
            for entry in lazy.pin_for(std::slice::from_ref(query)).unwrap() {
                pinned.push((
                    entry.dataset_index,
                    entry.spec.name.function.to_string(),
                    entry.resolution,
                ));
            }
        }
        pinned
    });
    (pinned, trace.counter(names::STORE_SEGMENT_FAULTS))
}

#[test]
fn shard_then_merge_reproduces_the_monolith_byte_for_byte() {
    let dir = tmp_dir("roundtrip");
    let _cleanup = Cleanup(dir.clone());
    let dp = build_framework(&corpus());
    let monolith = dir.join("mono.plst");
    Store::save(&monolith, dp.geometry(), dp.index().unwrap()).unwrap();
    let original = std::fs::read(&monolith).unwrap();
    assert!(!is_sharded(&monolith).unwrap());
    let (monolith_pins, monolith_faults) = pin_sequence(&monolith);
    assert!(monolith_faults > 0 && monolith_pins.len() as u64 > monolith_faults);

    for n_shards in [1usize, 2, 5] {
        let catalog_path = dir.join(format!("sharded-{n_shards}.plst"));
        let catalog = shard_store(&monolith, &catalog_path, n_shards).unwrap();
        assert!(is_sharded(&catalog_path).unwrap());
        assert_eq!(catalog.n_shards(), n_shards);
        // Round-robin assignment, one owner per data set.
        for di in 0..catalog.datasets.len() {
            assert_eq!(catalog.shard_of[di], di % n_shards);
        }
        // The catalog survives its own disk round-trip.
        assert_eq!(ShardCatalog::read(&catalog_path).unwrap(), catalog);

        let merged = dir.join(format!("merged-{n_shards}.plst"));
        merge_shards(&catalog_path, &merged).unwrap();
        assert_eq!(
            std::fs::read(&merged).unwrap(),
            original,
            "merge of {n_shards} shards must reproduce the monolith bit-for-bit"
        );

        // The direct form of "a monolith is the one-shard store": the
        // N-shard session pins the monolith's exact entry sequence, and
        // faults exactly as many segments doing so.
        let (pins, faults) = pin_sequence(&catalog_path);
        assert_eq!(pins, monolith_pins, "{n_shards} shard(s)");
        assert_eq!(faults, monolith_faults, "{n_shards} shard(s)");
    }
}

#[test]
fn sharded_upsert_rewrites_exactly_one_shard() {
    let dir = tmp_dir("upsert");
    let _cleanup = Cleanup(dir.clone());
    let dp = build_framework(&corpus());
    let monolith = dir.join("mono.plst");
    Store::save(&monolith, dp.geometry(), dp.index().unwrap()).unwrap();
    let catalog_path = dir.join("sharded.plst");
    shard_store(&monolith, &catalog_path, 3).unwrap();
    // Round-robin over 4 data sets: shard 0 = {alpha, delta},
    // shard 1 = {beta}, shard 2 = {gamma}.
    let before: Vec<Vec<u8>> = (0..3)
        .map(|i| std::fs::read(dir.join(format!("sharded.shard{i}.plst"))).unwrap())
        .collect();

    // Replace beta (shard 1) with different data.
    let replacement = spiky_dataset("beta", -5.0, 42);
    let rewritten =
        Store::upsert_dataset(&catalog_path, &replacement, &Config::fast_test()).unwrap();
    assert_eq!(rewritten.path(), dir.join("sharded.shard1.plst"));
    let catalog = ShardCatalog::read(&catalog_path).unwrap();
    assert_eq!(catalog.shard_of, vec![0, 1, 2, 0]);
    let after: Vec<Vec<u8>> = (0..3)
        .map(|i| std::fs::read(dir.join(format!("sharded.shard{i}.plst"))).unwrap())
        .collect();
    assert_eq!(after[0], before[0], "shard 0 untouched");
    assert_ne!(after[1], before[1], "shard 1 rewritten");
    assert_eq!(after[2], before[2], "shard 2 untouched");

    // The rewritten layout merges to the byte-identical monolith a
    // monolithic upsert would have produced.
    Store::upsert_dataset(&monolith, &replacement, &Config::fast_test()).unwrap();
    let merged = dir.join("merged.plst");
    merge_shards(&catalog_path, &merged).unwrap();
    assert_eq!(
        std::fs::read(&merged).unwrap(),
        std::fs::read(&monolith).unwrap()
    );

    // A brand-new data set lands on the least-loaded shard (shard 1 or 2
    // hold one each; ties go lowest → shard 1) and queries still match.
    let fresh = spiky_dataset("zeta", 2.0, 77);
    Store::upsert_dataset(&catalog_path, &fresh, &Config::fast_test()).unwrap();
    let catalog = ShardCatalog::read(&catalog_path).unwrap();
    assert_eq!(catalog.shard_of, vec![0, 1, 2, 0, 1]);
    Store::upsert_dataset(&monolith, &fresh, &Config::fast_test()).unwrap();
    let merged2 = dir.join("merged2.plst");
    merge_shards(&catalog_path, &merged2).unwrap();
    assert_eq!(
        std::fs::read(&merged2).unwrap(),
        std::fs::read(&monolith).unwrap()
    );
}

#[test]
fn sharded_removal_rewrites_exactly_one_shard_and_keeps_assignments() {
    let dir = tmp_dir("remove");
    let _cleanup = Cleanup(dir.clone());
    let dp = build_framework(&corpus());
    let monolith = dir.join("mono.plst");
    Store::save(&monolith, dp.geometry(), dp.index().unwrap()).unwrap();
    let catalog_path = dir.join("sharded.plst");
    shard_store(&monolith, &catalog_path, 3).unwrap();
    let before: Vec<Vec<u8>> = (0..3)
        .map(|i| std::fs::read(dir.join(format!("sharded.shard{i}.plst"))).unwrap())
        .collect();

    // Remove alpha (shard 0). The explicit assignment means beta, gamma
    // and delta keep their shards — no cascade.
    let rewritten = Store::remove_dataset(&catalog_path, "alpha").unwrap();
    assert_eq!(rewritten.path(), dir.join("sharded.shard0.plst"));
    let catalog = ShardCatalog::read(&catalog_path).unwrap();
    assert_eq!(
        catalog
            .datasets
            .iter()
            .map(|d| d.meta.name.as_str())
            .collect::<Vec<_>>(),
        ["beta", "gamma", "delta"]
    );
    assert_eq!(catalog.shard_of, vec![1, 2, 0]);
    let after: Vec<Vec<u8>> = (0..3)
        .map(|i| std::fs::read(dir.join(format!("sharded.shard{i}.plst"))).unwrap())
        .collect();
    assert_ne!(after[0], before[0], "shard 0 rewritten");
    assert_eq!(after[1], before[1], "shard 1 untouched");
    assert_eq!(after[2], before[2], "shard 2 untouched");

    // Removal merges to the monolithic removal's exact bytes, and the
    // degraded layout still serves correct query results.
    Store::remove_dataset(&monolith, "alpha").unwrap();
    let merged = dir.join("merged.plst");
    merge_shards(&catalog_path, &merged).unwrap();
    assert_eq!(
        std::fs::read(&merged).unwrap(),
        std::fs::read(&monolith).unwrap()
    );

    let clause = Clause::default().permutations(40).include_insignificant();
    let q = RelationshipQuery::between(&["beta"], &["gamma"]).with_clause(clause);
    let sharded = StoreSession::open(&catalog_path).unwrap();
    let mono = StoreSession::open(&monolith).unwrap();
    assert_eq!(sharded.query(&q).unwrap(), mono.query(&q).unwrap());
}
