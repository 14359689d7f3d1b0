//! A query the cache answers whole costs what its answer does, whatever
//! the store holds.
//!
//! A cache hit pins nothing and hands the executor a view of no entry, on
//! an eager session (which holds every entry) and on a lazy one (whose
//! footprint pass would walk the whole directory) alike. A counting global
//! allocator (`support`) pins that: a repeated pair query allocates the
//! same bytes over a store of 2 data sets and over one of 12, eager and
//! lazy.

mod support;

use polygamy_core::prelude::*;
use polygamy_core::DataPolygamy;
use polygamy_store::{Store, StoreSession};
use std::path::PathBuf;

#[global_allocator]
static GLOBAL: support::Counting = support::Counting;

/// An hourly city-wide series: a daily wave, spikes every `spike` hours.
fn dataset(name: &str, hours: i64, spike: i64) -> Dataset {
    let meta = DatasetMeta {
        name: name.into(),
        spatial_resolution: SpatialResolution::City,
        temporal_resolution: TemporalResolution::Hour,
        description: String::new(),
    };
    let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("signal"));
    for h in 0..hours {
        let wave = ((h % 24) as f64 / 24.0 * std::f64::consts::TAU).sin();
        let v = if h % spike == 0 { 30.0 } else { wave };
        b.push(GeoPoint::new(5.0, 5.0), h * 3_600, &[v])
            .expect("schema matches");
    }
    b.build().expect("dataset builds")
}

/// A store of `alpha`, `beta` and `others` more data sets.
fn store(others: usize) -> PathBuf {
    let geometry = CityGeometry::city_only(0.0, 0.0, 10.0, 10.0);
    let mut dp = DataPolygamy::new(geometry, Config::fast_test());
    dp.add_dataset(dataset("alpha", 1_200, 97));
    dp.add_dataset(dataset("beta", 1_200, 97));
    for i in 0..others {
        dp.add_dataset(dataset(&format!("other-{i}"), 480, 31 + i as i64));
    }
    dp.build_index();
    let path = std::env::temp_dir().join(format!(
        "polygamy-cache-hit-allocations-{}-{others}.plst",
        std::process::id()
    ));
    Store::save(&path, dp.geometry(), dp.index().unwrap()).unwrap();
    path
}

/// Bytes the third `query` of a session allocates: the first fills the
/// query cache, the second warms whatever a first hit sets up.
fn repeated_hit_bytes(session: &StoreSession, query: &RelationshipQuery) -> (u64, usize) {
    let first = session.query(query).unwrap();
    assert_eq!(session.query(query).unwrap(), first);
    let before = support::allocated_bytes();
    let answer = session.query(query).unwrap();
    let bytes = support::allocated_bytes() - before;
    assert_eq!(answer, first);
    (bytes, answer.len())
}

#[test]
fn a_repeated_pair_query_allocates_the_same_bytes_over_any_store() {
    let query =
        parse_query("between alpha and beta where permutations = 20 and include insignificant")
            .unwrap();
    let mut measured = Vec::new();
    for others in [0, 10] {
        let path = store(others);
        let eager = StoreSession::open(&path).unwrap();
        let lazy = StoreSession::open_lazy(&path).unwrap();
        assert_eq!(eager.catalog().len(), 2 + others);
        for (mode, session) in [("eager", eager), ("lazy", lazy)] {
            let (bytes, found) = repeated_hit_bytes(&session, &query);
            measured.push((2 + others, mode, bytes, found));
        }
        std::fs::remove_file(&path).unwrap();
    }
    let (_, _, bytes, found) = measured[0];
    assert!(found > 0, "the pair must answer something: {measured:?}");
    assert!(
        measured.iter().all(|m| (m.2, m.3) == (bytes, found)),
        "(data sets, session, bytes, relationships): {measured:?}"
    );
}
