//! A request the query cache answers costs a cache lookup: a lazy session
//! asked a batch again pins, faults and reads nothing. Its own test binary,
//! because it asserts deltas of the process-wide registry, which another
//! test running beside it would move.

use polygamy_core::prelude::*;
use polygamy_core::DataPolygamy;
use polygamy_obs::names;
use polygamy_store::{Store, StoreSession};

fn dataset(name: &str, level: f64, bump_at: i64) -> Dataset {
    let meta = DatasetMeta {
        name: name.into(),
        spatial_resolution: SpatialResolution::City,
        temporal_resolution: TemporalResolution::Hour,
        description: String::new(),
    };
    let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("signal"));
    for h in 0..600i64 {
        let v = if h == bump_at || h == bump_at + 137 {
            40.0
        } else {
            level + (h % 24) as f64 * 0.05
        };
        b.push(GeoPoint::new(0.5, 0.5), h * 3_600, &[v]).unwrap();
    }
    b.build().unwrap()
}

#[test]
fn a_cached_batch_pins_faults_and_reads_nothing() {
    let path = std::env::temp_dir().join(format!("plst-cache-first-{}.plst", std::process::id()));
    let mut dp = DataPolygamy::new(
        CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
        Config::fast_test(),
    );
    for (name, level, bump_at) in [
        ("alpha", 1.0, 100),
        ("beta", -2.0, 100),
        ("gamma", 0.5, 333),
    ] {
        dp.add_dataset(dataset(name, level, bump_at));
    }
    dp.build_index();
    Store::save(&path, dp.geometry(), dp.index().unwrap()).unwrap();

    let session = StoreSession::open_lazy(&path).unwrap();
    let batch = [
        parse_query("between alpha and beta where permutations = 40 and include insignificant")
            .unwrap(),
        parse_query("between * and * where permutations = 40").unwrap(),
    ];
    let answers = session.query_many(&batch).unwrap();
    let read = session.bytes_fetched();
    let registry = polygamy_obs::global();
    let before = registry.snapshot();
    assert_eq!(session.query_many(&batch).unwrap(), answers);
    let after = registry.snapshot();
    std::fs::remove_file(&path).unwrap();

    assert_eq!(session.bytes_fetched(), read);
    let delta = |name| after.counter(name) - before.counter(name);
    assert_eq!(delta(names::STORE_SEGMENT_FAULTS), 0);
    assert_eq!(delta(names::STORE_PIN_SEGMENTS), 0);
    assert_eq!(delta(names::STORE_BYTES_FETCHED), 0);
    assert_eq!(delta(names::CORE_QUERY_CACHE_MISSES), 0);
    assert_eq!(delta(names::CORE_QUERY_CACHE_HITS), 4);
}
