//! Persistent store walkthrough: index once, save to disk, serve queries
//! from a reopened session — the raw data never travels to query time.
//!
//! ```text
//! cargo run --release --example persistent_store
//! ```

use polygamy_core::prelude::*;
use polygamy_core::DataPolygamy;
use polygamy_store::{Store, StoreSession};

fn make_dataset(name: &str, level: f64, spikes: &[i64]) -> Dataset {
    let meta = DatasetMeta {
        name: name.into(),
        spatial_resolution: SpatialResolution::City,
        temporal_resolution: TemporalResolution::Hour,
        description: format!("persistent-store demo data set {name}"),
    };
    let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("signal"));
    for h in 0..2_000i64 {
        let rhythm = ((h % 24) as f64 / 24.0 * std::f64::consts::TAU).sin();
        let spike = if spikes.contains(&h) { 25.0 } else { 0.0 };
        b.push(
            GeoPoint::new(0.5, 0.5),
            h * 3_600,
            &[level + rhythm + spike],
        )
        .expect("schema matches");
    }
    b.build().expect("dataset builds")
}

fn main() {
    let path = std::env::temp_dir().join("polygamy-example.plst");
    let spikes = [150i64, 700, 1200, 1800];

    // 1. Index once (the expensive part) and persist the result.
    let mut dp = DataPolygamy::new(
        CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
        Config::default(),
    );
    dp.add_dataset(make_dataset("sensors-a", 10.0, &spikes));
    dp.add_dataset(make_dataset("sensors-b", -3.0, &spikes));
    dp.build_index();
    let store =
        Store::save(&path, dp.geometry(), dp.index().expect("index built")).expect("store writes");
    println!(
        "saved {} segments, {} bytes -> {}",
        store.manifest().segments.len(),
        store.file_bytes().expect("metadata"),
        path.display()
    );

    // 2. Incremental maintenance: a third data set joins the corpus without
    //    re-indexing the first two.
    Store::upsert_dataset(
        &path,
        &make_dataset("sensors-c", 4.0, &spikes),
        &Config::default(),
    )
    .expect("upsert succeeds");

    // 3. Any later process opens a serving session straight from the file —
    //    no raw data, no rebuild. Sessions are shared across reader threads.
    let session = StoreSession::open(&path).expect("store opens");
    let query =
        RelationshipQuery::all().with_clause(Clause::default().min_score(0.5).permutations(200));
    std::thread::scope(|s| {
        for worker in 0..2 {
            let session = &session;
            let query = query.clone();
            s.spawn(move || {
                let rels = session.query(&query).expect("query evaluates");
                println!(
                    "[reader {worker}] {} significant relationship(s)",
                    rels.len()
                );
            });
        }
    });
    for rel in session.query(&query).expect("query evaluates") {
        println!("  {rel}");
    }
    println!(
        "cache holds {} per-pair result(s) shared by all readers",
        session.cache_len()
    );

    // 4. Demand paging: a lazy session reads header, manifest and geometry
    //    at open, and then only the segments a query's pairs touch.
    let lazy = StoreSession::open_lazy(&path).expect("store opens");
    let opened = lazy.bytes_fetched();
    let pair = RelationshipQuery::between(&["sensors-a"], &["sensors-c"])
        .with_clause(Clause::default().permutations(200));
    lazy.query(&pair).expect("query evaluates");
    println!(
        "lazy session read {opened} bytes at open, {} after a one-pair query (file: {} bytes)",
        lazy.bytes_fetched(),
        std::fs::metadata(&path).expect("metadata").len()
    );

    let _ = std::fs::remove_file(&path);
}
