//! Helpers the serve test binaries share: a small store, a server over
//! it, and the offline rendering served bytes are compared against.

#![allow(dead_code)] // each test binary uses its own subset

use polygamy_core::prelude::*;
use polygamy_core::DataPolygamy;
use polygamy_serve::{ServeOptions, Server};
use polygamy_store::{execute_pql_batch, Store, StoreSession};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Builds a small two-data-set store (so queries have candidate pairs)
/// in a fresh temp file and returns its path.
pub fn build_store() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "plst-serve-test-{}-{}.plst",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let mut dp = DataPolygamy::new(
        CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
        Config::fast_test(),
    );
    for (name, level, bump_at) in [
        ("taxi", 1.0, 100i64),
        ("weather", -2.0, 100),
        ("noise", 0.5, 333),
    ] {
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
        dp.add_dataset(b.build().unwrap());
    }
    dp.build_index();
    Store::save(&path, dp.geometry(), dp.index().unwrap()).unwrap();
    path
}

/// Starts a server over `path` on an ephemeral port.
pub fn start_server(path: &PathBuf, opts: ServeOptions) -> Server {
    let session = Arc::new(StoreSession::open(path).unwrap());
    Server::bind("127.0.0.1:0", session, opts).unwrap()
}

/// The offline reference rendering: each query executed through the CLI's
/// own helper on a fresh session, JSON per line.
pub fn offline_json(path: &PathBuf, batch: &str) -> String {
    let session = StoreSession::open(path).unwrap();
    execute_pql_batch(&session, batch)
        .unwrap()
        .iter()
        .map(|o| o.to_json())
        .collect::<Vec<_>>()
        .join("\n")
}
