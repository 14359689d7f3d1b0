//! An eager session holds a small multiple of what it decoded plus the
//! field blobs it left encoded, and checking a field blob allocates
//! nothing.
//!
//! An eager open decodes every admitted hot blob and leaves the scalar
//! fields — a mask and runs on disk, eight bytes a value in memory —
//! encoded in the file, validating each blob's structure with a walk that
//! produces no values. A counting global allocator (`support`) pins both:
//! the bytes a session still holds after `open`, and the allocations of
//! one `validate_field` call.

mod support;

use polygamy_core::index::FunctionEntry;
use polygamy_core::prelude::*;
use polygamy_core::DataPolygamy;
use polygamy_stdata::Polygon;
use polygamy_store::codec::{encode_field, validate_field};
use polygamy_store::{LoadFilter, Store, StoreSession};

#[global_allocator]
static GLOBAL: support::Counting = support::Counting;

const GRID: (i64, i64) = (8, 4);

/// An 8 × 4-neighbourhood city under four zip codes (columns of two).
fn geometry() -> CityGeometry {
    let (w, h) = GRID;
    let cells: Vec<(i64, i64)> = (0..h).flat_map(|y| (0..w).map(move |x| (x, y))).collect();
    let rect = |x: i64, y: i64, w: i64, h: i64| {
        Polygon::rect(x as f64, y as f64, (x + w) as f64, (y + h) as f64)
    };
    let polygons = cells.iter().map(|&(x, y)| rect(x, y, 1, 1)).collect();
    let adjacency = (cells.iter())
        .map(|&(x, y)| {
            let east = (x + 1 < w).then_some((y * w + x + 1) as u32);
            let north = (y + 1 < h).then_some(((y + 1) * w + x) as u32);
            east.into_iter().chain(north).collect()
        })
        .collect();
    let zips = (0..4).map(|z| rect(2 * z, 0, 2, h)).collect();
    let zip_adjacency = vec![vec![1], vec![0, 2], vec![1, 3], vec![2]];
    CityGeometry {
        neighborhood: Some(
            SpatialPartition::new(SpatialResolution::Neighborhood, polygons, adjacency).unwrap(),
        ),
        zip: Some(SpatialPartition::new(SpatialResolution::Zip, zips, zip_adjacency).unwrap()),
        city: SpatialPartition::city(0.0, 0.0, w as f64, h as f64),
    }
}

/// A sparse hourly GPS data set, the shape of an urban event layer: most
/// (region, hour) cells hold no record, so its fields are long runs the
/// codec stores in a few bytes and a decode would blow up to eight each.
fn sparse_dataset(name: &str, phase: i64) -> Dataset {
    let meta = DatasetMeta {
        name: name.into(),
        spatial_resolution: SpatialResolution::Gps,
        temporal_resolution: TemporalResolution::Hour,
        description: String::new(),
    };
    let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("severity"));
    for h in (phase..2_400).step_by(5) {
        let cell = (h * 7 + phase) % (GRID.0 * GRID.1);
        let at = GeoPoint::new((cell % GRID.0) as f64 + 0.5, (cell / GRID.0) as f64 + 0.5);
        let records = if h % 85 == 0 { 5 } else { 1 };
        for k in 0..records {
            b.push(at, h * 3_600 + k * 60, &[(h % 5) as f64])
                .expect("schema matches");
        }
    }
    b.build().expect("dataset builds")
}

/// What decoding `entry`'s hot blob leaves in memory: the entry itself and
/// its four feature vectors.
fn decoded_hot_bytes(entry: &FunctionEntry) -> u64 {
    (std::mem::size_of::<FunctionEntry>() + entry.features.approx_bytes()) as u64
}

#[test]
fn an_eager_session_holds_at_most_twice_its_decoded_hot_entries_and_field_blobs() {
    let path = std::env::temp_dir().join(format!(
        "polygamy-eager-allocations-{}.plst",
        std::process::id()
    ));
    let mut dp = DataPolygamy::new(geometry(), Config::fast_test());
    dp.add_dataset(sparse_dataset("events", 0));
    dp.add_dataset(sparse_dataset("incidents", 3));
    dp.build_index();
    let index = dp.index().unwrap();
    let store = Store::save(&path, dp.geometry(), index).unwrap();
    let segments = &store.manifest().segments;
    let field_blob_bytes: u64 = segments.iter().filter_map(|s| s.field).map(|f| f.len).sum();
    drop(store);
    let hot_bytes: u64 = index.functions.iter().map(decoded_hot_bytes).sum();
    let bound = 2 * (hot_bytes + field_blob_bytes);
    let fields = index.functions.iter().filter_map(|f| f.field.as_ref());
    let decoded_field_bytes: u64 = fields.map(|f| 8 * f.values.len() as u64).sum();
    // The corpus is one on which holding the fields decoded could not pass.
    assert!(
        decoded_field_bytes > 2 * bound,
        "{decoded_field_bytes} B of fields, a {bound} B bound"
    );

    let before = support::live_bytes();
    let session = StoreSession::open_with(&path, Config::fast_test(), &LoadFilter::all());
    let held = support::live_bytes() - before;
    std::fs::remove_file(&path).unwrap();
    let session = session.unwrap();
    assert_eq!(
        session.index().unwrap().functions.len(),
        index.functions.len()
    );
    assert!(
        held > 0 && held as u64 <= bound,
        "an eager session holds {held} B over {hot_bytes} B of decoded hot entries \
         and {field_blob_bytes} B of field blobs"
    );
}

#[test]
fn validating_a_field_blob_allocates_nothing() {
    // Both modes, runs and literal stretches, one- and multi-byte counts,
    // behind a mask of zero runs, ones runs and literal words.
    let counts: Vec<f64> = (0..200_000u32)
        .map(|i| match (i, i % 50) {
            (..=9_999, _) => f64::NAN,
            (..=19_999, r) => f64::from(r % 7),
            (_, 0..=30) => f64::NAN,
            (_, 31..=40) => 0.0,
            (_, 41) => 300.0,
            (_, r) => f64::from(r),
        })
        .collect();
    let words: Vec<f64> = counts.iter().map(|v| v * 0.37).collect();
    for values in [counts, words] {
        let blob = encode_field(&values);
        let before = support::allocations();
        let verdict = validate_field(&blob, values.len(), "test field");
        assert_eq!(support::allocations(), before);
        verdict.unwrap();
        assert!(validate_field(&blob, values.len() + 1, "test field").is_err());
    }
}
