//! The store's five byte-level decoders are total: any input — arbitrary
//! bytes, or a valid encoding with bytes flipped, the tail cut off, or a
//! length field overwritten with a huge value — yields `Ok` or a typed
//! [`StoreError`], never a panic, an arithmetic overflow or an allocation
//! sized by an unvalidated length (which would abort the test process).
//! The hot blob's run-length interval map gets its own mutation (a run
//! count or run length overwritten: run-sum overflow, runs that miss
//! `n_steps`, zero-length runs), and a manifest whose `field` location is
//! hostile is driven through real sessions. Version-1 files are refused
//! by version, not decoded.
//!
//! The shard catalog carries its own checksum, which would reject almost
//! every mutation before the payload decoder runs; mutated catalogs are
//! therefore decoded twice, as-is and re-sealed with a matching length and
//! checksum, so the payload decoder sees hostile input too.

use polygamy_core::prelude::*;
use polygamy_core::DataPolygamy;
use polygamy_store::codec::{decode_function_segment, encode_function_segment};
use polygamy_store::{
    blob_checksum, BlobLoc, Header, LazyIndex, LoadFilter, Manifest, SegmentInfo, ShardCatalog,
    Store, StoreError, StoreSession, SHARD_CATALOG_VERSION, SHARD_MAGIC, VERSION,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Length of the shard catalog's fixed header (magic, version, flags,
/// payload length, checksum).
const CATALOG_HEADER_LEN: usize = 32;

/// Byte offsets of leading u64 length/offset fields per format, indexed
/// like [`decode`]: the header's manifest offset and length, the
/// manifest's geometry location and catalog count, the hot blob's first
/// string length, the catalog's payload length and data set count. (A
/// field blob has no length field: its size *is* its shape claim.)
const LENGTH_FIELDS: [&[usize]; 5] = [&[16, 24], &[0, 8, 24], &[0], &[16, 32], &[0]];

const HOT: usize = 2;
const FIELD: usize = 4;

fn decode(kind: usize, bytes: &[u8]) -> Result<(), StoreError> {
    let valid = valid_encodings();
    match kind {
        0 => Header::decode(bytes).map(drop),
        1 => Manifest::decode(bytes).map(drop),
        // A damaged hot blob, alone and beside its intact field blob...
        HOT => decode_function_segment(bytes, None, 0, "fuzz")
            .and(decode_function_segment(
                bytes,
                Some(&valid[FIELD]),
                0,
                "fuzz",
            ))
            .map(drop),
        3 => ShardCatalog::decode(bytes).map(drop),
        // ...and a damaged field blob beside its intact hot blob.
        _ => decode_function_segment(&valid[HOT], Some(bytes), 0, "fuzz").map(drop),
    }
}

/// Offsets, in the valid hot blob, of the run count and of every run
/// length of its run-length interval map.
fn run_fields() -> &'static [usize] {
    static FIELDS: OnceLock<Vec<usize>> = OnceLock::new();
    FIELDS.get_or_init(|| {
        let hot = &valid_encodings()[HOT];
        let entry = decode_function_segment(hot, None, 0, "seed").unwrap();
        let t = &entry.thresholds;
        let n_runs = t.interval_of_step.chunk_by(|a, b| a == b).count();
        // Behind the runs: the id list, the threshold list, tree_nodes.
        let tail = (8 + 8 * t.interval_ids.len()) + (8 + 32 * t.per_interval.len()) + 8;
        let runs_at = hot.len() - tail - 16 * n_runs - 8;
        assert_eq!(hot[runs_at..runs_at + 8], (n_runs as u64).to_le_bytes());
        std::iter::once(runs_at)
            .chain((0..n_runs).map(|r| runs_at + 8 + 16 * r + 8))
            .collect()
    })
}

fn sample_framework() -> DataPolygamy {
    let meta = DatasetMeta {
        name: "sensor".into(),
        spatial_resolution: SpatialResolution::City,
        temporal_resolution: TemporalResolution::Hour,
        description: "fuzz seed".into(),
    };
    let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("signal"));
    // Long enough to cross a seasonal-interval boundary: the interval map
    // has more than one run.
    for h in 0..2_400i64 {
        let v = if h == 30 { 9.0 } else { (h % 24) as f64 * 0.1 };
        b.push(GeoPoint::new(0.5, 0.5), h * 3_600, &[v]).unwrap();
    }
    let mut dp = DataPolygamy::new(
        CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
        Config::fast_test(),
    );
    dp.add_dataset(b.build().unwrap());
    dp.build_index();
    dp
}

/// One valid encoding per decoder, indexed like [`decode`].
fn valid_encodings() -> &'static [Vec<u8>; 5] {
    static VALID: OnceLock<[Vec<u8>; 5]> = OnceLock::new();
    VALID.get_or_init(|| {
        let dp = sample_framework();
        let index = dp.index().unwrap();
        // The finest entry: the most steps, hence the most runs.
        let finest = index.functions.iter().max_by_key(|f| f.n_steps).unwrap();
        let (hot, field) = encode_function_segment(finest);
        let field = field.expect("fast_test keeps fields");

        let loc = |offset: u64, len: u64| BlobLoc {
            offset,
            len,
            checksum: offset ^ len,
        };
        let manifest = Manifest {
            geometry: loc(40, 100),
            datasets: index.datasets.clone(),
            segments: index
                .functions
                .iter()
                .enumerate()
                .map(|(i, f)| SegmentInfo {
                    dataset_index: f.dataset_index,
                    function: f.spec.name.clone(),
                    resolution: f.resolution,
                    loc: loc(140 + 512 * i as u64, 512),
                    field: (i % 2 == 0).then(|| loc(1 << 20, 4_096 * i as u64)),
                })
                .collect(),
        }
        .encode();
        let header = Header {
            version: VERSION,
            manifest_offset: 652,
            manifest_len: manifest.len() as u64,
            manifest_checksum: blob_checksum(&manifest),
        }
        .encode();
        let catalog = ShardCatalog {
            datasets: index.datasets.clone(),
            shard_of: vec![0],
            files: vec!["c.shard0.plst".into(), "c.shard1.plst".into()],
        }
        .encode();
        [header, manifest, hot, catalog, field]
    })
}

/// A catalog file whose header truthfully describes `payload`.
fn sealed_catalog(payload: &[u8]) -> Vec<u8> {
    let mut bytes = SHARD_MAGIC.to_vec();
    bytes.extend_from_slice(&SHARD_CATALOG_VERSION.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&blob_checksum(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn decoders_return_typed_errors_for_any_input(
        raw in proptest::collection::vec(0u8..=u8::MAX, 0..192),
        kind in 0usize..5,
        mutation in 0u8..4,
        positions in proptest::collection::vec(0usize..usize::MAX, 1..5),
        masks in proptest::collection::vec(1u8..=u8::MAX, 4),
        huge in prop_oneof![
            Just(u64::MAX),
            Just(u64::MAX / 2),
            Just(1u64 << 40),
            Just(u32::MAX as u64),
            Just(0u64),
            Just(1u64),
        ],
    ) {
        // (a) Arbitrary bytes, bare and behind each format's valid prefix.
        for k in 0..5 {
            let _ = decode(k, &raw);
        }
        let _ = decode(3, &sealed_catalog(&raw));

        // (b) A valid encoding, damaged.
        let valid = &valid_encodings()[kind];
        prop_assert!(decode(kind, valid).is_ok());
        let mut bytes = valid.clone();
        match mutation {
            0 => {
                for (p, m) in positions.iter().zip(&masks) {
                    let at = p % bytes.len();
                    bytes[at] ^= m;
                }
            }
            1 => bytes.truncate(positions[0] % bytes.len()),
            // The run-length interval map: a run count or run length
            // replaced — overflowing the run sum, missing `n_steps` by a
            // little or a lot, or zero.
            3 if kind == HOT => {
                let at = run_fields()[positions[0] % run_fields().len()];
                bytes[at..at + 8].copy_from_slice(&huge.to_le_bytes());
                // Any *different* run count or length breaks the cover.
                prop_assert!(
                    bytes == *valid || decode(kind, &bytes).is_err(),
                    "run field at {} = {}",
                    at,
                    huge
                );
            }
            _ => {
                // Half the time aim at a field that sizes a slice or an
                // allocation (see `LENGTH_FIELDS`), else anywhere.
                let fields = LENGTH_FIELDS[kind];
                let at = match positions[0] % 2 {
                    0 => fields[(positions[0] / 2) % fields.len()],
                    _ => positions[0] % (bytes.len() - 7),
                };
                bytes[at..at + 8].copy_from_slice(&huge.to_le_bytes());
            }
        }
        let _ = decode(kind, &bytes);
        if kind == 3 && bytes.len() >= CATALOG_HEADER_LEN {
            let _ = decode(3, &sealed_catalog(&bytes[CATALOG_HEADER_LEN..]));
        }
    }
}

struct Cleanup(std::path::PathBuf);

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Saves the sample corpus (twice over, as two data sets, so a pair query
/// exists) and returns the store's path and bytes.
fn saved_store(tag: &str) -> (Cleanup, Vec<u8>) {
    let path = std::env::temp_dir().join(format!(
        "polygamy-decoders-test-{}-{tag}.plst",
        std::process::id()
    ));
    let one = sample_framework();
    let mut twin = one.index().unwrap().clone();
    let mut second = twin.datasets[0].clone();
    second.meta.name = "twin".into();
    twin.datasets.push(second);
    for mut f in twin.functions.clone() {
        f.dataset_index = 1;
        f.spec.dataset = "twin".into();
        twin.functions.push(f);
    }
    Store::save(&path, one.geometry(), &twin).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (Cleanup(path), bytes)
}

/// The manifest is trusted only as far as its checksum goes, and the
/// checksum is no MAC: a well-sealed manifest can name any `field`
/// location. Every hostile one must end in a typed error — from the lazy
/// `thresholds` query that faults it, from the eager open and from
/// `verify_all` — while queries that never read the field keep serving.
#[test]
fn hostile_field_locations_yield_typed_errors() {
    let (cleanup, pristine) = saved_store("hostile-field");
    let path = &cleanup.0;
    let header = Header::decode(&pristine).unwrap();
    let manifest_at = header.manifest_offset as usize;
    let manifest = Manifest::decode(&pristine[manifest_at..]).unwrap();
    let good = manifest.segments[0].field.expect("sample keeps fields");
    let hot = manifest.segments[0].loc;
    let file_len = pristine.len() as u64;
    let resealed = |len: u64| BlobLoc {
        len,
        checksum: blob_checksum(&pristine[good.offset as usize..][..len as usize]),
        ..good
    };
    let hostile = [
        BlobLoc {
            offset: u64::MAX - 1,
            ..good
        }, // offset + len overflows
        BlobLoc {
            len: u64::MAX,
            ..good
        },
        BlobLoc {
            offset: file_len - 4,
            ..good
        }, // runs past the end
        BlobLoc {
            offset: file_len,
            len: 0,
            checksum: blob_checksum(&[]),
        },
        resealed(good.len - 8), // sealed, but one value short of the shape
        resealed(good.len + 8), // sealed, one value too many
        BlobLoc {
            checksum: good.checksum,
            ..hot
        }, // points at the hot blob
    ];
    let plain =
        parse_query("between sensor and twin where permutations = 5 and include insignificant")
            .unwrap();
    let with_field = parse_query(
        "between sensor and twin where permutations = 5 and include insignificant \
         and thresholds sensor (1.0, 0.5)",
    )
    .unwrap();
    for loc in hostile {
        let mut manifest = manifest.clone();
        manifest.segments[0].field = Some(loc);
        let manifest_bytes = manifest.encode();
        let mut bytes = pristine[..manifest_at].to_vec();
        bytes.extend_from_slice(&manifest_bytes);
        let header = Header {
            manifest_len: manifest_bytes.len() as u64,
            manifest_checksum: blob_checksum(&manifest_bytes),
            ..header
        };
        bytes[..40].copy_from_slice(&header.encode());
        std::fs::write(path, &bytes).unwrap();

        let typed = |e: &StoreError| {
            matches!(
                e,
                StoreError::Truncated { .. }
                    | StoreError::Corrupt(_)
                    | StoreError::ChecksumMismatch { .. }
            )
        };
        let lazy = StoreSession::open_lazy(path).unwrap();
        assert!(lazy.query(&plain).is_ok(), "{loc:?}: field-less query");
        let err = lazy.query(&with_field).unwrap_err();
        assert!(typed(&err), "{loc:?}: lazy thresholds query gave {err:?}");
        let err = StoreSession::open(path).unwrap_err();
        assert!(typed(&err), "{loc:?}: eager open gave {err:?}");
        let index = LazyIndex::new(Store::open(path).unwrap(), &LoadFilter::all()).unwrap();
        // `verify_all` checks bytes against checksums, not shapes: the two
        // well-sealed wrong-size blobs pass it and fail at decode above.
        if let Err(err) = index.verify_all() {
            assert!(typed(&err), "{loc:?}: verify_all gave {err:?}");
        }
    }
}

/// Stores are derived artifacts: a version-1 file is refused by version —
/// typed, naming both versions — and rebuilt, never decoded.
#[test]
fn version_1_files_are_refused_by_version() {
    let (cleanup, mut bytes) = saved_store("version-1");
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&cleanup.0, &bytes).unwrap();
    for result in [
        Store::open(&cleanup.0).map(drop),
        StoreSession::open(&cleanup.0).map(drop),
        StoreSession::open_lazy(&cleanup.0).map(drop),
    ] {
        assert!(matches!(
            result,
            Err(StoreError::UnsupportedVersion {
                found: 1,
                supported: 2
            })
        ));
    }
    let mut catalog = valid_encodings()[3].clone();
    catalog[8..12].copy_from_slice(&1u32.to_le_bytes());
    assert!(matches!(
        ShardCatalog::decode(&catalog),
        Err(StoreError::UnsupportedVersion {
            found: 1,
            supported: 2
        })
    ));
}
