//! The store's four byte-level decoders are total: any input — arbitrary
//! bytes, or a valid encoding with bytes flipped, the tail cut off, or a
//! length field overwritten with a huge value — yields `Ok` or a typed
//! [`StoreError`], never a panic, an arithmetic overflow or an allocation
//! sized by an unvalidated length (which would abort the test process).
//!
//! The shard catalog carries its own checksum, which would reject almost
//! every mutation before the payload decoder runs; mutated catalogs are
//! therefore decoded twice, as-is and re-sealed with a matching length and
//! checksum, so the payload decoder sees hostile input too.

use polygamy_core::prelude::*;
use polygamy_core::{DataPolygamy, Fnv1a};
use polygamy_store::codec::{decode_function_segment, encode_function_segment};
use polygamy_store::{
    BlobLoc, Header, Manifest, SegmentInfo, ShardCatalog, StoreError, SHARD_CATALOG_VERSION,
    SHARD_MAGIC, VERSION,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Length of the shard catalog's fixed header (magic, version, flags,
/// payload length, checksum).
const CATALOG_HEADER_LEN: usize = 32;

/// Byte offsets of leading u64 length/offset fields per format, indexed
/// like [`decode`]: the header's manifest offset and length, the
/// manifest's geometry location and catalog count, the segment's first
/// string length, the catalog's payload length and data set count.
const LENGTH_FIELDS: [&[usize]; 4] = [&[16, 24], &[0, 8, 24], &[0], &[16, 32]];

fn decode(kind: usize, bytes: &[u8]) -> Result<(), StoreError> {
    match kind {
        0 => Header::decode(bytes).map(drop),
        1 => Manifest::decode(bytes).map(drop),
        2 => decode_function_segment(bytes, 0, "fuzz").map(drop),
        _ => ShardCatalog::decode(bytes).map(drop),
    }
}

/// One valid encoding per decoder, indexed like [`decode`].
fn valid_encodings() -> &'static [Vec<u8>; 4] {
    static VALID: OnceLock<[Vec<u8>; 4]> = OnceLock::new();
    VALID.get_or_init(|| {
        let meta = DatasetMeta {
            name: "sensor".into(),
            spatial_resolution: SpatialResolution::City,
            temporal_resolution: TemporalResolution::Hour,
            description: "fuzz seed".into(),
        };
        let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("signal"));
        for h in 0..96i64 {
            let v = if h == 30 { 9.0 } else { (h % 24) as f64 * 0.1 };
            b.push(GeoPoint::new(0.5, 0.5), h * 3_600, &[v]).unwrap();
        }
        let mut dp = DataPolygamy::new(
            CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
            Config::fast_test(),
        );
        dp.add_dataset(b.build().unwrap());
        dp.build_index();
        let index = dp.index().unwrap();
        let segment = encode_function_segment(&index.functions[0]);

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
                })
                .collect(),
        }
        .encode();
        let header = Header {
            version: VERSION,
            manifest_offset: 652,
            manifest_len: manifest.len() as u64,
            manifest_checksum: Fnv1a::hash_bytes(&manifest),
        }
        .encode();
        let catalog = ShardCatalog {
            datasets: index.datasets.clone(),
            shard_of: vec![0],
            files: vec!["c.shard0.plst".into(), "c.shard1.plst".into()],
        }
        .encode();
        [header, manifest, segment, catalog]
    })
}

/// A catalog file whose header truthfully describes `payload`.
fn sealed_catalog(payload: &[u8]) -> Vec<u8> {
    let mut bytes = SHARD_MAGIC.to_vec();
    bytes.extend_from_slice(&SHARD_CATALOG_VERSION.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&Fnv1a::hash_bytes(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn decoders_return_typed_errors_for_any_input(
        raw in proptest::collection::vec(0u8..=u8::MAX, 0..192),
        kind in 0usize..4,
        mutation in 0u8..3,
        positions in proptest::collection::vec(0usize..usize::MAX, 1..5),
        masks in proptest::collection::vec(1u8..=u8::MAX, 4),
        huge in prop_oneof![
            Just(u64::MAX),
            Just(u64::MAX / 2),
            Just(1u64 << 40),
            Just(u32::MAX as u64),
        ],
    ) {
        // (a) Arbitrary bytes, bare and behind each format's valid prefix.
        for k in 0..4 {
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
