//! The store's five byte-level decoders are total: any input — arbitrary
//! bytes, or a valid encoding with bytes flipped, the tail cut off, or a
//! length field overwritten with a huge value — yields `Ok` or a typed
//! [`StoreError`], never a panic, an arithmetic overflow or an allocation
//! sized by an unvalidated length (which would abort the test process).
//! A hot blob is decoded under its directory record, whose window gets its
//! own mutation (`n_regions` or `n_steps` replaced: a product that
//! overflows, is zero, or misses the bits the vectors declare); its
//! word-run bit vectors are fed arbitrary token streams under a valid
//! window, round-trip bit for bit at the lengths around a word boundary,
//! and a directory declaring 2⁴⁰ vertices over a hot blob of under 100
//! bytes is refused within a counted allocation bound, as is a manifest or
//! shard catalog whose count claims a record per byte. The
//! field blob — a word-run mask, then the defined values run-length coded —
//! carries no shape, so its decoder is also driven directly: arbitrary
//! bytes against arbitrary shapes, bare and behind a valid mask, and valid
//! blobs of both modes with every mask token, every value token header, the
//! mask's length, the mode byte and the tail damaged in turn, each input
//! also through `validate_field`, the walk an eager open runs in place of
//! the decode, which must agree word for word; and a manifest whose `field`
//! location is hostile is driven through real sessions, as is one whose
//! window misses its vectors. Files of versions 1 to 8 are refused by
//! version, not decoded.
//!
//! The sixth decoder, the geometry blob's, is reached the way a reader
//! reaches it: through `Store::load_geometry` on a truthfully sealed file.
//! Arbitrary bytes and damaged valid blobs (bytes flipped, the tail cut
//! off, a count, a coordinate or a neighbour index replaced) must end in a
//! typed error or in a geometry that is safe to index by; every count of a
//! valid blob overwritten with a hostile value, a cut at every section
//! boundary and bytes appended must each end in a typed error; and a store
//! carrying a hostile geometry must end every session path in a typed
//! error on the coordinating thread.
//!
//! The shard catalog carries its own checksum, which would reject almost
//! every mutation before the payload decoder runs; mutated catalogs are
//! therefore decoded twice, as-is and re-sealed with a matching length and
//! checksum, so the payload decoder sees hostile input too.

mod support;

use polygamy_core::index::FunctionEntry;
use polygamy_core::prelude::*;
use polygamy_core::DataPolygamy;
use polygamy_stdata::Polygon;
use polygamy_store::codec::{
    decode_field, decode_function_segment, encode_field, encode_function_segment, encode_geometry,
    validate_field,
};
use polygamy_store::{
    blob_checksum, BlobLoc, Header, LazyIndex, Manifest, SegmentInfo, ShardCatalog, Store,
    StoreError, StoreSession, SHARD_CATALOG_VERSION, SHARD_MAGIC, VERSION,
};
use polygamy_topology::{BitVec, FeatureSet, FeatureSets};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

#[global_allocator]
static GLOBAL: support::Counting = support::Counting;

/// Length of the shard catalog's fixed header (magic, version, flags,
/// payload length, checksum).
const CATALOG_HEADER_LEN: usize = 32;

/// Byte offsets of length fields per format, indexed like [`decode`]: the
/// header's manifest offset and length; the manifest's geometry location,
/// catalog and directory counts, and its first record's name length,
/// `n_regions` and `n_steps`; the hot blob's first bit count; the catalog's
/// payload length and data set count; the field blob's mask length and
/// first mask token. A u64 overwrites eight bytes from each.
fn length_fields(kind: usize) -> &'static [usize] {
    static MANIFEST: OnceLock<Vec<usize>> = OnceLock::new();
    let fixed: [&'static [usize]; 5] = [&[16, 24], &[], &[0], &[16, 32], &[0]];
    if kind != 1 {
        return fixed[kind];
    }
    MANIFEST.get_or_init(|| {
        let manifest = Manifest::decode(&valid_encodings()[1]).unwrap();
        let records_at = Manifest {
            segments: Vec::new(),
            ..manifest.clone()
        }
        .encode()
        .len();
        let [regions_at, steps_at] = window_fields(&manifest);
        vec![
            0,
            8,
            24,
            records_at - 8,
            records_at + 8,
            regions_at,
            steps_at,
        ]
    })
}

/// Offsets, in `manifest`'s encoding, of its first record's `n_regions`
/// and `n_steps`: the first byte that moves when either does (each a
/// varint whose low bit is flipped).
fn window_fields(manifest: &Manifest) -> [usize; 2] {
    let bytes = manifest.encode();
    let moved = |flip: &dyn Fn(&mut SegmentInfo)| {
        let mut flipped = manifest.clone();
        flip(&mut flipped.segments[0]);
        let other = flipped.encode();
        (bytes.iter().zip(&other))
            .position(|(a, b)| a != b)
            .unwrap()
    };
    [moved(&|s| s.n_regions ^= 1), moved(&|s| s.n_steps ^= 1)]
}

const HOT: usize = 2;
const FIELD: usize = 4;

fn decode(kind: usize, bytes: &[u8]) -> Result<(), StoreError> {
    let valid = valid_encodings();
    match kind {
        0 => Header::decode(bytes).map(drop),
        1 => Manifest::decode(bytes).map(drop),
        // A damaged hot blob, alone and beside its intact field blob...
        HOT => decode_seed(bytes, None)
            .and(decode_seed(bytes, Some(&valid[FIELD])))
            .map(drop),
        3 => ShardCatalog::decode(bytes).map(drop),
        // ...and a damaged field blob beside its intact hot blob.
        _ => decode_seed(&valid[HOT], Some(bytes)).map(drop),
    }
}

/// Decodes a hot blob, and a field blob, under the seed's directory record.
fn decode_seed(hot: &[u8], field: Option<&[u8]>) -> Result<FunctionEntry, StoreError> {
    decode_under(&seed().record, hot, field)
}

/// Decodes blobs under `record` and the seed's data set name.
fn decode_under(
    record: &SegmentInfo,
    hot: &[u8],
    field: Option<&[u8]>,
) -> Result<FunctionEntry, StoreError> {
    decode_function_segment(record, 0, &seed().dataset, hot, field, "fuzz")
}

/// `record` as a reader gets it: in a one-segment manifest over the seed's
/// catalog, encoded and decoded again — or the manifest's refusal.
fn through_a_manifest(record: SegmentInfo) -> Result<SegmentInfo, StoreError> {
    let mut manifest = Manifest::decode(&valid_encodings()[1]).unwrap();
    manifest.segments = vec![record];
    Ok(Manifest::decode(&manifest.encode())?.segments.remove(0))
}

fn sample_framework() -> DataPolygamy {
    let meta = DatasetMeta {
        name: "sensor".into(),
        spatial_resolution: SpatialResolution::City,
        temporal_resolution: TemporalResolution::Hour,
        description: "fuzz seed".into(),
    };
    let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("signal"));
    // Long enough to cross a seasonal-interval boundary: the features were
    // scanned against more than one interval's thresholds.
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

/// One valid encoding per decoder, indexed like [`decode`]; the directory
/// record the hot and field blobs were written under, and their data set's
/// name.
struct Seed {
    encodings: [Vec<u8>; 5],
    record: SegmentInfo,
    dataset: Arc<str>,
}

fn seed() -> &'static Seed {
    static SEED: OnceLock<Seed> = OnceLock::new();
    SEED.get_or_init(|| {
        let dp = sample_framework();
        let index = dp.index().unwrap();
        // The finest entry: the most steps, hence the most feature words.
        let finest = index.functions.iter().max_by_key(|f| f.n_steps).unwrap();
        let (hot, field) = encode_function_segment(finest);
        let field = field.expect("indexing keeps fields");

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
                    loc: loc(140 + 512 * i as u64, 512),
                    field: (i % 2 == 0).then(|| loc(1 << 20, 4_096 * i as u64)),
                    ..SegmentInfo::of(f)
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
        Seed {
            encodings: [header, manifest, hot, catalog, field],
            record: SegmentInfo::of(finest),
            dataset: Arc::clone(&finest.spec.name.dataset),
        }
    })
}

fn valid_encodings() -> &'static [Vec<u8>; 5] {
    &seed().encodings
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
            // The window of the hot blob's directory record: `n_regions`
            // or `n_steps` replaced — a product that overflows, is zero, or
            // misses the vectors' bits by a little or a lot.
            3 if kind == HOT => {
                let mut record = seed().record.clone();
                match positions[0] % 2 {
                    0 => record.n_regions = huge as usize,
                    _ => record.n_steps = huge as usize,
                }
                // The manifest refuses a window no entry has; any other
                // *different* window breaks the vectors' bit counts.
                let decoded = through_a_manifest(record.clone())
                    .and_then(|record| decode_under(&record, &bytes, None));
                prop_assert!(
                    record == seed().record || decoded.is_err(),
                    "window {} × {}",
                    record.n_regions,
                    record.n_steps
                );
            }
            _ => {
                // Half the time aim at a field that sizes a slice or an
                // allocation (see `length_fields`), else anywhere.
                let fields = length_fields(kind);
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

    /// The field decoder against shapes the bytes know nothing about:
    /// arbitrary bytes — and small ones, which spell short tokens and get
    /// deep into the walk — bare, as the tokens of a mask of the right
    /// length, and as value tokens behind each mode byte and a valid mask,
    /// for any vertex count. It answers with exactly that many values or a
    /// typed error.
    #[test]
    fn field_decoder_returns_typed_errors_for_any_input_and_shape(
        raw in proptest::collection::vec(0u8..=u8::MAX, 0..96),
        small in proptest::collection::vec(0u8..12, 0..64),
        mode in 0u8..3,
        n_vertices in 0usize..600,
        gaps in 1usize..70,
    ) {
        let values: Vec<f64> = (0..n_vertices)
            .map(|i| if i % gaps == 0 { f64::NAN } else { i as f64 })
            .collect();
        let valid = encode_field(&values);
        let mask = &valid[..field_layout(&valid).mode_at];
        for tokens in [&raw, &small] {
            let as_mask = [leb128(n_vertices as u128).as_slice(), tokens].concat();
            let behind_mask = [mask, &[mode][..], tokens].concat();
            for bytes in [tokens, &as_mask, &behind_mask] {
                let outcome = check_field_decode(bytes, n_vertices);
                prop_assert!(outcome.is_ok(), "{:?}", outcome);
            }
        }
    }

    /// A hot blob's bit vectors as arbitrary word-run token streams under a
    /// valid window: each decodes to the entry's vertex count or is a typed
    /// error.
    #[test]
    fn hot_bit_vectors_return_typed_errors_for_any_token_stream(
        raw in proptest::collection::vec(0u8..=u8::MAX, 0..128),
        small in proptest::collection::vec(0u8..24, 0..64),
        n_steps in 0u64..300,
    ) {
        for tokens in [&raw, &small] {
            let header = leb128(u128::from(n_steps));
            let bytes = [header.as_slice(), tokens].concat();
            match decode_under(&one_region(n_steps as usize), &bytes, None) {
                Ok(entry) => prop_assert_eq!(entry.features.salient.pos.len() as u64, n_steps),
                Err(StoreError::Corrupt(_)) => {}
                Err(other) => prop_assert!(false, "{:?}", other),
            }
        }
    }

    /// Bit vectors round-trip bit for bit through a hot blob — empty, one
    /// bit, either side of a word boundary, and all ones with a partial
    /// last word, whose padding bits must stay clear — and encode to the
    /// same bytes again.
    #[test]
    fn bit_vectors_roundtrip_bit_exact(
        len in prop_oneof![Just(0usize), Just(1), Just(63), Just(64), Just(65), 0usize..5_000],
        pattern in 0u8..4,
        seed in 0u64..u64::MAX,
    ) {
        let mut x = seed | 1;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        let mut vectors = [(); 4].map(|()| BitVec::zeros(len));
        for (k, bv) in vectors.iter_mut().enumerate() {
            // All ones, all zeros, scattered bits, or blocks of up to
            // three words.
            let block = 1 + next() as usize % 200;
            for i in 0..len {
                let set = match (pattern + k as u8) % 4 {
                    0 => true,
                    1 => false,
                    2 => next() % 5 == 0,
                    _ => (i / block) % 2 == 0,
                };
                if set {
                    bv.set(i);
                }
            }
        }
        let entry = entry_with_features(vectors.clone());
        let (hot, _) = encode_function_segment(&entry);
        let back = decode_under(&SegmentInfo::of(&entry), &hot, None).unwrap();
        let fs = &back.features;
        let decoded = [&fs.salient.pos, &fs.salient.neg, &fs.extreme.pos, &fs.extreme.neg];
        for (got, want) in decoded.into_iter().zip(&vectors) {
            prop_assert_eq!(got.len(), want.len());
            prop_assert_eq!(got.words(), want.words());
        }
        prop_assert_eq!(encode_function_segment(&back).0, hot);
    }
}

/// The seed's directory record with a window of one region and `n_steps`
/// steps.
fn one_region(n_steps: usize) -> SegmentInfo {
    SegmentInfo {
        n_regions: 1,
        n_steps,
        ..seed().record.clone()
    }
}

/// A one-region, field-less entry over the four vectors' length.
fn entry_with_features([sp, sn, ep, en]: [BitVec; 4]) -> FunctionEntry {
    let n_steps = sp.len();
    FunctionEntry {
        spec: FunctionSpec::density("d"),
        dataset_index: 0,
        resolution: Resolution::new(SpatialResolution::City, TemporalResolution::Hour),
        n_regions: 1,
        start_bucket: 0,
        n_steps,
        features: FeatureSets {
            salient: FeatureSet { pos: sp, neg: sn },
            extreme: FeatureSet { pos: ep, neg: en },
        },
        field: None,
    }
}

/// A directory record declaring 2⁴⁰ vertices — a window the manifest
/// accepts — over a hot blob of under 100 bytes whose first vector declares
/// as many bits, spelled by two-byte tokens of 64 zero words each until the
/// bytes run out. The decoder grows the vector token by token, so it fails
/// at the payload's end having allocated what the bytes it consumed could
/// spell — at most 256 bytes of words per byte, four times that counting
/// every capacity a doubling vector passes through — never the 128 GiB
/// declared. A vector declaring another length than the window is refused
/// before its first token.
#[test]
fn a_short_hot_blob_declaring_2_pow_40_bits_is_refused_within_the_bound() {
    let bits = 1u64 << 40;
    let record = through_a_manifest(one_region(bits as usize)).unwrap();
    let run_of_64_zero_words = leb128(64 << 2);
    let mut hot = leb128(bits.into());
    while hot.len() + run_of_64_zero_words.len() < 100 {
        hot.extend_from_slice(&run_of_64_zero_words);
    }
    let before = support::allocated_bytes();
    let result = decode_under(&record, &hot, None);
    let allocated = support::allocated_bytes() - before;
    assert!(
        matches!(
            result,
            Err(StoreError::Corrupt(_) | StoreError::Truncated { .. })
        ),
        "{result:?}"
    );
    let bound = 4 * 256 * hot.len() as u64 + 1_024;
    assert!(
        hot.len() < 100 && allocated <= bound,
        "{allocated} B allocated decoding {} B, bound {bound} B",
        hot.len()
    );

    let mismatched = [leb128(bits.into()), vec![0x80, 0x02]].concat();
    let record = through_a_manifest(one_region(1_000)).unwrap();
    let before = support::allocated_bytes();
    let err = decode_under(&record, &mismatched, None).unwrap_err();
    assert!(support::allocated_bytes() - before <= 1_024);
    assert!(
        matches!(&err, StoreError::Corrupt(m) if m.contains("salient.pos covers 1099511627776 bits, expected 1000")),
        "{err:?}"
    );
}

/// A count that claims one record per byte left — of a manifest's catalog
/// or segment directory, of a shard catalog's data sets or file names — in
/// a 64 KiB payload of zeros is refused having allocated at most four bytes
/// per payload byte: each count is bounded by its record's smallest
/// encoding before anything is reserved for the records. (Bounded by one
/// byte a record, the reservation alone was 24–96 bytes per payload byte.)
/// So is a count of one record per 8, 42, 47 or 50 bytes — the smallest
/// file name, catalog entry, directory record and shard catalog data set —
/// which the bound lets through to records of zeros.
#[test]
fn a_count_claiming_a_record_per_byte_is_refused_within_the_bound() {
    let zeros = vec![0u8; 64 << 10];
    let none = 0u64.to_le_bytes();
    let geometry = [0u8; 24];
    for bytes_per_record in [1, 8, 42, 47, 50] {
        let claimed = ((zeros.len() / bytes_per_record) as u64).to_le_bytes();
        let manifests = [
            ("catalog", [&geometry[..], &claimed, &zeros].concat()),
            (
                "directory",
                [&geometry[..], &none, &claimed, &zeros].concat(),
            ),
        ];
        let catalogs = [
            ("shard data sets", [&claimed[..], &zeros].concat()),
            ("shard files", [&none[..], &claimed, &zeros].concat()),
        ]
        .map(|(case, payload)| (case, sealed_catalog(&payload)));
        for (i, (case, bytes)) in manifests.iter().chain(&catalogs).enumerate() {
            let before = support::allocated_bytes();
            let result = match i {
                0 | 1 => Manifest::decode(bytes).map(drop),
                _ => ShardCatalog::decode(bytes).map(drop),
            };
            let allocated = support::allocated_bytes() - before;
            let case = format!("{case}, a record per {bytes_per_record} B");
            assert!(
                matches!(result, Err(StoreError::Corrupt(_))),
                "{case}: {result:?}"
            );
            let bound = 4 * bytes.len() as u64 + 1_024;
            assert!(
                allocated <= bound,
                "{case}: {allocated} B allocated decoding {} B, bound {bound} B",
                bytes.len()
            );
        }
    }
}

/// `decode_field` answers with exactly `n_vertices` values or with
/// `Corrupt` naming the blob — the two outcomes a field decode may have —
/// and `validate_field`, the same walk without the values (what an eager
/// open runs), reaches the same verdict in the same words.
fn check_field_decode(bytes: &[u8], n_vertices: usize) -> Result<bool, String> {
    let decoded = decode_field(bytes, n_vertices, "fuzz field");
    let validated = validate_field(bytes, n_vertices, "fuzz field");
    let verdict = |e: &StoreError| e.to_string();
    if validated.as_ref().err().map(verdict) != decoded.as_ref().err().map(verdict) {
        return Err(format!("validated {validated:?}, decoded {decoded:?}"));
    }
    match decoded {
        Ok(values) if values.len() == n_vertices => Ok(true),
        Ok(values) => Err(format!("{} values for {n_vertices} vertices", values.len())),
        Err(StoreError::Corrupt(message)) if message.starts_with("fuzz field: ") => Ok(false),
        Err(other) => Err(format!("{other:?}")),
    }
}

/// Unsigned LEB128 of a value that may not fit 64 bits.
fn leb128(mut v: u128) -> Vec<u8> {
    let mut bytes = Vec::new();
    while v >= 0x80 {
        bytes.push(v as u8 | 0x80);
        v >>= 7;
    }
    bytes.push(v as u8);
    bytes
}

/// Where the parts of a valid field blob sit.
struct FieldLayout {
    /// Byte length of the mask's bit count, the blob's first bytes.
    mask_header_len: usize,
    /// Offset, byte length and kind of every mask token header.
    mask_tokens: Vec<(usize, usize, u64)>,
    /// Offset of the mode byte.
    mode_at: usize,
    /// Offset, byte length and run flag of every value token header.
    value_tokens: Vec<(usize, usize, bool)>,
}

fn field_layout(blob: &[u8]) -> FieldLayout {
    let varint = |at: usize| {
        let n = blob[at..].iter().position(|b| b & 0x80 == 0).unwrap() + 1;
        let value = (0..n).fold(0u64, |v, i| v | u64::from(blob[at + i] & 0x7f) << (7 * i));
        (value, n)
    };
    let (bits, mask_header_len) = varint(0);
    let mut at = mask_header_len;
    let mut mask_tokens = Vec::new();
    let mut words = 0;
    while words < bits.div_ceil(64) {
        let (token, n) = varint(at);
        mask_tokens.push((at, n, token & 3));
        at += n;
        if token & 3 == 2 {
            at += 8 * (token >> 2) as usize;
        }
        words += token >> 2;
    }
    let mode_at = at;
    let counts = blob[mode_at] == 1;
    let mut value_tokens = Vec::new();
    at += 1;
    while at < blob.len() {
        let (token, n) = varint(at);
        value_tokens.push((at, n, token & 1 == 1));
        at += n;
        let values = if token & 1 == 1 { 1 } else { token >> 1 };
        for _ in 0..values {
            at += if counts { varint(at).1 } else { 8 };
        }
    }
    assert_eq!(at, blob.len());
    FieldLayout {
        mask_header_len,
        mask_tokens,
        mode_at,
        value_tokens,
    }
}

/// `blob` with the `len` bytes at `at` replaced by `with`.
fn spliced(blob: &[u8], at: usize, len: usize, with: &[u8]) -> Vec<u8> {
    [&blob[..at], with, &blob[at + len..]].concat()
}

/// Valid field blobs of both modes, damaged one place at a time: every
/// value token's run length or literal count replaced by 0, 1, 2³², 2⁴⁰,
/// 2⁶³ and 2⁶⁴ − 1 (the last two no longer fit the token's 64 bits); every
/// mask token replaced by each kind at lengths 0, 1, 64, 65 and 2⁴⁰; the
/// mask's bit count off by one or huge; the mode byte flipped to every
/// other value; the tail cut at every offset; one byte appended. Each ends
/// in `Corrupt` or in exactly the entry's vertices.
#[test]
fn damaged_field_blobs_are_rejected_or_decode_to_the_shape() {
    // A sparse count layer, a mostly undefined attribute layer, and the
    // dense hourly series of the seed corpus.
    let sparse: Vec<f64> = (0..3_000u32)
        .map(|i| match i % 97 {
            0..=59 => 0.0,
            60..=90 => f64::NAN,
            91 => 300.0,
            r => f64::from(r % 3),
        })
        .collect();
    let undefined: Vec<f64> = (0..3_000u32)
        .map(|i| match i % 41 {
            0..=36 => f64::NAN,
            r => f64::from(i) * 0.37 + f64::from(r),
        })
        .collect();
    let (hot, dense_blob) = (&valid_encodings()[HOT], &valid_encodings()[FIELD]);
    let dense = decode_seed(hot, Some(dense_blob))
        .unwrap()
        .field
        .unwrap()
        .values;
    for (values, mode) in [(sparse, 1), (undefined, 0), (dense, 0)] {
        let n = values.len();
        let valid = encode_field(&values);
        let layout = field_layout(&valid);
        assert_eq!(valid[layout.mode_at], mode);
        assert_eq!(check_field_decode(&valid, n), Ok(true));
        assert!(!layout.mask_tokens.is_empty() && !layout.value_tokens.is_empty());

        for &(at, len, is_run) in &layout.value_tokens {
            for claimed in [0u128, 1, 1 << 32, 1 << 40, 1 << 63, u128::from(u64::MAX)] {
                let token = leb128(claimed << 1 | u128::from(is_run));
                let decoded = check_field_decode(&spliced(&valid, at, len, &token), n).unwrap();
                // Only a length of 1 can be what the token already said.
                assert!(!decoded || claimed == 1, "token at {at} claiming {claimed}");
            }
        }
        for &(at, len, kind) in &layout.mask_tokens {
            for claimed in [0u128, 1, 64, 65, 1 << 40] {
                for other in 0..4u128 {
                    let token = leb128(claimed << 2 | other);
                    let outcome = check_field_decode(&spliced(&valid, at, len, &token), n);
                    assert!(outcome.is_ok(), "mask token at {at} ({kind}): {outcome:?}");
                }
            }
        }
        for claimed in [n as u128 - 1, n as u128 + 1, 1 << 40, u128::from(u64::MAX)] {
            let bytes = spliced(&valid, 0, layout.mask_header_len, &leb128(claimed));
            assert_eq!(
                check_field_decode(&bytes, n),
                Ok(false),
                "mask of {claimed} bits"
            );
        }
        for flipped in 0..=u8::MAX {
            let mut bytes = valid.clone();
            bytes[layout.mode_at] = flipped;
            let decoded = check_field_decode(&bytes, n).unwrap();
            assert!(!decoded || flipped < 2, "mode {flipped}");
        }
        for cut in 0..valid.len() {
            assert_eq!(
                check_field_decode(&valid[..cut], n),
                Ok(false),
                "cut at {cut}"
            );
        }
        for extra in [0x00, 0x01, 0x02, 0x80, 0xff] {
            let bytes = [valid.as_slice(), &[extra]].concat();
            assert_eq!(
                check_field_decode(&bytes, n),
                Ok(false),
                "{extra:#04x} appended"
            );
        }
        // One value too few or too many for the shape is neither.
        assert_eq!(check_field_decode(&valid, n + 1), Ok(false));
        assert_eq!(check_field_decode(&valid, n - 1), Ok(false));
    }

    // Through the segment decoder the error names `<segment> field`.
    let label = "segment sensor.avg(signal)";
    let (record, dataset) = (&seed().record, &seed().dataset);
    let err = decode_function_segment(record, 0, dataset, hot, Some(&dense_blob[..3]), label)
        .unwrap_err();
    assert!(
        matches!(&err, StoreError::Corrupt(m) if m.starts_with("segment sensor.avg(signal) field: ")),
        "{err:?}"
    );
}

/// `pristine` with its geometry blob replaced by `geometry`, truthfully
/// re-sealed: every later blob keeps its bytes and moves by the length
/// difference, and the manifest and header say so.
fn with_geometry(pristine: &[u8], geometry: &[u8]) -> Vec<u8> {
    let header = Header::decode(pristine).unwrap();
    let manifest_at = header.manifest_offset as usize;
    let mut manifest = Manifest::decode(&pristine[manifest_at..]).unwrap();
    let old = manifest.geometry;
    assert_eq!(old.offset, 40, "the geometry blob follows the header");
    let shifted = |offset: u64| offset - old.len + geometry.len() as u64;
    let moved = |loc: BlobLoc| BlobLoc {
        offset: shifted(loc.offset),
        ..loc
    };
    manifest.geometry = BlobLoc {
        offset: old.offset,
        len: geometry.len() as u64,
        checksum: blob_checksum(geometry),
    };
    for segment in &mut manifest.segments {
        segment.loc = moved(segment.loc);
        segment.field = segment.field.map(moved);
    }
    let manifest_bytes = manifest.encode();
    let header = Header {
        manifest_offset: shifted(header.manifest_offset),
        manifest_len: manifest_bytes.len() as u64,
        manifest_checksum: blob_checksum(&manifest_bytes),
        ..header
    };
    let mut bytes = header.encode();
    bytes.extend_from_slice(geometry);
    bytes.extend_from_slice(&pristine[(old.offset + old.len) as usize..manifest_at]);
    bytes.extend_from_slice(&manifest_bytes);
    bytes
}

/// A fresh temp path per call: test threads run concurrently.
fn scratch_path(tag: &str) -> Cleanup {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    Cleanup(std::env::temp_dir().join(format!(
        "polygamy-decoders-test-{}-{tag}-{}.plst",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    )))
}

/// The seed geometry: a two-region zip partition, no neighborhoods, the
/// city.
fn seed_geometry() -> CityGeometry {
    let zip = SpatialPartition::new(
        SpatialResolution::Zip,
        vec![
            Polygon::rect(0.0, 0.0, 1.0, 1.0),
            Polygon::rect(1.0, 0.0, 2.0, 1.0),
        ],
        vec![vec![1], vec![0]],
    )
    .unwrap();
    CityGeometry {
        zip: Some(zip),
        neighborhood: None,
        city: SpatialPartition::city(0.0, 0.0, 2.0, 1.0),
    }
}

/// A segment-less store over [`seed_geometry`], and its geometry blob.
fn geometry_seed() -> &'static (Vec<u8>, Vec<u8>) {
    static SEED: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    SEED.get_or_init(|| {
        let file = scratch_path("geometry-seed");
        let store = Store::save(&file.0, &seed_geometry(), &Default::default()).unwrap();
        let loc = store.manifest().geometry;
        let bytes = std::fs::read(&file.0).unwrap();
        let blob = bytes[loc.offset as usize..][..loc.len as usize].to_vec();
        assert_eq!(blob, encode_geometry(&seed_geometry()).unwrap());
        (bytes, blob)
    })
}

/// Decodes `geometry` the way every reader does: out of a sealed file.
fn decode_geometry(geometry: &[u8]) -> Result<CityGeometry, StoreError> {
    let file = scratch_path("geometry");
    std::fs::write(&file.0, with_geometry(&geometry_seed().0, geometry)).unwrap();
    Store::open(&file.0)?.load_geometry()
}

/// What the executor and the indexer rely on in a decoded geometry.
fn assert_safe_to_index_by(geometry: &CityGeometry) {
    let optional = geometry.zip.iter().chain(&geometry.neighborhood);
    for partition in optional.chain([&geometry.city]) {
        let n = partition.len();
        assert!(n > 0);
        assert_eq!(partition.adjacency.len(), n);
        assert!(partition
            .adjacency
            .iter()
            .flatten()
            .all(|&j| (j as usize) < n));
        assert!(partition.polygons.iter().all(|p| p.ring.len() >= 3));
        for point in [(0.5, 0.5), (1.5, 0.5), (-3.0, 1e300)] {
            let located = partition.locate(GeoPoint::new(point.0, point.1));
            assert!(located.is_none_or(|region| (region as usize) < n));
        }
    }
}

/// A decode outcome the reader can live with: a typed error, or a
/// geometry safe to index by.
fn assert_typed_or_safe(outcome: Result<CityGeometry, StoreError>, case: &str) {
    match outcome {
        Ok(geometry) => assert_safe_to_index_by(&geometry),
        Err(StoreError::Corrupt(_)) => {}
        Err(other) => panic!("{case}: {other:?}"),
    }
}

/// Byte offsets of a valid geometry blob's fields, by kind, found by
/// walking it as `docs/store-format.md` lays it out.
#[derive(Debug, Default)]
struct GeometryLayout {
    /// Every `u64` count: polygons, ring vertices, neighbours.
    counts: Vec<usize>,
    /// Every `f64` coordinate.
    coordinates: Vec<usize>,
    /// Every `u32` neighbour index.
    neighbours: Vec<usize>,
    /// Where each section ends: a slot tag, a partition's code, every
    /// count, ring and neighbour list, every partition.
    boundaries: Vec<usize>,
}

fn geometry_layout(blob: &[u8]) -> GeometryLayout {
    fn count(blob: &[u8], at: &mut usize, layout: &mut GeometryLayout) -> usize {
        layout.counts.push(*at);
        *at += 8;
        layout.boundaries.push(*at);
        u64::from_le_bytes(blob[*at - 8..*at].try_into().unwrap()) as usize
    }
    fn partition(blob: &[u8], at: &mut usize, layout: &mut GeometryLayout) {
        *at += 1;
        layout.boundaries.push(*at);
        let n = count(blob, at, layout);
        for _ in 0..n {
            let len = count(blob, at, layout);
            layout.coordinates.extend((0..2 * len).map(|i| *at + 8 * i));
            *at += 16 * len;
            layout.boundaries.push(*at);
        }
        for _ in 0..n {
            let len = count(blob, at, layout);
            layout.neighbours.extend((0..len).map(|i| *at + 4 * i));
            *at += 4 * len;
            layout.boundaries.push(*at);
        }
    }
    let mut layout = GeometryLayout::default();
    let mut at = 0;
    for _slot in ["zip", "neighborhood"] {
        at += 1;
        layout.boundaries.push(at);
        if blob[at - 1] == 1 {
            partition(blob, &mut at, &mut layout);
        }
    }
    partition(blob, &mut at, &mut layout);
    assert_eq!(at, blob.len(), "the walk ends with the blob");
    layout
}

/// Values a count field is overwritten with: each larger than the blob
/// could hold, and each past any allocation a decoder could make up front.
const HOSTILE_COUNTS: [u64; 3] = [u64::MAX, 1 << 40, u32::MAX as u64];

/// Coordinates the decoder must refuse (±∞) or carry through (NaN with or
/// without a payload, the smallest subnormals).
fn odd_coordinates() -> [f64; 6] {
    [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::from_bits(0x7FF8_0000_DEAD_BEEF),
        f64::from_bits(1),
        -f64::MIN_POSITIVE / 2.0,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn geometry_decoder_returns_typed_errors_for_any_input(
        raw in proptest::collection::vec(0u8..=u8::MAX, 0..192),
        mutation in 0u8..5,
        positions in proptest::collection::vec(0usize..usize::MAX, 1..5),
        masks in proptest::collection::vec(1u8..=u8::MAX, 4),
        count in prop_oneof![
            Just(u64::MAX),
            Just(1u64 << 40),
            Just(u32::MAX as u64),
            0u64..6,
        ],
        coordinate in 0usize..6,
        neighbour in 0u32..=u32::MAX,
    ) {
        // (a) Arbitrary bytes.
        assert_typed_or_safe(decode_geometry(&raw), "arbitrary bytes");

        // (b) The valid blob, damaged.
        let valid = &geometry_seed().1;
        prop_assert!(decode_geometry(valid).is_ok());
        let layout = geometry_layout(valid);
        let pick = |offsets: &[usize]| offsets[positions[0] % offsets.len()];
        let mut bytes = valid.clone();
        match mutation {
            0 => {
                for (p, m) in positions.iter().zip(&masks) {
                    let at = p % bytes.len();
                    bytes[at] ^= m;
                }
            }
            1 => bytes.truncate(positions[0] % bytes.len()),
            // One count off: a ring or a neighbour list longer or shorter,
            // or a partition of another size.
            2 => {
                let at = pick(&layout.counts);
                bytes[at..at + 8].copy_from_slice(&count.to_le_bytes());
            }
            3 => {
                let at = pick(&layout.coordinates);
                bytes[at..at + 8].copy_from_slice(&odd_coordinates()[coordinate].to_le_bytes());
            }
            _ => {
                let at = pick(&layout.neighbours);
                bytes[at..at + 4].copy_from_slice(&neighbour.to_le_bytes());
            }
        }
        assert_typed_or_safe(decode_geometry(&bytes), "damaged blob");
    }
}

/// Every field of the seed blob damaged in turn: each count overwritten
/// with each of [`HOSTILE_COUNTS`], the blob cut at each section boundary
/// (and at every other byte), bytes appended, each coordinate replaced by
/// each of [`odd_coordinates`]. A hostile count, a cut and an appended
/// byte are each a typed error; an infinite coordinate is too, and a NaN or
/// subnormal one decodes to a geometry safe to index by.
#[test]
fn every_field_of_a_geometry_blob_is_checked() {
    let valid = &geometry_seed().1;
    let layout = geometry_layout(valid);
    assert_eq!(layout.counts.len(), 1 + 2 + 2 + 1 + 1 + 1);
    let corrupt = |bytes: &[u8], case: &str| {
        let err = decode_geometry(bytes).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{case}: {err:?}");
    };
    for &at in &layout.counts {
        for count in HOSTILE_COUNTS {
            let mut bytes = valid.clone();
            bytes[at..at + 8].copy_from_slice(&count.to_le_bytes());
            corrupt(&bytes, &format!("count at {at} = {count}"));
        }
    }
    assert!(layout.boundaries.len() > 10);
    for cut in (0..valid.len()).chain(layout.boundaries.iter().map(|&b| b - 1)) {
        corrupt(&valid[..cut], &format!("cut at {cut}"));
    }
    for tail in [&[0x00][..], &[0x01], &[0u8; 8]] {
        corrupt(&[valid.as_slice(), tail].concat(), "trailing bytes");
    }
    for &at in &layout.coordinates {
        for odd in odd_coordinates() {
            let mut bytes = valid.clone();
            bytes[at..at + 8].copy_from_slice(&odd.to_le_bytes());
            let outcome = decode_geometry(&bytes);
            if odd.is_infinite() {
                corrupt(&bytes, &format!("{odd} at {at}"));
            } else {
                let geometry = outcome.unwrap();
                assert_safe_to_index_by(&geometry);
                assert_eq!(
                    encode_geometry(&geometry).unwrap(),
                    bytes,
                    "{odd:?} at {at}"
                );
            }
        }
    }
}

/// The seed geometry with one thing wrong, as the encoder writes whatever
/// it is handed: a neighbour index past the partition (out-of-bounds in
/// the graph shift, on a worker, before the decoder refused it), a missing
/// adjacency list, a partition in another resolution's slot, a ring of two
/// vertices.
fn hostile_variants(
    geometry: &CityGeometry,
    slot: SpatialResolution,
) -> [(&'static str, Vec<u8>); 4] {
    let variant = |damage: &dyn Fn(&mut SpatialPartition)| {
        let mut geometry = geometry.clone();
        let partition = match slot {
            SpatialResolution::Zip => geometry.zip.as_mut().unwrap(),
            _ => &mut geometry.city,
        };
        damage(partition);
        encode_geometry(&geometry).unwrap()
    };
    [
        (
            "a neighbour out of range",
            variant(&|p| p.adjacency[0] = vec![7]),
        ),
        (
            "a missing adjacency list",
            variant(&|p| drop(p.adjacency.pop())),
        ),
        (
            "another resolution",
            variant(&|p| p.resolution = SpatialResolution::Neighborhood),
        ),
        (
            "a ring of two vertices",
            variant(&|p| p.polygons[0].ring.truncate(2)),
        ),
    ]
}

/// The ways a geometry blob reached a panic, or could: each variant of
/// [`hostile_variants`] is refused at decode, and a partition with another
/// region count than the indexed functions (a failed assertion in the
/// permutation test) is refused at task expansion — also in a real store,
/// opened eager and lazy, whose `verify_all` (checksums only) passes.
#[test]
fn hostile_geometries_yield_typed_errors() {
    for (case, bytes) in hostile_variants(&seed_geometry(), SpatialResolution::Zip) {
        let err = decode_geometry(&bytes).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{case}: {err:?}");
    }

    // A real store under each of them, through every session path.
    let (cleanup, pristine) = saved_store("hostile-geometry");
    let path = &cleanup.0;
    let geometry = Store::open(path).unwrap().load_geometry().unwrap();
    let query =
        parse_query("between sensor and twin where permutations = 5 and include insignificant")
            .unwrap();
    let expected = StoreSession::open(path).unwrap().query(&query).unwrap();
    assert!(!expected.is_empty());
    let open_both = || [StoreSession::open_lazy(path), StoreSession::open(path)];
    let verify = || {
        let index = LazyIndex::open(path).unwrap();
        index.verify_all()
    };

    // No session opens; `verify_all` checks bytes against checksums, and
    // these are sealed.
    for (case, bytes) in hostile_variants(&geometry, SpatialResolution::City) {
        std::fs::write(path, with_geometry(&pristine, &bytes)).unwrap();
        for session in open_both() {
            let err = session.unwrap_err();
            assert!(matches!(err, StoreError::Corrupt(_)), "{case}: {err:?}");
        }
        verify().unwrap();
    }

    // Another city's partition — two regions under one-region functions:
    // sessions open, every query is refused before a task exists.
    let mut other_city = geometry.clone();
    other_city.city = SpatialPartition::new(
        SpatialResolution::City,
        vec![
            Polygon::rect(5.0, 5.0, 6.0, 6.0),
            geometry.city.polygons[0].clone(),
        ],
        vec![vec![1], vec![0]],
    )
    .unwrap();
    let other_city = encode_geometry(&other_city).unwrap();
    std::fs::write(path, with_geometry(&pristine, &other_city)).unwrap();
    for session in open_both() {
        let err = session.unwrap().query(&query).unwrap_err();
        let mismatch = polygamy_core::Error::GeometryMismatch {
            resolution: SpatialResolution::City,
            geometry_regions: 2,
            function_regions: 1,
        };
        assert!(
            matches!(&err, StoreError::Query(e) if *e == mismatch),
            "{err:?}"
        );
    }
    verify().unwrap();

    // The pristine bytes, re-sealed by the same splice, serve as before
    // and take an upsert.
    let same = encode_geometry(&geometry).unwrap();
    std::fs::write(path, with_geometry(&pristine, &same)).unwrap();
    assert_eq!(std::fs::read(path).unwrap(), pristine);
    for session in open_both() {
        assert_eq!(session.unwrap().query(&query).unwrap(), expected);
    }
    let sensor = sample_framework().dataset("sensor").unwrap().clone();
    Store::upsert_dataset(path, &sensor, &Config::fast_test()).unwrap();
    let upserted = StoreSession::open(path).unwrap();
    assert_eq!(upserted.query(&query).unwrap(), expected);
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
        f.spec.name.dataset = "twin".into();
        twin.functions.push(f);
    }
    Store::save(&path, one.geometry(), &twin).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (Cleanup(path), bytes)
}

/// `pristine` with its manifest replaced by `manifest`, truthfully
/// re-sealed: the header's manifest length and checksum say so.
fn with_manifest(pristine: &[u8], manifest: &Manifest) -> Vec<u8> {
    let header = Header::decode(pristine).unwrap();
    let manifest_bytes = manifest.encode();
    let mut bytes = pristine[..header.manifest_offset as usize].to_vec();
    bytes.extend_from_slice(&manifest_bytes);
    let header = Header {
        manifest_len: manifest_bytes.len() as u64,
        manifest_checksum: blob_checksum(&manifest_bytes),
        ..header
    };
    bytes[..40].copy_from_slice(&header.encode());
    bytes
}

/// A segment's directory record is the one record of what it is: the
/// lazy pin picks segments by its resolution, and eager and lazy entries
/// alike take their names, kind, resolution and window from it. A
/// well-sealed manifest that renames a function is answered under the new
/// name, the same eager and lazy; one whose window misses the bits its hot
/// blob's vectors declare fails the eager open and a lazy query reaching
/// that segment with a typed `Corrupt` naming the segment.
#[test]
fn a_directory_record_alone_says_what_its_segment_is() {
    let (cleanup, pristine) = saved_store("directory-record");
    let path = &cleanup.0;
    let header = Header::decode(&pristine).unwrap();
    let manifest = Manifest::decode(&pristine[header.manifest_offset as usize..]).unwrap();
    let victim = &manifest.segments[0];
    assert_eq!(victim.dataset_index, 0);
    let query =
        parse_query("between sensor and twin where permutations = 5 and include insignificant")
            .unwrap();
    let reseal = |relabelled: SegmentInfo| {
        let mut manifest = manifest.clone();
        manifest.segments[0] = relabelled;
        std::fs::write(path, with_manifest(&pristine, &manifest)).unwrap();
    };

    let renamed: Arc<str> = format!("not-{}", victim.function).into();
    reseal(SegmentInfo {
        function: Arc::clone(&renamed),
        ..victim.clone()
    });
    let eager = StoreSession::open(path).unwrap().query(&query).unwrap();
    assert_eq!(
        StoreSession::open_lazy(path)
            .unwrap()
            .query(&query)
            .unwrap(),
        eager
    );
    // At the victim's resolution sensor's function has its new name only.
    let at_victim = eager.iter().filter(|r| r.resolution == victim.resolution);
    let names: Vec<&str> = at_victim.map(|r| &*r.left.function).collect();
    assert!(names.contains(&&*renamed) && !names.contains(&&*victim.function));

    for (n_regions, n_steps) in [(victim.n_regions, victim.n_steps + 1), (2, victim.n_steps)] {
        reseal(SegmentInfo {
            n_regions,
            n_steps,
            ..victim.clone()
        });
        let label = format!("segment sensor.{}: ", victim.function);
        let names_the_segment = |err: StoreError| {
            assert!(
                matches!(&err, StoreError::Corrupt(m) if m.starts_with(&label)),
                "{err:?}"
            );
        };
        names_the_segment(StoreSession::open(path).unwrap_err());
        let lazy = StoreSession::open_lazy(path).unwrap();
        names_the_segment(lazy.query(&query).unwrap_err());
    }
    // The pristine manifest, re-sealed the same way, serves.
    reseal(victim.clone());
    assert_eq!(std::fs::read(path).unwrap(), pristine);
    StoreSession::open(path).unwrap().query(&query).unwrap();
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
    // The first segment — one of `sensor`'s — whose field is a dense
    // attribute series: a blob of some length, where a density series of
    // all ones is a four-byte run.
    let victim = manifest
        .segments
        .iter()
        .position(|s| s.field.expect("sample keeps fields").len > 64)
        .unwrap();
    assert_eq!(manifest.segments[victim].dataset_index, 0);
    let good = manifest.segments[victim].field.unwrap();
    let hot = manifest.segments[victim].loc;
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
        resealed(good.len - 8), // sealed, but the tokens stop a value short
        resealed(good.len + 8), // sealed, bytes after the last token
        resealed(3),            // sealed, and no length is wrong by itself
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
        manifest.segments[victim].field = Some(loc);
        std::fs::write(path, with_manifest(&pristine, &manifest)).unwrap();

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
        let index = LazyIndex::open(path).unwrap();
        // `verify_all` checks bytes against checksums, not shapes: the two
        // well-sealed wrong-size blobs pass it and fail at decode above.
        if let Err(err) = index.verify_all() {
            assert!(typed(&err), "{loc:?}: verify_all gave {err:?}");
        }
    }
}

/// Every way of opening a store file that claims format `version`.
fn open_claiming_version(version: u32) -> [Result<(), StoreError>; 3] {
    let (cleanup, mut bytes) = saved_store(&format!("version-{version}"));
    bytes[8..12].copy_from_slice(&version.to_le_bytes());
    std::fs::write(&cleanup.0, &bytes).unwrap();
    [
        Store::open(&cleanup.0).map(drop),
        StoreSession::open(&cleanup.0).map(drop),
        StoreSession::open_lazy(&cleanup.0).map(drop),
    ]
}

/// Stores are derived artifacts: a version-1 file is refused by version —
/// typed, naming both versions — and rebuilt, never decoded.
#[test]
fn version_1_files_are_refused_by_version() {
    for result in open_claiming_version(1) {
        assert!(matches!(
            result,
            Err(StoreError::UnsupportedVersion {
                found: 1,
                supported: 9
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

/// So is a version-2 file (raw `f64` field blobs): no second field decoder
/// is kept for it.
#[test]
fn version_2_files_are_refused_by_version() {
    for result in open_claiming_version(2) {
        assert!(matches!(
            result,
            Err(StoreError::UnsupportedVersion {
                found: 2,
                supported: 9
            })
        ));
    }
}

/// And a version-3 file (raw-word bit vectors, field blobs that spell out
/// every NaN): no second bit-vector or field decoder is kept for it.
#[test]
fn version_3_files_are_refused_by_version() {
    for result in open_claiming_version(3) {
        assert!(matches!(
            result,
            Err(StoreError::UnsupportedVersion {
                found: 3,
                supported: 9
            })
        ));
    }
}

/// And a version-4 file (a merge-tree node count at the end of every hot
/// blob): no hot-blob decoder that skips the count is kept for it.
#[test]
fn version_4_files_are_refused_by_version() {
    for result in open_claiming_version(4) {
        assert!(matches!(
            result,
            Err(StoreError::UnsupportedVersion {
                found: 4,
                supported: 9
            })
        ));
    }
}

/// And a version-5 file (time-major feature bit vectors): its bytes decode
/// as well as version 6's, but to features at other bits, so it is refused
/// rather than answered from.
#[test]
fn version_5_files_are_refused_by_version() {
    for result in open_claiming_version(5) {
        assert!(matches!(
            result,
            Err(StoreError::UnsupportedVersion {
                found: 5,
                supported: 9
            })
        ));
    }
}

/// And a version-6 file (seasonal thresholds after the feature vectors of
/// every hot blob): no hot-blob decoder that skips them is kept for it.
#[test]
fn version_6_files_are_refused_by_version() {
    for result in open_claiming_version(6) {
        assert!(matches!(
            result,
            Err(StoreError::UnsupportedVersion {
                found: 6,
                supported: 9
            })
        ));
    }
}

/// And a version-7 file (a JSON geometry blob): no second geometry decoder
/// is kept for it.
#[test]
fn version_7_files_are_refused_by_version() {
    for result in open_claiming_version(7) {
        assert!(matches!(
            result,
            Err(StoreError::UnsupportedVersion {
                found: 7,
                supported: 9
            })
        ));
    }
}

/// And a version-8 file (spec, resolution and window at the head of every
/// hot blob, again after the directory's data set, function and
/// resolution): no hot-blob decoder that skips them is kept for it. The
/// shard catalog's bytes did not change with formats 3 to 9, so its
/// version is still 2.
#[test]
fn version_8_files_are_refused_by_version() {
    for result in open_claiming_version(8) {
        assert!(matches!(
            result,
            Err(StoreError::UnsupportedVersion {
                found: 8,
                supported: 9
            })
        ));
    }
    assert_eq!((VERSION, SHARD_CATALOG_VERSION), (9, 2));
}
