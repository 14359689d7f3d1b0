//! The store's five byte-level decoders are total: any input — arbitrary
//! bytes, or a valid encoding with bytes flipped, the tail cut off, or a
//! length field overwritten with a huge value — yields `Ok` or a typed
//! [`StoreError`], never a panic, an arithmetic overflow or an allocation
//! sized by an unvalidated length (which would abort the test process).
//! The hot blob's run-length interval map gets its own mutation (a run
//! count or run length overwritten: run-sum overflow, runs that miss
//! `n_steps`, zero-length runs), its word-run bit vectors are fed arbitrary
//! token streams behind a valid shape, round-trip bit for bit at the
//! lengths around a word boundary, and a hot blob of under 100 bytes that
//! declares 2⁴⁰ bits is refused within a counted allocation bound. The
//! field blob — a word-run mask, then the defined values run-length coded —
//! carries no shape, so its decoder is also driven directly: arbitrary
//! bytes against arbitrary shapes, bare and behind a valid mask, and valid
//! blobs of both modes with every mask token, every value token header, the
//! mask's length, the mode byte and the tail damaged in turn, each input
//! also through `validate_field`, the walk an eager open runs in place of
//! the decode, which must agree word for word; and a manifest whose `field`
//! location is hostile is driven through real sessions. Files of versions
//! 1 to 3 are refused by version, not decoded.
//!
//! The sixth decoder, the geometry blob's, is JSON text rather than the
//! binary codec, and is reached the way a reader reaches it: through
//! `Store::load_geometry` on a truthfully sealed file. Arbitrary bytes and
//! mutated valid JSON (bytes flipped, the tail cut off, one digit or one
//! whole number replaced) must end in a typed error or in a geometry that
//! is safe to index by, and a store carrying a hostile geometry must end
//! every session path in a typed error on the coordinating thread.
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
    decode_field, decode_function_segment, enc_resolution, enc_spec, encode_field,
    encode_function_segment, validate_field, Enc,
};
use polygamy_store::{
    blob_checksum, BlobLoc, Header, LazyIndex, Manifest, SegmentInfo, ShardCatalog, Store,
    StoreError, StoreSession, SHARD_CATALOG_VERSION, SHARD_MAGIC, VERSION,
};
use polygamy_topology::threshold::Thresholds;
use polygamy_topology::{BitVec, FeatureSet, FeatureSets, SeasonalThresholds};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

#[global_allocator]
static GLOBAL: support::Counting = support::Counting;

/// Length of the shard catalog's fixed header (magic, version, flags,
/// payload length, checksum).
const CATALOG_HEADER_LEN: usize = 32;

/// Byte offsets of leading u64 length/offset fields per format, indexed
/// like [`decode`]: the header's manifest offset and length, the
/// manifest's geometry location and catalog count, the hot blob's first
/// string length, the catalog's payload length and data set count, the
/// field blob's mask length and first mask token.
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

    /// A hot blob's bit vectors as arbitrary word-run token streams behind
    /// a valid spec and shape: each decodes to the entry's vertex count or
    /// is a typed error.
    #[test]
    fn hot_bit_vectors_return_typed_errors_for_any_token_stream(
        raw in proptest::collection::vec(0u8..=u8::MAX, 0..128),
        small in proptest::collection::vec(0u8..24, 0..64),
        n_steps in 0u64..300,
    ) {
        for tokens in [&raw, &small] {
            let header = leb128(u128::from(n_steps));
            let bytes = [hot_prefix(1, n_steps).as_slice(), &header, tokens].concat();
            match decode_function_segment(&bytes, None, 0, "fuzz") {
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
        let back = decode_function_segment(&hot, None, 0, "prop").unwrap();
        let fs = &back.features;
        let decoded = [&fs.salient.pos, &fs.salient.neg, &fs.extreme.pos, &fs.extreme.neg];
        for (got, want) in decoded.into_iter().zip(&vectors) {
            prop_assert_eq!(got.len(), want.len());
            prop_assert_eq!(got.words(), want.words());
        }
        prop_assert_eq!(encode_function_segment(&back).0, hot);
    }
}

/// The leading spec, resolution and shape of a hot blob: everything up to
/// its first bit vector.
fn hot_prefix(n_regions: u64, n_steps: u64) -> Vec<u8> {
    let mut e = Enc::new();
    enc_spec(&mut e, &FunctionSpec::density("d"));
    enc_resolution(
        &mut e,
        Resolution::new(SpatialResolution::City, TemporalResolution::Hour),
    );
    e.u64(n_regions);
    e.i64(0);
    e.u64(n_steps);
    e.into_bytes()
}

/// A one-region, field-less entry over the four vectors' length, with one
/// seasonal interval.
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
        thresholds: SeasonalThresholds {
            interval_of_step: vec![0; n_steps],
            interval_ids: vec![0],
            per_interval: vec![Thresholds::none()],
        },
        field: None,
        tree_nodes: 0,
        row_memo: Default::default(),
    }
}

/// A hot blob of under 100 bytes whose shape and first vector declare 2⁴⁰
/// bits, spelled by two-byte tokens of 64 zero words each until the bytes
/// run out. The decoder grows the vector token by token, so it fails at
/// the payload's end having allocated what the bytes it consumed could
/// spell — at most 256 bytes of words per byte, four times that counting
/// every capacity a doubling vector passes through — never the 128 GiB
/// declared. A vector declaring another length than the shape's is refused
/// before its first token.
#[test]
fn a_short_hot_blob_declaring_2_pow_40_bits_is_refused_within_the_bound() {
    let bits = 1u64 << 40;
    let run_of_64_zero_words = leb128(64 << 2);
    let mut hot = [hot_prefix(1, bits), leb128(bits.into())].concat();
    while hot.len() + run_of_64_zero_words.len() < 100 {
        hot.extend_from_slice(&run_of_64_zero_words);
    }
    let before = support::allocated_bytes();
    let result = decode_function_segment(&hot, None, 0, "hostile");
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

    let mismatched = [hot_prefix(1, 1_000), leb128(bits.into()), vec![0x80, 0x02]].concat();
    let before = support::allocated_bytes();
    let err = decode_function_segment(&mismatched, None, 0, "hostile").unwrap_err();
    assert!(support::allocated_bytes() - before <= 1_024);
    assert!(
        matches!(&err, StoreError::Corrupt(m) if m.contains("salient.pos covers 1099511627776 bits")),
        "{err:?}"
    );
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
    let dense = decode_function_segment(hot, Some(dense_blob), 0, "seed")
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
    let err = decode_function_segment(hot, Some(&dense_blob[..3]), 0, "segment sensor.avg(signal)")
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

/// A segment-less store over a two-region zip partition plus the city, and
/// the JSON text of its geometry blob.
fn geometry_seed() -> &'static (Vec<u8>, Vec<u8>) {
    static SEED: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    SEED.get_or_init(|| {
        let zip = SpatialPartition::new(
            SpatialResolution::Zip,
            vec![
                Polygon::rect(0.0, 0.0, 1.0, 1.0),
                Polygon::rect(1.0, 0.0, 2.0, 1.0),
            ],
            vec![vec![1], vec![0]],
        )
        .unwrap();
        let geometry = CityGeometry {
            zip: Some(zip),
            neighborhood: None,
            city: SpatialPartition::city(0.0, 0.0, 2.0, 1.0),
        };
        let file = scratch_path("geometry-seed");
        let store = Store::save(&file.0, &geometry, &Default::default()).unwrap();
        let loc = store.manifest().geometry;
        let bytes = std::fs::read(&file.0).unwrap();
        let json = bytes[loc.offset as usize..][..loc.len as usize].to_vec();
        (bytes, json)
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

fn replaced(json: &[u8], from: &str, to: &str) -> Vec<u8> {
    let text = std::str::from_utf8(json).unwrap();
    assert!(text.contains(from), "`{from}` not in {text}");
    text.replacen(from, to, 1).into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn geometry_decoder_returns_typed_errors_for_any_input(
        raw in proptest::collection::vec(0u8..=u8::MAX, 0..192),
        mutation in 0u8..4,
        positions in proptest::collection::vec(0usize..usize::MAX, 1..5),
        masks in proptest::collection::vec(1u8..=u8::MAX, 4),
        digit in b'0'..=b'9',
        number in prop_oneof![
            Just("-1"),
            Just("0"),
            Just("4294967296"),
            Just("18446744073709551616"),
            Just("1e999"),
            Just("0.5"),
            Just("null"),
            Just("[]"),
        ],
    ) {
        // (a) Arbitrary bytes.
        let _ = decode_geometry(&raw);

        // (b) The valid JSON, damaged.
        let valid = &geometry_seed().1;
        prop_assert!(decode_geometry(valid).is_ok());
        let mut bytes = valid.clone();
        let digits: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i].is_ascii_digit()).collect();
        match mutation {
            0 => {
                for (p, m) in positions.iter().zip(&masks) {
                    let at = p % bytes.len();
                    bytes[at] ^= m;
                }
            }
            1 => bytes.truncate(positions[0] % bytes.len()),
            // Still JSON, one number off: a neighbour index, a grid
            // dimension or cell, a coordinate.
            2 => bytes[digits[positions[0] % digits.len()]] = digit,
            // One whole number replaced by a hostile one.
            _ => {
                let at = digits[positions[0] % digits.len()];
                let in_number = |b: &u8| b.is_ascii_digit() || *b == b'.';
                let start = at - bytes[..at].iter().rev().take_while(|b| in_number(b)).count();
                let end = at + bytes[at..].iter().take_while(|b| in_number(b)).count();
                bytes.splice(start..end, number.bytes());
            }
        }
        if let Ok(geometry) = decode_geometry(&bytes) {
            assert_safe_to_index_by(&geometry);
        }
    }
}

/// The three ways a geometry blob used to reach a panic: a neighbour index
/// past the partition (out-of-bounds in the graph shift, on a worker), a
/// locator grid with no columns (underflow at the next upsert) and a
/// partition with another region count than the indexed functions (a
/// failed assertion in the permutation test). The first is refused at
/// decode, the second cannot matter — the grid is rebuilt from the
/// polygons — and the third is refused at task expansion.
#[test]
fn hostile_geometries_yield_typed_errors() {
    let valid = &geometry_seed().1;
    let err = decode_geometry(&replaced(
        valid,
        r#""adjacency":[[1],[0]]"#,
        r#""adjacency":[[7],[0]]"#,
    ))
    .unwrap_err();
    assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
    for (from, to) in [
        (r#""adjacency":[[1],[0]]"#, r#""adjacency":[[1]]"#),
        (r#""resolution":"Zip""#, r#""resolution":"Neighborhood""#),
        (r#"{"x":0.0,"y":0.0},{"x":1.0,"y":0.0},"#, ""),
    ] {
        let err = decode_geometry(&replaced(valid, from, to)).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{to}: {err:?}");
    }
    let no_columns = decode_geometry(&replaced(valid, r#""nx":2"#, r#""nx":0"#)).unwrap();
    assert_safe_to_index_by(&no_columns);

    // A real store under each of them, through every session path.
    let (cleanup, pristine) = saved_store("hostile-geometry");
    let path = &cleanup.0;
    let stored = {
        let loc = Store::open(path).unwrap().manifest().geometry;
        pristine[loc.offset as usize..][..loc.len as usize].to_vec()
    };
    let query =
        parse_query("between sensor and twin where permutations = 5 and include insignificant")
            .unwrap();
    let expected = StoreSession::open(path).unwrap().query(&query).unwrap();
    assert!(!expected.is_empty());
    let open_both = || [StoreSession::open_lazy(path), StoreSession::open(path)];
    let verify = || {
        let index = LazyIndex::new(Store::open(path).unwrap()).unwrap();
        index.verify_all()
    };

    // A neighbour out of range: no session opens.
    let out_of_range = replaced(&stored, r#""adjacency":[[]]"#, r#""adjacency":[[7]]"#);
    std::fs::write(path, with_geometry(&pristine, &out_of_range)).unwrap();
    for session in open_both() {
        let err = session.unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
    }
    // `verify_all` checks bytes against checksums, and these are sealed.
    verify().unwrap();

    // Another city's partition — two regions under one-region functions:
    // sessions open, every query is refused before a task exists.
    let other_city = replaced(
        &stored,
        r#""polygons":["#,
        r#""polygons":[{"ring":[{"x":5.0,"y":5.0},{"x":6.0,"y":5.0},{"x":6.0,"y":6.0}]},"#,
    );
    let other_city = replaced(
        &other_city,
        r#""adjacency":[[]]"#,
        r#""adjacency":[[1],[0]]"#,
    );
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

    // A grid with no columns is not read: the store serves, and takes an
    // upsert, like the pristine one.
    let no_columns = replaced(&stored, r#""nx":1"#, r#""nx":0"#);
    std::fs::write(path, with_geometry(&pristine, &no_columns)).unwrap();
    for session in open_both() {
        assert_eq!(session.unwrap().query(&query).unwrap(), expected);
    }
    verify().unwrap();
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
        let index = LazyIndex::new(Store::open(path).unwrap()).unwrap();
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
                supported: 4
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
                supported: 4
            })
        ));
    }
}

/// And a version-3 file (raw-word bit vectors, field blobs that spell out
/// every NaN): no second bit-vector or field decoder is kept for it. The
/// shard catalog's bytes did not change with formats 3 and 4, so its
/// version is still 2.
#[test]
fn version_3_files_are_refused_by_version() {
    for result in open_claiming_version(3) {
        assert!(matches!(
            result,
            Err(StoreError::UnsupportedVersion {
                found: 3,
                supported: 4
            })
        ));
    }
    assert_eq!((VERSION, SHARD_CATALOG_VERSION), (4, 2));
}
