//! The explicit little-endian codec for on-disk structures.
//!
//! Every multi-byte integer is little-endian; floats are IEEE-754 bit
//! patterns (NaN thresholds round-trip exactly); strings and sequences are
//! length-prefixed. Enums travel as the stable one-byte wire codes exposed
//! by `polygamy_stdata` — never as `#[derive]`d discriminants, which are an
//! implementation detail of the Rust compiler.
//!
//! Decoding is total: any byte sequence either decodes to a valid structure
//! or yields a typed [`StoreError`]. The decoder therefore checks every
//! length against the remaining payload, validates enum codes, and verifies
//! structural invariants (bit-vector word counts, field value counts) that
//! a crafted or corrupted payload could violate even with a matching
//! checksum.

use crate::error::{Result, StoreError};
use polygamy_core::index::FunctionEntry;
use polygamy_core::FunctionSpec;
use polygamy_stdata::{
    AggregateKind, FunctionKind, Resolution, ScalarField, SpatialResolution, TemporalResolution,
};
use polygamy_topology::threshold::Thresholds;
use polygamy_topology::{BitVec, FeatureSet, FeatureSets, SeasonalThresholds};

/// An append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Starts an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Makes room for `additional` more bytes in one allocation.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its bit pattern (NaN-exact).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `usize` widened to `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// A bounds-checked little-endian decoder over one payload.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Context string for error messages ("segment taxi.density" etc.).
    what: &'a str,
}

impl<'a> Dec<'a> {
    /// Starts decoding `buf`; `what` names the payload in errors.
    pub fn new(buf: &'a [u8], what: &'a str) -> Self {
        Self { buf, pos: 0, what }
    }

    fn corrupt(&self, detail: &str) -> StoreError {
        StoreError::Corrupt(format!("{}: {detail}", self.what))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.corrupt("payload overrun"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u64` narrowed to `usize`.
    pub fn usize(&mut self) -> Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| self.corrupt("length exceeds usize"))
    }

    /// Reads a length that must still fit in the remaining payload when
    /// each element occupies at least `elem_size` bytes — rejects absurd
    /// lengths before any allocation.
    pub fn seq_len(&mut self, elem_size: usize) -> Result<usize> {
        let n = self.usize()?;
        let remaining = self.buf.len() - self.pos;
        if n.checked_mul(elem_size.max(1))
            .is_none_or(|b| b > remaining)
        {
            return Err(self.corrupt("sequence length exceeds payload"));
        }
        Ok(n)
    }

    /// Reads `n` little-endian 64-bit words in one bounds check — the bulk
    /// form of [`Dec::u64`] for bit vectors, fields and id lists.
    pub fn words(&mut self, n: usize) -> Result<impl Iterator<Item = u64> + 'a> {
        let len = n
            .checked_mul(8)
            .ok_or_else(|| self.corrupt("sequence length exceeds payload"))?;
        Ok(self
            .take(len)?
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8"))))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let n = self.seq_len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("invalid utf-8 in string"))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Asserts full consumption — trailing garbage means corruption.
    pub fn finish(self) -> Result<()> {
        if self.at_end() {
            Ok(())
        } else {
            Err(self.corrupt("trailing bytes after structure"))
        }
    }
}

// ---------------------------------------------------------------------------
// Composite structures
// ---------------------------------------------------------------------------

/// Encodes a resolution as two stable wire codes.
pub fn enc_resolution(e: &mut Enc, r: Resolution) {
    e.u8(r.spatial.code());
    e.u8(r.temporal.code());
}

/// Decodes a resolution.
pub fn dec_resolution(d: &mut Dec<'_>) -> Result<Resolution> {
    let s = d.u8()?;
    let t = d.u8()?;
    let spatial = SpatialResolution::from_code(s)
        .ok_or_else(|| StoreError::Corrupt(format!("unknown spatial resolution code {s}")))?;
    let temporal = TemporalResolution::from_code(t)
        .ok_or_else(|| StoreError::Corrupt(format!("unknown temporal resolution code {t}")))?;
    Ok(Resolution::new(spatial, temporal))
}

fn enc_function_kind(e: &mut Enc, kind: FunctionKind) {
    match kind {
        FunctionKind::Density => e.u8(0),
        FunctionKind::Unique => e.u8(1),
        FunctionKind::Attribute { attr, agg } => {
            e.u8(2);
            e.usize(attr);
            e.u8(agg.code());
        }
    }
}

fn dec_function_kind(d: &mut Dec<'_>) -> Result<FunctionKind> {
    match d.u8()? {
        0 => Ok(FunctionKind::Density),
        1 => Ok(FunctionKind::Unique),
        2 => {
            let attr = d.usize()?;
            let code = d.u8()?;
            let agg = AggregateKind::from_code(code)
                .ok_or_else(|| StoreError::Corrupt(format!("unknown aggregate code {code}")))?;
            Ok(FunctionKind::Attribute { attr, agg })
        }
        t => Err(StoreError::Corrupt(format!(
            "unknown function kind tag {t}"
        ))),
    }
}

/// Encodes a function spec.
pub fn enc_spec(e: &mut Enc, spec: &FunctionSpec) {
    e.str(&spec.dataset);
    e.str(&spec.name);
    enc_function_kind(e, spec.kind);
}

/// Decodes a function spec.
pub fn dec_spec(d: &mut Dec<'_>) -> Result<FunctionSpec> {
    Ok(FunctionSpec {
        dataset: d.str()?,
        name: d.str()?,
        kind: dec_function_kind(d)?,
    })
}

fn enc_bitvec(e: &mut Enc, bv: &BitVec) {
    e.usize(bv.len());
    e.reserve(bv.words().len() * 8);
    for &w in bv.words() {
        e.u64(w);
    }
}

fn dec_bitvec(d: &mut Dec<'_>) -> Result<BitVec> {
    let len = d.usize()?;
    // `words` bounds the word count by the payload before anything is
    // allocated: each word is 8 payload bytes.
    let words = d.words(len.div_ceil(64))?.collect();
    BitVec::from_words(len, words)
        .ok_or_else(|| StoreError::Corrupt("bit vector representation invariant violated".into()))
}

fn enc_feature_sets(e: &mut Enc, fs: &FeatureSets) {
    for bv in [
        &fs.salient.pos,
        &fs.salient.neg,
        &fs.extreme.pos,
        &fs.extreme.neg,
    ] {
        enc_bitvec(e, bv);
    }
}

fn dec_feature_sets(d: &mut Dec<'_>) -> Result<FeatureSets> {
    Ok(FeatureSets {
        salient: FeatureSet {
            pos: dec_bitvec(d)?,
            neg: dec_bitvec(d)?,
        },
        extreme: FeatureSet {
            pos: dec_bitvec(d)?,
            neg: dec_bitvec(d)?,
        },
    })
}

fn enc_thresholds(e: &mut Enc, t: &Thresholds) {
    e.f64(t.salient_pos);
    e.f64(t.salient_neg);
    e.f64(t.extreme_pos);
    e.f64(t.extreme_neg);
}

fn dec_thresholds(d: &mut Dec<'_>) -> Result<Thresholds> {
    Ok(Thresholds {
        salient_pos: d.f64()?,
        salient_neg: d.f64()?,
        extreme_pos: d.f64()?,
        extreme_neg: d.f64()?,
    })
}

/// The interval map `interval_of_step` is piecewise constant (a seasonal
/// interval spans weeks of hourly steps), so it travels as `(id, run
/// length)` pairs instead of one `i64` per time step.
fn enc_seasonal(e: &mut Enc, s: &SeasonalThresholds) {
    let runs: Vec<(i64, u64)> = s
        .interval_of_step
        .chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len() as u64))
        .collect();
    e.usize(runs.len());
    for (id, len) in runs {
        e.i64(id);
        e.u64(len);
    }
    e.usize(s.interval_ids.len());
    for &id in &s.interval_ids {
        e.i64(id);
    }
    e.usize(s.per_interval.len());
    for t in &s.per_interval {
        enc_thresholds(e, t);
    }
}

/// Decodes seasonal thresholds whose interval map must cover exactly
/// `n_steps` steps. The caller has already bounded `n_steps` by the
/// payload (the entry's bit vectors hold at least one bit per step), and
/// the run lengths are summed — overflow-checked — and compared with it
/// *before* the map is allocated, so the expansion is at most a fixed
/// multiple of the blob's own length whatever the run lengths claim.
fn dec_seasonal(d: &mut Dec<'_>, n_steps: usize) -> Result<SeasonalThresholds> {
    let n_runs = d.seq_len(16)?;
    let mut words = d.words(n_runs * 2)?;
    let mut runs = Vec::with_capacity(n_runs);
    let mut covered = 0usize;
    while let (Some(id), Some(len)) = (words.next(), words.next()) {
        let end = usize::try_from(len)
            .ok()
            .filter(|&len| len > 0)
            .and_then(|len| covered.checked_add(len));
        let Some(end) = end else {
            return Err(StoreError::Corrupt(
                "seasonal interval map: zero-length or overflowing run".into(),
            ));
        };
        runs.push((id as i64, end - covered));
        covered = end;
    }
    if covered != n_steps {
        return Err(StoreError::Corrupt(format!(
            "seasonal interval map runs cover {covered} steps, expected {n_steps}"
        )));
    }
    let mut interval_of_step = Vec::with_capacity(n_steps);
    for (id, len) in runs {
        interval_of_step.extend(std::iter::repeat_n(id, len));
    }
    let n = d.seq_len(8)?;
    let interval_ids: Vec<i64> = d.words(n)?.map(|w| w as i64).collect();
    let n = d.seq_len(32)?;
    let mut per_interval = Vec::with_capacity(n);
    for _ in 0..n {
        per_interval.push(dec_thresholds(d)?);
    }
    if interval_ids.len() != per_interval.len() {
        return Err(StoreError::Corrupt(
            "seasonal thresholds: interval ids and thresholds disagree".into(),
        ));
    }
    Ok(SeasonalThresholds {
        interval_of_step,
        interval_ids,
        per_interval,
    })
}

/// Encodes a field blob: the `n_regions × n_steps` values as IEEE-754 bit
/// patterns and nothing else — the shape lives in the entry's hot blob.
fn enc_field(field: &ScalarField) -> Vec<u8> {
    let mut e = Enc::new();
    e.reserve(field.values.len() * 8);
    for &v in &field.values {
        e.f64(v);
    }
    e.into_bytes()
}

/// Encodes one function entry as its two blobs: the *hot* blob every
/// query reads (spec, shape, feature bit vectors, seasonal thresholds,
/// tree statistics) and, when the entry kept its scalar field, the *field*
/// blob only `thresholds` clauses read.
///
/// `dataset_index` is deliberately *not* part of either payload: it lives
/// in the manifest's segment directory, so incremental upsert/remove can
/// renumber data sets by rewriting only the manifest while copying blob
/// bytes verbatim.
pub fn encode_function_segment(entry: &FunctionEntry) -> (Vec<u8>, Option<Vec<u8>>) {
    let mut e = Enc::new();
    enc_spec(&mut e, &entry.spec);
    enc_resolution(&mut e, entry.resolution);
    e.usize(entry.n_regions);
    e.i64(entry.start_bucket);
    e.usize(entry.n_steps);
    enc_feature_sets(&mut e, &entry.features);
    enc_seasonal(&mut e, &entry.thresholds);
    e.usize(entry.tree_nodes);
    (e.into_bytes(), entry.field.as_ref().map(enc_field))
}

/// Decodes one function entry from its hot blob and, when the caller
/// fetched it, its field blob; `dataset_index` comes from the manifest's
/// segment directory. Without `field` the entry decodes field-less — every
/// clause except `thresholds` evaluates on it unchanged.
pub fn decode_function_segment(
    hot: &[u8],
    field: Option<&[u8]>,
    dataset_index: usize,
    what: &str,
) -> Result<FunctionEntry> {
    let mut d = Dec::new(hot, what);
    let spec = dec_spec(&mut d)?;
    let resolution = dec_resolution(&mut d)?;
    let n_regions = d.usize()?;
    let start_bucket = d.i64()?;
    let n_steps = d.usize()?;
    let features = dec_feature_sets(&mut d)?;
    // With at least one region, four decoded bit vectors of `n_vertices`
    // bits bound `n_steps` by eight times the blob's length — the bound
    // `dec_seasonal` and the field decoder allocate under.
    let n_vertices = n_regions
        .checked_mul(n_steps)
        .filter(|_| n_regions >= 1)
        .ok_or_else(|| StoreError::Corrupt(format!("{what}: impossible entry shape")))?;
    for (side, bv) in [
        ("salient.pos", &features.salient.pos),
        ("salient.neg", &features.salient.neg),
        ("extreme.pos", &features.extreme.pos),
        ("extreme.neg", &features.extreme.neg),
    ] {
        if bv.len() != n_vertices {
            return Err(StoreError::Corrupt(format!(
                "{what}: {side} covers {} vertices, expected {n_vertices}",
                bv.len()
            )));
        }
    }
    let thresholds = dec_seasonal(&mut d, n_steps)?;
    let tree_nodes = d.usize()?;
    d.finish()?;
    // A field blob carries no shape of its own: it must hold exactly one
    // value per vertex of its entry, or slicing would panic later.
    let field = match field {
        None => None,
        Some(bytes) => {
            let what = format!("{what} field");
            let mut d = Dec::new(bytes, &what);
            let values = d.words(n_vertices)?.map(f64::from_bits).collect();
            d.finish()?;
            Some(ScalarField {
                resolution,
                n_regions,
                start_bucket,
                n_steps,
                values,
            })
        }
    };
    Ok(FunctionEntry {
        spec,
        dataset_index,
        resolution,
        n_regions,
        start_bucket,
        n_steps,
        features,
        thresholds,
        field,
        tree_nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_entry(with_field: bool, n_regions: usize, n_steps: usize) -> FunctionEntry {
        let n = n_regions * n_steps;
        let mut salient = FeatureSet::empty(n);
        let mut extreme = FeatureSet::empty(n);
        for i in (0..n).step_by(3) {
            salient.pos.set(i);
        }
        for i in (1..n).step_by(7) {
            salient.neg.set(i);
        }
        if n > 2 {
            extreme.pos.set(n - 1);
            extreme.neg.set(2);
        }
        let field = with_field.then(|| ScalarField {
            resolution: Resolution::new(SpatialResolution::City, TemporalResolution::Hour),
            n_regions,
            start_bucket: -5,
            n_steps,
            values: (0..n)
                .map(|i| {
                    if i % 11 == 0 {
                        f64::NAN
                    } else {
                        i as f64 * 0.5
                    }
                })
                .collect(),
        });
        FunctionEntry {
            spec: FunctionSpec::attribute("taxi", 2, "fare", AggregateKind::Mean),
            dataset_index: 4,
            resolution: Resolution::new(SpatialResolution::City, TemporalResolution::Hour),
            n_regions,
            start_bucket: -5,
            n_steps,
            features: FeatureSets { salient, extreme },
            thresholds: SeasonalThresholds {
                interval_of_step: (0..n_steps).map(|z| (z / 24) as i64).collect(),
                interval_ids: vec![0, 1],
                per_interval: vec![
                    Thresholds {
                        salient_pos: 3.0,
                        salient_neg: -1.0,
                        extreme_pos: f64::NAN,
                        extreme_neg: f64::NAN,
                    },
                    Thresholds::none(),
                ],
            },
            field,
            tree_nodes: 17,
        }
    }

    fn decode(blobs: &(Vec<u8>, Option<Vec<u8>>)) -> Result<FunctionEntry> {
        decode_function_segment(&blobs.0, blobs.1.as_deref(), 4, "test")
    }

    /// Byte-level round trip: decode(encode(x)) re-encodes to the identical
    /// bytes. (Struct equality is vacuous under NaN thresholds; byte
    /// equality is exact and covers NaN via bit patterns.)
    #[test]
    fn segment_roundtrip_bytes() {
        for (with_field, nr, ns) in [(true, 3, 50), (false, 1, 200), (true, 1, 1)] {
            let entry = sample_entry(with_field, nr, ns);
            let blobs = encode_function_segment(&entry);
            assert_eq!(blobs.1.is_some(), with_field);
            let back = decode(&blobs).unwrap();
            assert_eq!(encode_function_segment(&back), blobs);
            assert_eq!(back.dataset_index, entry.dataset_index);
            assert_eq!(back.spec, entry.spec);
            assert_eq!(back.features, entry.features);
            assert_eq!(
                back.thresholds.interval_of_step,
                entry.thresholds.interval_of_step
            );
            // The hot blob alone is the same entry without its field.
            let hot_only = decode_function_segment(&blobs.0, None, 4, "test").unwrap();
            assert!(hot_only.field.is_none());
            assert_eq!(encode_function_segment(&hot_only).0, blobs.0);
        }
    }

    #[test]
    fn truncated_segment_is_corrupt_not_panic() {
        let (hot, field) = encode_function_segment(&sample_entry(true, 2, 30));
        let field = field.unwrap();
        for cut in [0, 1, 7, hot.len() / 2, hot.len() - 1] {
            let err = decode_function_segment(&hot[..cut], Some(&field), 0, "test").unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt(_)),
                "cut at {cut} gave {err:?}"
            );
        }
        for cut in [0, 8, field.len() - 1] {
            let err = decode_function_segment(&hot, Some(&field[..cut]), 0, "test").unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt(_)),
                "field cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn mismatched_field_shape_rejected() {
        // A field blob carries no shape: one holding fewer (or more) values
        // than its entry has vertices must decode to Corrupt, not pass and
        // panic later during slicing.
        let mut entry = sample_entry(true, 2, 30);
        entry.field.as_mut().unwrap().values.truncate(2 * 10);
        assert!(matches!(
            decode(&encode_function_segment(&entry)),
            Err(StoreError::Corrupt(_))
        ));
        entry.field.as_mut().unwrap().values.resize(2 * 30 + 1, 0.0);
        assert!(matches!(
            decode(&encode_function_segment(&entry)),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut blobs = encode_function_segment(&sample_entry(false, 1, 10));
        blobs.0.push(0);
        assert!(matches!(decode(&blobs), Err(StoreError::Corrupt(_))));
    }

    /// The interval map is run-length encoded: a year of hourly steps costs
    /// a handful of pairs, and every way the runs can misstate the step
    /// count is rejected before the map is allocated.
    #[test]
    fn interval_map_is_run_length_encoded_and_checked() {
        let entry = sample_entry(false, 1, 8_760);
        let (hot, _) = encode_function_segment(&entry);
        assert!(hot.len() < 8 * 8_760, "hot blob is {} bytes", hot.len());
        let back = decode_function_segment(&hot, None, 0, "test").unwrap();
        assert_eq!(
            back.thresholds.interval_of_step,
            entry.thresholds.interval_of_step
        );

        // Locate the run list: it follows the four bit vectors.
        let mut e = Enc::new();
        enc_spec(&mut e, &entry.spec);
        enc_resolution(&mut e, entry.resolution);
        e.usize(entry.n_regions);
        e.i64(entry.start_bucket);
        e.usize(entry.n_steps);
        enc_feature_sets(&mut e, &entry.features);
        let runs_at = e.len();
        let n_runs = 8_760usize.div_ceil(24);
        assert_eq!(hot[runs_at..runs_at + 8], (n_runs as u64).to_le_bytes());
        let first_len = runs_at + 16;
        for bad_len in [0u64, 23, 25, u64::MAX, u64::MAX - 8_000] {
            let mut bytes = hot.clone();
            bytes[first_len..first_len + 8].copy_from_slice(&bad_len.to_le_bytes());
            assert!(
                matches!(
                    decode_function_segment(&bytes, None, 0, "test"),
                    Err(StoreError::Corrupt(_))
                ),
                "first run length {bad_len}"
            );
        }
    }

    #[test]
    fn unknown_enum_codes_rejected() {
        let mut e = Enc::new();
        e.u8(250);
        e.u8(0);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes, "test");
        assert!(matches!(
            dec_resolution(&mut d),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn absurd_sequence_length_rejected_before_allocation() {
        let mut e = Enc::new();
        e.u64(u64::MAX / 2); // claimed length far beyond the payload
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes, "test");
        assert!(matches!(d.seq_len(8), Err(StoreError::Corrupt(_))));
    }

    proptest! {
        /// Primitive round trips across the codec's whole value space.
        #[test]
        fn primitives_roundtrip(
            a in 0u64..u64::MAX,
            b in i64::MIN..i64::MAX,
            c in 0u32..u32::MAX,
            d_ in 0u8..u8::MAX,
            f_bits in 0u64..u64::MAX,
        ) {
            let f = f64::from_bits(f_bits);
            let mut e = Enc::new();
            e.u64(a);
            e.i64(b);
            e.u32(c);
            e.u8(d_);
            e.f64(f);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes, "prop");
            prop_assert_eq!(d.u64().unwrap(), a);
            prop_assert_eq!(d.i64().unwrap(), b);
            prop_assert_eq!(d.u32().unwrap(), c);
            prop_assert_eq!(d.u8().unwrap(), d_);
            prop_assert_eq!(d.f64().unwrap().to_bits(), f.to_bits());
            d.finish().unwrap();
        }

        /// Whole-segment round trip over randomized shapes and payloads:
        /// encode → decode → encode is the identity on bytes.
        #[test]
        fn segment_roundtrip_randomized(
            n_regions in 1usize..4,
            n_steps in 1usize..64,
            with_field in prop_oneof![Just(true), Just(false)],
            seed in 0u64..u64::MAX,
        ) {
            let mut entry = sample_entry(with_field, n_regions, n_steps);
            // Scatter seed-driven bits through the feature sets.
            let n = n_regions * n_steps;
            let mut x = seed | 1;
            for _ in 0..16 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                entry.features.salient.pos.set((x as usize) % n);
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                entry.features.extreme.neg.set((x as usize) % n);
            }
            if let Some(field) = &mut entry.field {
                field.values[0] = f64::from_bits(seed);
            }
            let blobs = encode_function_segment(&entry);
            let back = decode(&blobs).unwrap();
            prop_assert_eq!(encode_function_segment(&back), blobs);
        }
    }
}
