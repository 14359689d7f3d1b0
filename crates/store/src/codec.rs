//! The explicit little-endian codec for on-disk structures.
//!
//! Every multi-byte integer is little-endian; floats are IEEE-754 bit
//! patterns (NaN values round-trip exactly); strings and sequences are
//! length-prefixed. Enums travel as the stable one-byte wire codes exposed
//! by `polygamy_stdata` — never as `#[derive]`d discriminants, which are an
//! implementation detail of the Rust compiler. The two structures an index
//! weighs travel compressed, losslessly: a bit vector as runs of all-zero
//! and all-ones words between literal stretches (`enc_bitvec`), and a
//! function's scalar field as a mask of its defined values followed by
//! those values, run-length coded as words or as varint counts
//! ([`encode_field`]). The city geometry travels plain: per partition its
//! resolution code, its rings as coordinate bit patterns and its adjacency
//! lists ([`encode_geometry`]).
//!
//! Decoding is total: any byte sequence either decodes to a valid structure
//! or yields a typed [`StoreError`]. The decoder therefore checks every
//! length against the remaining payload, validates enum codes, and verifies
//! structural invariants (bit-vector token lengths and padding bits, field
//! token lengths and value counts) that a crafted or corrupted payload
//! could violate even with a matching checksum; and it allocates at most a
//! fixed multiple of the bytes it has consumed, growing a compressed
//! vector token by token rather than from the length it declares.

use crate::error::{Result, StoreError};
use crate::format::SegmentInfo;
use polygamy_core::index::FunctionEntry;
use polygamy_core::{CityGeometry, FunctionSpec};
use polygamy_stdata::{
    GeoPoint, Polygon, Resolution, ScalarField, SpatialPartition, SpatialResolution,
    TemporalResolution,
};
use polygamy_topology::{BitVec, FeatureSet, FeatureSets};
use std::sync::Arc;

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

    /// Appends an `f64` as its bit pattern (NaN-exact).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends `words` little-endian in one resize — the bulk form of
    /// [`Enc::u64`], read back by [`Dec::words`].
    pub fn words(&mut self, words: &[u64]) {
        self.extend_words(words.iter().copied());
    }

    /// Appends `values` as their bit patterns in one resize — the bulk
    /// form of [`Enc::f64`], read back by [`Dec::words`].
    pub fn f64s(&mut self, values: &[f64]) {
        self.extend_words(values.iter().map(|v| v.to_bits()));
    }

    fn extend_words(&mut self, words: impl ExactSizeIterator<Item = u64>) {
        let at = self.buf.len();
        self.buf.resize(at + 8 * words.len(), 0);
        for (slot, word) in self.buf[at..].chunks_exact_mut(8).zip(words) {
            slot.copy_from_slice(&word.to_le_bytes());
        }
    }

    /// Appends a `usize` widened to `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a `u64` as an unsigned LEB128 varint: seven bits per byte,
    /// least significant group first, the high bit set on every byte but
    /// the last — always the shortest form (1 to 10 bytes).
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
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

    pub(crate) fn corrupt(&self, detail: &str) -> StoreError {
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

    /// Reads an unsigned LEB128 varint (see [`Enc::varint`]). Padded forms
    /// decode to the value they spell; more than 10 bytes, or a tenth byte
    /// carrying bits beyond the 64th, is corruption — never a wrapped value.
    pub fn varint(&mut self) -> Result<u64> {
        // Most varints a field blob holds are a single byte.
        if let Some(&byte) = self.buf.get(self.pos).filter(|&&b| b < 0x80) {
            self.pos += 1;
            return Ok(u64::from(byte));
        }
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = u64::from(byte & 0x7f);
            if shift == 63 && bits > 1 {
                return Err(self.corrupt("varint overflows 64 bits"));
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.corrupt("varint longer than 10 bytes"))
    }

    /// Reads a varint (see [`Dec::varint`]) narrowed to `usize`.
    pub fn usize_varint(&mut self) -> Result<usize> {
        usize::try_from(self.varint()?).map_err(|_| self.corrupt("length exceeds usize"))
    }

    /// Consumes the one-byte varints (bytes under `0x80`) at the cursor, at
    /// most `max` of them, and returns them: eight at a time, which is what
    /// makes a literal stretch of small counts cheap to walk.
    fn one_byte_varints(&mut self, max: usize) -> &'a [u8] {
        let rest = &self.buf[self.pos..];
        let window = &rest[..rest.len().min(max)];
        let whole_words = window
            .chunks_exact(8)
            .take_while(|w| {
                u64::from_le_bytes((*w).try_into().expect("8")) & 0x8080_8080_8080_8080 == 0
            })
            .count();
        let n = 8 * whole_words
            + window[8 * whole_words..]
                .iter()
                .take_while(|&&b| b < 0x80)
                .count();
        self.pos += n;
        &window[..n]
    }

    /// Reads a length-prefixed UTF-8 string, in place.
    pub fn str(&mut self) -> Result<&'a str> {
        let n = self.seq_len(1)?;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|_| self.corrupt("invalid utf-8 in string"))
    }

    /// Asserts full consumption — trailing garbage means corruption.
    pub fn finish(self) -> Result<()> {
        if self.pos == self.buf.len() {
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

/// Bit-vector token kinds, the low two bits of a token: a run of all-zero
/// words, a run of all-ones words, a literal stretch of words. (3 is no
/// kind.)
const ZERO_RUN: u64 = 0;
const ONES_RUN: u64 = 1;
const LITERAL: u64 = 2;

/// The most words one run token spells; the encoder splits longer runs.
/// `LEB128(64 << 2 | kind)` is two bytes, so a decoded vector holds at most
/// 256 bytes of words per byte of token (a one-byte token spells at most
/// 31 words, 248 bytes) — the expansion bound every allocation made while
/// decoding a hot blob goes back to.
const MAX_RUN_WORDS: usize = 64;

/// Encodes the `bits`-bit vector `words` (the [`BitVec`] word layout, every
/// bit past `bits` clear):
///
/// ```text
/// bitvec = LEB128(bits) token*
/// token  = LEB128(len << 2 | 0)            `len` all-zero words
///        | LEB128(len << 2 | 1)            `len` all-ones words
///        | LEB128(len << 2 | 2) word{len}  a literal stretch, 8 bytes LE each
/// ```
///
/// Chosen from the bits alone: every maximal run of all-zero or all-ones
/// words is a run token — in tokens of at most [`MAX_RUN_WORDS`] — and
/// everything between two runs is one literal stretch. A run of one word
/// already pays: its token is a byte where the literal word is eight and
/// the stretch it interrupts resumes for one header byte.
fn enc_bitvec(e: &mut Enc, bits: usize, words: &[u64]) {
    e.varint(bits as u64);
    let mut rest = words;
    while let Some(&first) = rest.first() {
        let (len, kind) = if first == 0 || first == u64::MAX {
            let run = rest.iter().take(MAX_RUN_WORDS).take_while(|&&w| w == first);
            (run.count(), if first == 0 { ZERO_RUN } else { ONES_RUN })
        } else {
            let literal = rest.iter().position(|&w| w == 0 || w == u64::MAX);
            (literal.unwrap_or(rest.len()), LITERAL)
        };
        e.varint((len as u64) << 2 | kind);
        if kind == LITERAL {
            e.words(&rest[..len]);
        }
        rest = &rest[len..];
    }
}

/// Where [`walk_bitvec`] puts the words it reads: a vector for a decode, a
/// count of set bits for a validation.
trait WordSink {
    /// `len` copies of `word` (all zeros or all ones).
    fn run(&mut self, word: u64, len: usize);
    /// A literal stretch, in order.
    fn words(&mut self, words: impl Iterator<Item = u64>);
    /// Set bits received so far.
    fn ones(&self) -> usize;
}

impl WordSink for Vec<u64> {
    fn run(&mut self, word: u64, len: usize) {
        self.resize(self.len() + len, word);
    }

    fn words(&mut self, words: impl Iterator<Item = u64>) {
        self.extend(words);
    }

    fn ones(&self) -> usize {
        self.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// The word sink of [`validate_field`]: counts, allocates nothing.
struct CountOnes(usize);

impl WordSink for CountOnes {
    fn run(&mut self, word: u64, len: usize) {
        self.0 += word.count_ones() as usize * len;
    }

    fn words(&mut self, words: impl Iterator<Item = u64>) {
        self.0 += words.map(|w| w.count_ones() as usize).sum::<usize>();
    }

    fn ones(&self) -> usize {
        self.0
    }
}

/// Reads a bit vector's `LEB128(bits)` header and requires it to be
/// `expected` — a shape the caller already holds — before any token is read.
fn bitvec_header(d: &mut Dec<'_>, expected: usize, side: &str) -> Result<()> {
    let bits = d.varint()?;
    if bits != expected as u64 {
        return Err(d.corrupt(&format!("{side} covers {bits} bits, expected {expected}")));
    }
    Ok(())
}

/// The one token walk over a bit vector of `bits` bits whose header was
/// read, behind [`dec_bitvec`] and the field mask alike: the words reach
/// `sink` token by token, never more than `bits.div_ceil(64)` of them, and
/// a token is checked — kind, `len ≥ 1`, a run's `len ≤` [`MAX_RUN_WORDS`],
/// the end of the vector, no bit set past `bits` — before anything of it
/// is handed on. A sink that stores the words therefore grows only with
/// bytes really consumed, whatever `bits` said.
fn walk_bitvec(d: &mut Dec<'_>, bits: usize, sink: &mut impl WordSink) -> Result<()> {
    let n_words = bits.div_ceil(64);
    // Bits the last word may have set; a full last word may set all.
    let last_mask = match bits % 64 {
        0 => u64::MAX,
        tail => (1u64 << tail) - 1,
    };
    let mut walked = 0usize;
    while walked < n_words {
        let token = d.varint()?;
        let kind = token & 3;
        let end = usize::try_from(token >> 2)
            .ok()
            .filter(|&len| len > 0 && (kind == LITERAL || len <= MAX_RUN_WORDS))
            .and_then(|len| walked.checked_add(len))
            .filter(|&end| end <= n_words)
            .ok_or_else(|| {
                d.corrupt("empty or overlong bit-vector token, or one past the vector's last word")
            })?;
        let len = end - walked;
        let last = if end == n_words { last_mask } else { u64::MAX };
        match kind {
            ZERO_RUN => sink.run(0, len),
            ONES_RUN if last == u64::MAX => sink.run(u64::MAX, len),
            LITERAL => {
                let raw = d.take(8 * len)?;
                let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8"));
                if word(&raw[raw.len() - 8..]) & !last != 0 {
                    return Err(d.corrupt("bit vector sets a bit past its length"));
                }
                sink.words(raw.chunks_exact(8).map(word));
            }
            ONES_RUN => return Err(d.corrupt("bit vector sets a bit past its length")),
            _ => return Err(d.corrupt("unknown bit-vector token kind 3")),
        }
        walked = end;
    }
    Ok(())
}

/// Decodes a bit vector that must hold exactly `bits` bits (see
/// [`enc_bitvec`]) into `words`, an empty vector whose capacity the caller
/// chose: none, and the words grow token by token (and are trimmed to
/// their length at the end), so the vector never holds more than 256 bytes
/// per byte consumed whatever its header declared; or `bits.div_ceil(64)`,
/// a length an already decoded vector has spelled out.
fn dec_bitvec(d: &mut Dec<'_>, bits: usize, side: &str, mut words: Vec<u64>) -> Result<BitVec> {
    bitvec_header(d, bits, side)?;
    walk_bitvec(d, bits, &mut words)?;
    words.shrink_to_fit();
    BitVec::from_words(bits, words)
        .ok_or_else(|| d.corrupt("bit vector representation invariant violated"))
}

/// Encodes one bit vector as a hot blob carries each of its four.
pub fn encode_bitvec(bv: &BitVec) -> Vec<u8> {
    let mut e = Enc::new();
    enc_bitvec(&mut e, bv.len(), bv.words());
    e.into_bytes()
}

/// Decodes one bit vector of exactly `bits` bits from `bytes` and nothing
/// else — what a hot blob's decoder does four times over.
pub fn decode_bitvec(bytes: &[u8], bits: usize, what: &str) -> Result<BitVec> {
    let mut d = Dec::new(bytes, what);
    let bv = dec_bitvec(&mut d, bits, "bit vector", Vec::new())?;
    d.finish()?;
    Ok(bv)
}

fn enc_feature_sets(e: &mut Enc, fs: &FeatureSets) {
    for bv in [
        &fs.salient.pos,
        &fs.salient.neg,
        &fs.extreme.pos,
        &fs.extreme.neg,
    ] {
        enc_bitvec(e, bv.len(), bv.words());
    }
}

/// Decodes the four feature vectors of an entry with `n_vertices` vertices.
/// The first grows token by token; once it stands, `n_vertices` is a length
/// the bytes consumed have spelled out, and the other three are allocated
/// at it in one go.
fn dec_feature_sets(d: &mut Dec<'_>, n_vertices: usize) -> Result<FeatureSets> {
    let salient_pos = dec_bitvec(d, n_vertices, "salient.pos", Vec::new())?;
    let mut next = |side| {
        let words = Vec::with_capacity(salient_pos.words().len());
        dec_bitvec(d, n_vertices, side, words)
    };
    let salient_neg = next("salient.neg")?;
    let extreme = FeatureSet {
        pos: next("extreme.pos")?,
        neg: next("extreme.neg")?,
    };
    Ok(FeatureSets {
        salient: FeatureSet {
            pos: salient_pos,
            neg: salient_neg,
        },
        extreme,
    })
}

/// Field blob mode `words`: a value is its 8-byte little-endian IEEE-754
/// bit pattern.
const MODE_WORDS: u8 = 0;

/// Field blob mode `counts`: a value is `LEB128(v)`.
const MODE_COUNTS: u8 = 1;

/// The largest value mode `counts` represents.
const MAX_COUNT: u64 = 1 << 32;

/// The undefined value the mask leaves out: the quiet NaN with an empty
/// payload, which is what `f64::NAN` — the indexer's "no value" — is on
/// every current target. Spelled out because the format must not move if
/// that constant ever does (such values would travel as `words`).
const CANONICAL_NAN: u64 = 0x7FF8_0000_0000_0000;

/// Shortest run of identical bit patterns the encoder writes as a run
/// token, per mode. A `words` run costs 9 bytes against 8 per literal
/// value, so two already pay. A `counts` value is mostly one byte and a
/// run that interrupts a literal stretch also costs the header of the
/// stretch resuming after it, so a pair is left literal; on the urban
/// benchmark corpus 3 stores 4,716,703 field bytes, 2 and 4 store 4,723,013
/// and 4,755,259 (store format 3, before the mask took the NaN runs out).
const MIN_RUN_WORDS: usize = 2;
const MIN_RUN_COUNTS: usize = 3;

/// True unless `v` is the canonical NaN: the field mask's bit for `v`.
fn is_defined(v: f64) -> bool {
    v.to_bits() != CANONICAL_NAN
}

/// The `counts` code of `v`: `v` itself for a non-negative integer up to
/// 2³² with a `+0` sign, `None` for every other bit pattern (−0.0,
/// fractions, negatives, infinities, NaNs).
fn count_code(v: f64) -> Option<u64> {
    // `as` saturates: negatives and NaNs land on 0, whose bit pattern
    // (+0.0) they do not share.
    let count = v as u64;
    (count <= MAX_COUNT && (count as f64).to_bits() == v.to_bits()).then_some(count)
}

/// Encodes a field blob: which values are defined, then the defined values
/// run-length coded, and nothing else — the shape lives in the entry's hot
/// blob.
///
/// ```text
/// blob    = mask mode token*
/// mask    = bitvec (see `enc_bitvec`)      bit i set iff value i is not
///                                           the canonical NaN
/// mode    = 0x00 (words) | 0x01 (counts)
/// token   = LEB128(len << 1 | 1) value          a run: `len` times `value`
///         | LEB128(len << 1 | 0) value{len}     a literal stretch
/// value   = 8 bytes, the f64's bits, LE         in mode words
///         | LEB128(v) for the integer v         in mode counts
/// ```
///
/// The tokens spell the defined values only, in order: an undefined value
/// costs its mask bit, and a stretch of defined values is never cut by the
/// NaNs between them. The mode is chosen from those values alone: `counts`
/// iff every one is a non-negative integer ≤ 2³² with a `+0` sign (an urban
/// density or unique-count layer), else `words` — which holds every bit
/// pattern there is, so nothing is ever lost, and which with no runs and no
/// NaN *is* the raw encoding plus a few header bytes. Runs are maximal runs
/// of identical bit patterns of at least the mode's minimum length;
/// everything between two runs is one literal stretch. The bytes are
/// therefore a pure function of the values.
pub fn encode_field(values: &[f64]) -> Vec<u8> {
    // One pass: a mask word per 64 values, and their defined values —
    // copied whole where all are, skipped where none is.
    let mut mask = Vec::with_capacity(values.len().div_ceil(64));
    let mut defined = Vec::with_capacity(values.len());
    for chunk in values.chunks(64) {
        let word = (chunk.iter().enumerate())
            .fold(0u64, |word, (i, &v)| word | u64::from(is_defined(v)) << i);
        if word.count_ones() as usize == chunk.len() {
            defined.extend_from_slice(chunk);
        } else if word != 0 {
            defined.extend(chunk.iter().copied().filter(|&v| is_defined(v)));
        }
        mask.push(word);
    }
    let counts = defined.iter().all(|&v| count_code(v).is_some());
    let (mode, min_run) = if counts {
        (MODE_COUNTS, MIN_RUN_COUNTS)
    } else {
        (MODE_WORDS, MIN_RUN_WORDS)
    };
    let mut e = Enc::new();
    enc_bitvec(&mut e, values.len(), &mask);
    e.u8(mode);
    let value = |e: &mut Enc, v: f64| match count_code(v) {
        Some(code) if counts => e.varint(code),
        _ => e.f64(v),
    };
    let literal = |e: &mut Enc, stretch: &[f64]| {
        if stretch.is_empty() {
            return;
        }
        e.varint((stretch.len() as u64) << 1);
        if counts {
            e.reserve(stretch.len());
            for &v in stretch {
                value(e, v);
            }
        } else {
            e.f64s(stretch);
        }
    };
    let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
    // `defined[..written]` is encoded; `defined[scanned]` starts a maximal
    // run, and no run from `written` up to it is long enough for a token.
    let (mut written, mut scanned) = (0, 0);
    while let Some(pair) = defined[scanned..].windows(2).position(|w| same(w[0], w[1])) {
        let start = scanned + pair;
        let first = defined[start];
        let len = 2 + defined[start + 2..]
            .iter()
            .take_while(|&&v| same(v, first))
            .count();
        if len >= min_run {
            literal(&mut e, &defined[written..start]);
            e.varint((len as u64) << 1 | 1);
            value(&mut e, first);
            written = start + len;
        }
        scanned = start + len;
    }
    literal(&mut e, &defined[written..]);
    e.into_bytes()
}

/// Where [`walk_field`] puts the defined values it reads: a vector for a
/// decode, nowhere for a validation.
trait FieldSink {
    /// `len` copies of `v`.
    fn run(&mut self, v: f64, len: usize);
    /// One value per bit pattern.
    fn words(&mut self, words: impl Iterator<Item = u64>);
    /// One value per one-byte `counts` code.
    fn codes(&mut self, codes: &[u8]);
}

impl FieldSink for Vec<f64> {
    fn run(&mut self, v: f64, len: usize) {
        self.resize(self.len() + len, v);
    }

    fn words(&mut self, words: impl Iterator<Item = u64>) {
        self.extend(words.map(f64::from_bits));
    }

    fn codes(&mut self, codes: &[u8]) {
        self.extend(codes.iter().map(|&code| f64::from(code)));
    }
}

/// The value sink of [`validate_field`]: every check, no output.
struct NoOutput;

impl FieldSink for NoOutput {
    fn run(&mut self, _: f64, _: usize) {}
    fn words(&mut self, _: impl Iterator<Item = u64>) {}
    fn codes(&mut self, _: &[u8]) {}
}

/// The one walk over a field blob, behind [`decode_field`] (which documents
/// its checks) and [`validate_field`] alike: the mask's words reach `mask`
/// and then the defined values reach `values`, in order, never more of
/// either than the shape allows whatever the blob claims — the mask must
/// cover exactly `n_vertices` bits, and a value token is checked against
/// the mask's count of set bits before anything of it is handed on.
fn walk_field(
    bytes: &[u8],
    n_vertices: usize,
    what: &str,
    mask: &mut impl WordSink,
    values: &mut impl FieldSink,
) -> Result<()> {
    let mut d = Dec::new(bytes, what);
    bitvec_header(&mut d, n_vertices, "mask")?;
    walk_bitvec(&mut d, n_vertices, mask)?;
    let n_defined = mask.ones();
    let counts = match d.u8()? {
        MODE_WORDS => false,
        MODE_COUNTS => true,
        mode => return Err(d.corrupt(&format!("unknown field mode {mode}"))),
    };
    let count = |d: &mut Dec<'_>| match d.varint()? {
        code if code <= MAX_COUNT => Ok(code as f64),
        code => Err(d.corrupt(&format!("count {code} out of range"))),
    };
    let mut walked = 0usize;
    while walked < n_defined {
        let token = d.varint()?;
        let end = usize::try_from(token >> 1)
            .ok()
            .filter(|&len| len > 0)
            .and_then(|len| walked.checked_add(len))
            .filter(|&end| end <= n_defined)
            .ok_or_else(|| d.corrupt("empty token, or one past the mask's last defined value"))?;
        if token & 1 == 1 {
            let v = if counts { count(&mut d)? } else { d.f64()? };
            values.run(v, end - walked);
        } else if counts {
            // A literal stretch of counts is mostly one-byte codes, taken
            // in bulk; each longer code between them goes the checked way
            // (which is also where a stream ending early is reported).
            let mut left = end - walked;
            while left > 0 {
                let short = d.one_byte_varints(left);
                values.codes(short);
                left -= short.len();
                if left > 0 {
                    values.run(count(&mut d)?, 1);
                    left -= 1;
                }
            }
        } else {
            values.words(d.words(end - walked)?);
        }
        walked = end;
    }
    d.finish()
}

/// Moves the defined values — `values`, in order — onto the set bits of
/// `mask` and fills every other slot of `n_vertices` with the canonical
/// NaN: in place, from the back, so a value is read before its slot is
/// written. Stops early where everything below is defined and therefore
/// already in place.
fn spread_over_mask(values: &mut Vec<f64>, mask: &[u64], n_vertices: usize) {
    let nan = f64::from_bits(CANONICAL_NAN);
    // `values[..next]` are the defined values not yet placed.
    let mut next = values.len();
    values.resize(n_vertices, nan);
    for (w, &word) in mask.iter().enumerate().rev() {
        let start = 64 * w;
        let end = (start + 64).min(n_vertices);
        if next == end {
            break;
        }
        if word == 0 {
            values[start..end].fill(nan);
        } else if word == u64::MAX {
            values.copy_within(next - 64..next, start);
            next -= 64;
        } else {
            for i in (start..end).rev() {
                values[i] = if word >> (i - start) & 1 == 1 {
                    next -= 1;
                    values[next]
                } else {
                    nan
                };
            }
        }
    }
}

/// Decodes a field blob (see [`encode_field`]) that must hold exactly
/// `n_vertices` values.
///
/// A field blob carries no shape and, run-length coded, its length says
/// nothing about its value count, so every check is in the walk: a mask
/// whose header is not `n_vertices` bits, every bit-vector check (see
/// `walk_bitvec`), an unknown mode, a zero-length token, a varint over 10
/// bytes or 64 bits, a `counts` value above 2³², a token reaching past the
/// mask's count of defined values (checked, overflow included, before
/// anything is written), a stream ending short of that count and bytes
/// after the last token are each [`StoreError::Corrupt`]. The mask's words
/// grow token by token; the values are one allocation of `n_vertices` — a
/// number the caller took from an already decoded hot blob whose four bit
/// vectors hold a bit per vertex, so it is at most 16 bytes per byte of
/// those vectors whatever this blob claims.
pub fn decode_field(bytes: &[u8], n_vertices: usize, what: &str) -> Result<Vec<f64>> {
    let mut mask = Vec::new();
    let mut values = Vec::with_capacity(n_vertices);
    walk_field(bytes, n_vertices, what, &mut mask, &mut values)?;
    spread_over_mask(&mut values, &mask, n_vertices);
    Ok(values)
}

/// Checks that a field blob decodes to exactly `n_vertices` values without
/// producing them: the walk of [`decode_field`] — one function, so every
/// check it makes and the same typed errors — counting the mask's bits
/// instead of keeping them and with nowhere to put a value, allocating
/// nothing. What an eager open runs over every field blob it leaves
/// encoded.
pub fn validate_field(bytes: &[u8], n_vertices: usize, what: &str) -> Result<()> {
    walk_field(bytes, n_vertices, what, &mut CountOnes(0), &mut NoOutput)
}

/// Encodes one function entry as its two blobs: the *hot* blob every
/// query reads (the four feature bit vectors) and, when the entry kept its
/// scalar field, the *field* blob only `thresholds` clauses read.
///
/// What the entry *is* — data set, function, kind, resolution and window —
/// is part of neither payload: it is the segment's directory record
/// ([`SegmentInfo`]), so incremental upsert/remove can renumber data sets
/// by rewriting only the manifest while copying blob bytes verbatim.
pub fn encode_function_segment(entry: &FunctionEntry) -> (Vec<u8>, Option<Vec<u8>>) {
    let mut hot = Enc::new();
    enc_feature_sets(&mut hot, &entry.features);
    let field = entry.field.as_ref().map(|f| encode_field(&f.values));
    (hot.into_bytes(), field)
}

/// Decodes the entry `info` records from its hot blob and, when fetched,
/// its field blob (without, the entry is field-less: every clause but
/// `thresholds` evaluates on it unchanged), named by the `Arc`s it is
/// handed — data set `dataset_index`'s and the record's: it makes no name.
pub fn decode_function_segment(
    info: &SegmentInfo,
    dataset_index: usize,
    dataset: &Arc<str>,
    hot: &[u8],
    field: Option<&[u8]>,
    what: &str,
) -> Result<FunctionEntry> {
    let n_vertices = (info.n_vertices())
        .ok_or_else(|| StoreError::Corrupt(format!("{what}: impossible entry shape")))?;
    // The bound every later allocation stands on: each vector must declare
    // `n_vertices` bits and grows only token by token, so once the four are
    // decoded `n_vertices` is a number 256 bytes per byte consumed have
    // spelled out — and the field decoder (8 bytes a vertex) allocates
    // under it.
    let mut d = Dec::new(hot, what);
    let features = dec_feature_sets(&mut d, n_vertices)?;
    d.finish()?;
    // A field blob carries no shape of its own: it must hold exactly one
    // value per vertex of its entry, or slicing would panic later.
    let field = match field {
        None => None,
        Some(bytes) => Some(ScalarField {
            resolution: info.resolution,
            n_regions: info.n_regions,
            start_bucket: info.start_bucket,
            n_steps: info.n_steps,
            values: decode_field(bytes, n_vertices, &format!("{what} field"))?,
        }),
    };
    Ok(FunctionEntry {
        spec: FunctionSpec::new(Arc::clone(dataset), Arc::clone(&info.function), info.kind),
        dataset_index,
        resolution: info.resolution,
        n_regions: info.n_regions,
        start_bucket: info.start_bucket,
        n_steps: info.n_steps,
        features,
        field,
    })
}

/// The geometry blob's presence tags of an optional partition slot.
const ABSENT: u8 = 0;
const PRESENT: u8 = 1;

/// Encodes the geometry blob: the zip and neighborhood slots, each a
/// presence tag, then the city partition, which is always there.
///
/// ```text
/// geometry  = slot slot partition              zip, neighborhood, city
/// slot      = 0x00 | 0x01 partition            absent | present
/// partition = code u64(n) ring{n} list{n}      code: SpatialResolution::code
/// ring      = u64(len) (f64 x, f64 y){len}     bit patterns, LE
/// list      = u64(len) u32{len}                one region's neighbours
/// ```
///
/// The point-location grid is not stored: [`SpatialPartition::new`]
/// derives it from the polygons. NaN travels as its bit pattern; a
/// coordinate of ±∞ is refused ([`StoreError::Corrupt`]), as the decoder
/// refuses it. Shared by every writer: a sharded store embeds the identical
/// blob in every shard file.
pub fn encode_geometry(geometry: &CityGeometry) -> Result<Vec<u8>> {
    let mut e = Enc::new();
    for slot in [&geometry.zip, &geometry.neighborhood] {
        match slot {
            None => e.u8(ABSENT),
            Some(partition) => {
                e.u8(PRESENT);
                enc_partition(&mut e, partition)?;
            }
        }
    }
    enc_partition(&mut e, &geometry.city)?;
    Ok(e.into_bytes())
}

fn enc_partition(e: &mut Enc, partition: &SpatialPartition) -> Result<()> {
    e.u8(partition.resolution.code());
    e.usize(partition.polygons.len());
    for polygon in &partition.polygons {
        e.usize(polygon.ring.len());
        for v in &polygon.ring {
            if v.x.is_infinite() || v.y.is_infinite() {
                return Err(StoreError::Corrupt(
                    "geometry encode failed: a coordinate is infinite".into(),
                ));
            }
            e.f64(v.x);
            e.f64(v.y);
        }
    }
    for list in &partition.adjacency {
        e.usize(list.len());
        list.iter().for_each(|&j| e.u32(j));
    }
    Ok(())
}

/// Decodes the geometry blob (see [`encode_geometry`]), untrusted bytes:
/// every count is bounded by the bytes left before anything is allocated,
/// every ring goes through [`Polygon::new`] and every partition through
/// [`SpatialPartition::new`] — the constructors that enforce what the
/// executor indexes by (rings of ≥ 3 vertices, one adjacency list per
/// polygon, neighbours in range) — and each partition must hold its slot's
/// resolution. An unknown tag or code, an infinite coordinate, a blob
/// ending early and bytes after the city are each [`StoreError::Corrupt`].
/// For a geometry this crate wrote, the decoded value is the one saved.
pub fn decode_geometry(bytes: &[u8]) -> Result<CityGeometry> {
    let mut d = Dec::new(bytes, "geometry");
    let mut optional = |slot: SpatialResolution| match d.u8()? {
        ABSENT => Ok(None),
        PRESENT => dec_partition(&mut d, slot).map(Some),
        tag => Err(d.corrupt(&format!("unknown {slot} slot tag {tag}"))),
    };
    let zip = optional(SpatialResolution::Zip)?;
    let neighborhood = optional(SpatialResolution::Neighborhood)?;
    let city = dec_partition(&mut d, SpatialResolution::City)?;
    d.finish()?;
    Ok(CityGeometry {
        zip,
        neighborhood,
        city,
    })
}

fn dec_partition(d: &mut Dec<'_>, slot: SpatialResolution) -> Result<SpatialPartition> {
    let code = d.u8()?;
    let resolution = SpatialResolution::from_code(code)
        .ok_or_else(|| d.corrupt(&format!("unknown spatial resolution code {code}")))?;
    if resolution != slot {
        return Err(d.corrupt(&format!("{slot} slot holds a {resolution} partition")));
    }
    // A region costs at least its ring's count and its list's.
    let n = d.seq_len(16)?;
    let mut polygons = Vec::with_capacity(n);
    for _ in 0..n {
        let len = d.seq_len(16)?;
        let coordinate = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("8"));
        let ring: Vec<GeoPoint> = (d.take(16 * len)?.chunks_exact(16))
            .map(|v| GeoPoint::new(coordinate(&v[..8]), coordinate(&v[8..])))
            .collect();
        if ring.iter().any(|v| v.x.is_infinite() || v.y.is_infinite()) {
            return Err(d.corrupt("a coordinate is infinite"));
        }
        polygons.push(Polygon::new(ring).map_err(|e| d.corrupt(&e.to_string()))?);
    }
    let mut adjacency = Vec::with_capacity(n);
    for _ in 0..n {
        let len = d.seq_len(4)?;
        let list = d.take(4 * len)?.chunks_exact(4);
        adjacency.push(
            list.map(|j| u32::from_le_bytes(j.try_into().expect("4")))
                .collect(),
        );
    }
    SpatialPartition::new(resolution, polygons, adjacency).map_err(|e| d.corrupt(&e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygamy_stdata::AggregateKind;
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
            field,
        }
    }

    /// Decodes `entry`'s blobs against its own directory record.
    fn decode(entry: &FunctionEntry, hot: &[u8], field: Option<&[u8]>) -> Result<FunctionEntry> {
        let info = SegmentInfo::of(entry);
        decode_function_segment(&info, 4, &entry.spec.name.dataset, hot, field, "test")
    }

    /// Round trip: decode(encode(x)) re-encodes to the identical bytes
    /// (which covers the field's NaNs through their bit patterns), and the
    /// hot blob alone decodes to the entry itself without its field — named
    /// by the very `Arc`s it was handed.
    #[test]
    fn segment_roundtrip_bytes() {
        for (with_field, nr, ns) in [(true, 3, 50), (false, 1, 200), (true, 1, 1)] {
            let entry = sample_entry(with_field, nr, ns);
            let (hot, field) = encode_function_segment(&entry);
            assert_eq!(field.is_some(), with_field);
            let back = decode(&entry, &hot, field.as_deref()).unwrap();
            assert_eq!(encode_function_segment(&back), (hot.clone(), field));
            let hot_only = decode(&entry, &hot, None).unwrap();
            let (name, decoded) = (&entry.spec.name, &hot_only.spec.name);
            assert!(Arc::ptr_eq(&name.dataset, &decoded.dataset));
            assert!(Arc::ptr_eq(&name.function, &decoded.function));
            assert_eq!(
                hot_only,
                FunctionEntry {
                    field: None,
                    ..entry
                }
            );
        }
    }

    #[test]
    fn truncated_segment_is_corrupt_not_panic() {
        let entry = sample_entry(true, 2, 30);
        let (hot, field) = encode_function_segment(&entry);
        let field = field.unwrap();
        for cut in [0, 1, 7, hot.len() / 2, hot.len() - 1] {
            let err = decode(&entry, &hot[..cut], Some(&field)).unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt(_)),
                "cut at {cut} gave {err:?}"
            );
        }
        for cut in [0, 8, field.len() - 1] {
            let err = decode(&entry, &hot, Some(&field[..cut])).unwrap_err();
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
        let entry = sample_entry(true, 2, 30);
        let hot = encode_function_segment(&entry).0;
        for n in [2 * 10, 2 * 30 + 1] {
            let mut values = entry.field.as_ref().unwrap().values.clone();
            values.resize(n, 0.0);
            assert!(matches!(
                decode(&entry, &hot, Some(&encode_field(&values))),
                Err(StoreError::Corrupt(_))
            ));
        }
    }

    /// A window other than the one the vectors were encoded over is refused
    /// at the first vector's bit count, and one no entry has before it.
    #[test]
    fn a_hot_blob_decodes_only_under_its_own_window() {
        let entry = sample_entry(false, 2, 30);
        let hot = encode_function_segment(&entry).0;
        for (n_regions, n_steps) in [(3, 21), (1, 59), (2, 31), (0, 30), (2, usize::MAX)] {
            let info = SegmentInfo {
                n_regions,
                n_steps,
                ..SegmentInfo::of(&entry)
            };
            let err =
                decode_function_segment(&info, 4, &entry.spec.name.dataset, &hot, None, "test")
                    .unwrap_err();
            let refused = [
                "test: salient.pos covers 60 bits",
                "test: impossible entry shape",
            ];
            assert!(
                matches!(&err, StoreError::Corrupt(m) if refused.iter().any(|r| m.starts_with(r))),
                "{n_regions} × {n_steps}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let entry = sample_entry(false, 1, 10);
        let mut hot = encode_function_segment(&entry).0;
        hot.push(0);
        assert!(matches!(
            decode(&entry, &hot, None),
            Err(StoreError::Corrupt(_))
        ));
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn varint(v: u64) -> Vec<u8> {
        let mut e = Enc::new();
        e.varint(v);
        e.into_bytes()
    }

    /// Round trip of one bit vector: it decodes to its words, re-encodes
    /// to the same bytes and is validated by the counting walk. Returns
    /// the bytes.
    fn bitvec_roundtrip(bv: &BitVec) -> Vec<u8> {
        let bytes = encode_bitvec(bv);
        assert_eq!(&decode_bitvec(&bytes, bv.len(), "test").unwrap(), bv);
        let mut d = Dec::new(&bytes, "test");
        let mut ones = CountOnes(0);
        bitvec_header(&mut d, bv.len(), "test").unwrap();
        walk_bitvec(&mut d, bv.len(), &mut ones).unwrap();
        assert_eq!(ones.ones(), bv.count_ones());
        bytes
    }

    fn bitvec_of(len: usize, set: impl IntoIterator<Item = usize>) -> BitVec {
        let mut bv = BitVec::zeros(len);
        set.into_iter().for_each(|i| bv.set(i));
        bv
    }

    /// The worked examples of docs/store-format.md § bit vectors: a bit
    /// vector's bytes are pinned and change only together with
    /// [`crate::format::VERSION`].
    #[test]
    fn bitvec_encoding_bytes_are_pinned() {
        // No bits: the header alone.
        assert_eq!(bitvec_roundtrip(&BitVec::zeros(0)), [0x00]);
        // One set bit: a literal word.
        assert_eq!(
            bitvec_roundtrip(&bitvec_of(3, [1])),
            [0x03, 0x06, 0x02, 0, 0, 0, 0, 0, 0, 0]
        );
        // 200 zero words, then 130 set bits from bit 12,800: a zero run
        // split at 64 words, a ones run of two and a literal partial word.
        assert_eq!(
            bitvec_roundtrip(&bitvec_of(12_930, 12_800..12_930)),
            [
                0x82, 0x65, // 12,930 bits
                0x80, 0x02, 0x80, 0x02, 0x80, 0x02, 0x20, // 64 + 64 + 64 + 8 zero words
                0x09, // 2 ones words
                0x06, 0x03, 0, 0, 0, 0, 0, 0, 0, // literal: bits 12,928 and 12,929
            ]
        );
    }

    #[test]
    fn bitvec_decoder_rejects_what_no_vector_is() {
        let decode = |bytes: &[u8], bits: usize| decode_bitvec(bytes, bits, "test");
        let corrupt =
            |bytes: &[u8], bits: usize| matches!(decode(bytes, bits), Err(StoreError::Corrupt(_)));
        assert!(decode(&[0x40, 0x05], 64).is_ok());
        // Another length than the shape's, before any token is read.
        assert!(corrupt(&[0x41, 0x05], 64));
        // A ones run over a partial last word sets bits past the length...
        assert!(corrupt(&[0x3F, 0x05], 63));
        // ...and so does a literal word with its top bit set.
        let top = [[0x3F, 0x06].as_slice(), &(1u64 << 63).to_le_bytes()].concat();
        assert!(corrupt(&top, 63));
        // Kind 3; an empty run; a run of 65 words; a token past the end; a
        // literal stretch the payload does not hold; a stream ending early.
        assert!(corrupt(&[0x40, 0x07], 64));
        assert!(corrupt(&[0x40, 0x00], 64));
        assert!(corrupt(&[0xC1, 0x20, 0x84, 0x02], 4_161));
        assert!(corrupt(&[0x40, 0x08], 64));
        assert!(corrupt(&[0x80, 0x01, 0x0A, 0, 0, 0, 0, 0, 0, 0, 1], 128));
        assert!(corrupt(&[0x80, 0x01, 0x04], 128));
        // Bytes after the vector belong to the caller, who refuses them.
        assert!(corrupt(&[0x40, 0x05, 0x00], 64));
    }

    /// Round trip of one field: decode(encode(f)) has f's bit patterns,
    /// encoding is repeatable and validation agrees. Returns the blob.
    fn field_roundtrip(values: &[f64]) -> Vec<u8> {
        let blob = encode_field(values);
        let back = decode_field(&blob, values.len(), "test field").unwrap();
        assert_eq!(bits(&back), bits(values));
        assert_eq!(encode_field(values), blob);
        validate_field(&blob, values.len(), "test field").unwrap();
        blob
    }

    /// The mode byte of a field blob of `n` values: the byte after its
    /// mask.
    fn mode_of(blob: &[u8], n: usize) -> u8 {
        let mut d = Dec::new(blob, "test");
        bitvec_header(&mut d, n, "mask").unwrap();
        walk_bitvec(&mut d, n, &mut CountOnes(0)).unwrap();
        d.u8().unwrap()
    }

    /// The worked examples of docs/store-format.md § the field blob: the
    /// field codec's bytes are pinned, like the geometry blob's, and change
    /// only together with [`crate::format::VERSION`].
    #[test]
    fn field_encoding_bytes_are_pinned() {
        let nan = f64::NAN;
        // Mode counts: four NaN in the mask, a run of zeros, a literal
        // stretch.
        assert_eq!(
            field_roundtrip(&[nan, nan, nan, nan, 0.0, 0.0, 0.0, 2.0, 0.0, 300.0]),
            [
                0x0A, 0x06, 0xF0, 0x03, 0, 0, 0, 0, 0, 0,    // mask: 10 bits, 0b11_1111_0000
                0x01, // counts
                0x07, 0x00, // 3 × 0
                0x06, 0x02, 0x00, 0xAC, 0x02, // 2, 0, 300
            ]
        );
        // Mode counts ends at 2³².
        assert_eq!(
            field_roundtrip(&[4_294_967_296.0]),
            [0x01, 0x06, 0x01, 0, 0, 0, 0, 0, 0, 0, 0x01, 0x02, 0x80, 0x80, 0x80, 0x80, 0x10]
        );
        // Mode words: the NaNs are the mask's, −0.0 keeps its sign.
        assert_eq!(
            field_roundtrip(&[nan, nan, 1.5, -0.0]),
            [
                0x04, 0x06, 0x0C, 0, 0, 0, 0, 0, 0, 0,    // mask: 4 bits, 0b1100
                0x00, // words
                0x04, 0, 0, 0, 0, 0, 0, 0xF8, 0x3F, 0, 0, 0, 0, 0, 0, 0, 0x80, // 1.5, −0.0
            ]
        );
        // One fraction among counts: the whole field travels as words.
        assert_eq!(
            field_roundtrip(&[0.0, 0.0, 0.0, 0.5, 0.0, 0.0]),
            [
                0x06, 0x06, 0x3F, 0, 0, 0, 0, 0, 0, 0,    // mask: 6 bits, all set
                0x00, // words
                0x07, 0, 0, 0, 0, 0, 0, 0, 0, // 3 × 0.0
                0x02, 0, 0, 0, 0, 0, 0, 0xE0, 0x3F, // 0.5
                0x05, 0, 0, 0, 0, 0, 0, 0, 0, // 2 × 0.0
            ]
        );
        // A sparse layer: 64 NaN, 64 sevens, 8 NaN — 9 bytes for 136 values.
        let sparse: Vec<f64> = [[nan; 64], [7.0; 64]]
            .concat()
            .into_iter()
            .chain([nan; 8])
            .collect();
        assert_eq!(
            field_roundtrip(&sparse),
            [
                0x88, 0x01, 0x04, 0x05, 0x04, // mask: 136 bits, zero · ones · zero word
                0x01, // counts
                0x81, 0x01, 0x07, // 64 × 7
            ]
        );
    }

    #[test]
    fn field_roundtrip_fixed_shapes() {
        let nan = f64::NAN;
        // Empty: an empty mask and the mode byte (every value of no values
        // is a count).
        assert_eq!(field_roundtrip(&[]), [0x00, MODE_COUNTS]);
        assert_eq!(field_roundtrip(&[7.0]).len(), 10 + 1 + 2);
        assert_eq!(field_roundtrip(&[-7.0]).len(), 10 + 1 + 1 + 8);
        // All-NaN: a mask of one zero run and no values, whatever the
        // length; all-equal: a mask of ones and one value run.
        assert_eq!(
            field_roundtrip(&[nan; 1_000]),
            [0xE8, 0x07, 0x40, MODE_COUNTS]
        );
        // 1,000 set bits: 15 ones words and a literal partial one.
        let all_set = 2 + 1 + 9;
        assert_eq!(field_roundtrip(&[0.25; 1_000]).len(), all_set + 1 + 2 + 8);
        // Strictly alternating: no runs, one literal stretch.
        let alternating: Vec<f64> = (0..1_000).map(|i| f64::from(i % 2)).collect();
        assert_eq!(field_roundtrip(&alternating).len(), all_set + 1 + 2 + 1_000);
        let alternating: Vec<f64> = (0..1_000).map(|i| f64::from(i % 2) - 0.5).collect();
        assert_eq!(field_roundtrip(&alternating).len(), all_set + 1 + 2 + 8_000);
        // Defined and undefined strictly alternating: the mask's literal
        // words, and one run of the defined values.
        let gappy: Vec<f64> = (0..1_000)
            .map(|i| if i % 2 == 0 { nan } else { 2.5 })
            .collect();
        assert_eq!(field_roundtrip(&gappy).len(), 2 + 1 + 8 * 16 + 1 + 2 + 8);
        // One odd value in an otherwise `counts` field — each of the
        // nearest misses, a NaN that is not the canonical one included —
        // sends it to `words` with the value intact.
        let odd_values = [
            -0.0,
            -1.0,
            0.5,
            4_294_967_297.0,
            f64::INFINITY,
            -nan,
            f64::from_bits(nan.to_bits() | 1),
            f64::from_bits(1),
        ];
        for odd in odd_values {
            let mut field = vec![0.0; 50];
            field[10] = nan;
            field[20] = 3.0;
            assert_eq!(mode_of(&field_roundtrip(&field), 50), MODE_COUNTS);
            field[30] = odd;
            assert_eq!(mode_of(&field_roundtrip(&field), 50), MODE_WORDS, "{odd:?}");
        }
    }

    /// `words` with no runs and no NaN is the incompressible case: the raw
    /// words plus a mask of ones runs, the mode byte and one token header.
    #[test]
    fn an_incompressible_field_costs_its_raw_size_and_a_header() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for n in [1usize, 100, 10_000, 1_000_000] {
            let values: Vec<f64> = (0..n)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    f64::from_bits(x)
                })
                .collect();
            let blob = encode_field(&values);
            assert!(
                blob.len() <= 8 * n + 8 * n / 1_000 + 24,
                "{n}: {}",
                blob.len()
            );
            assert_eq!(
                bits(&decode_field(&blob, n, "test").unwrap()),
                bits(&values)
            );
        }
    }

    #[test]
    fn varints_roundtrip_and_reject_overlong_forms() {
        for v in [
            0,
            1,
            127,
            128,
            300,
            1 << 32,
            (1 << 63) - 1,
            1 << 63,
            u64::MAX,
        ] {
            let bytes = varint(v);
            assert_eq!(
                bytes.len(),
                (64 - v.leading_zeros() as usize).div_ceil(7).max(1)
            );
            let mut d = Dec::new(&bytes, "test");
            assert_eq!(d.varint().unwrap(), v);
            d.finish().unwrap();
        }
        assert_eq!(varint(300), [0xAC, 0x02]);
        // A padded form spells the same value...
        assert_eq!(Dec::new(&[0x85, 0x80, 0x00], "test").varint().unwrap(), 5);
        // ...an eleventh byte, bits past the 64th and a cut-off form do not.
        let eleven = [[0x80; 10].as_slice(), &[0x00]].concat();
        let sixty_five_bits = [[0xFF; 9].as_slice(), &[0x02]].concat();
        for bad in [eleven.as_slice(), &sixty_five_bits, &[0x80, 0x80]] {
            assert!(matches!(
                Dec::new(bad, "test").varint(),
                Err(StoreError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn bulk_words_are_the_words_one_at_a_time() {
        let words = [0, 1, u64::MAX, 0x0102_0304_0506_0708, 1 << 63];
        let (mut bulk, mut single, mut floats) = (Enc::new(), Enc::new(), Enc::new());
        bulk.u8(7);
        single.u8(7);
        floats.u8(7);
        bulk.words(&words);
        words.iter().for_each(|&w| single.u64(w));
        floats.f64s(&words.map(f64::from_bits));
        let bytes = bulk.into_bytes();
        assert_eq!(bytes, single.into_bytes());
        assert_eq!(bytes, floats.into_bytes());
        let mut d = Dec::new(&bytes, "test");
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.words(words.len()).unwrap().collect::<Vec<_>>(), words);
        d.finish().unwrap();
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
            b in prop_oneof![Just(u64::MAX), Just(0x80), 0u64..u64::MAX],
            c in 0u32..u32::MAX,
            d_ in 0u8..u8::MAX,
            f_bits in 0u64..u64::MAX,
        ) {
            let f = f64::from_bits(f_bits);
            let mut e = Enc::new();
            e.u64(a);
            e.varint(b);
            e.u32(c);
            e.u8(d_);
            e.f64(f);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes, "prop");
            prop_assert_eq!(d.u64().unwrap(), a);
            prop_assert_eq!(d.varint().unwrap(), b);
            prop_assert_eq!(d.u32().unwrap(), c);
            prop_assert_eq!(d.u8().unwrap(), d_);
            prop_assert_eq!(d.f64().unwrap().to_bits(), f.to_bits());
            d.finish().unwrap();
        }

        /// A field mixing every kind of value the codec tells apart, in
        /// runs and alone, comes back bit for bit — from the `counts`
        /// palette alone (mode counts), with one odd value planted, or from
        /// everything at once — and encodes to the same bytes every time.
        #[test]
        fn field_roundtrip_is_bit_exact(
            picks in proptest::collection::vec(0usize..64, 0..48),
            lens in proptest::collection::vec(1usize..7, 48),
            raw in proptest::collection::vec(0u64..=u64::MAX, 48),
            palette in 0usize..3,
        ) {
            let nan = f64::NAN.to_bits();
            let counts = [
                f64::NAN, 0.0, 0.0, 0.0, 1.0, 2.0, 126.0, 127.0, 128.0, 16_383.0, 16_384.0,
                4_294_967_295.0, 4_294_967_296.0,
            ];
            let odd = [
                f64::from_bits(nan | 1 << 63),      // negative NaN
                f64::from_bits(0x7FF0_0000_0000_0001), // signalling NaN
                f64::from_bits(nan | 0xDEAD_BEEF),  // payload NaN
                -0.0, f64::INFINITY, f64::NEG_INFINITY,
                f64::from_bits(1), -f64::MIN_POSITIVE / 2.0, // subnormals
                9_007_199_254_740_991.0, 9_007_199_254_740_993.0, // 2⁵³ ∓ 1
                4_294_967_297.0, -1.0, -3.0, 0.5, 2.75, 1e-300, -1e300,
            ];
            let mut values = Vec::new();
            for (i, &pick) in picks.iter().enumerate() {
                let v = match palette {
                    0 => counts[pick % counts.len()],
                    1 if i == picks.len() / 2 => odd[pick % odd.len()],
                    1 => counts[pick % counts.len()],
                    _ if pick < counts.len() => counts[pick],
                    _ if pick < counts.len() + odd.len() => odd[pick - counts.len()],
                    _ => f64::from_bits(raw[i]),
                };
                values.extend(std::iter::repeat_n(v, lens[i]));
            }
            let blob = encode_field(&values);
            match palette {
                0 => prop_assert_eq!(mode_of(&blob, values.len()), MODE_COUNTS),
                1 if !picks.is_empty() => prop_assert_eq!(mode_of(&blob, values.len()), MODE_WORDS),
                _ => {}
            }
            let back = decode_field(&blob, values.len(), "prop").unwrap();
            prop_assert_eq!(bits(&back), bits(&values));
            prop_assert_eq!(encode_field(&values), blob);
            prop_assert!(validate_field(&blob, values.len(), "prop").is_ok());
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
            let back = decode(&entry, &blobs.0, blobs.1.as_deref()).unwrap();
            prop_assert_eq!(encode_function_segment(&back), blobs);
        }
    }
}
