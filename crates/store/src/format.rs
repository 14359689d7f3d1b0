//! The on-disk file layout: header, manifest and segment directory.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header (40 bytes, fixed)                                     │
//! │   magic "PLGYSTOR" · version u32 · flags u32                 │
//! │   manifest_offset u64 · manifest_len u64 · manifest_sum u64  │
//! ├──────────────────────────────────────────────────────────────┤
//! │ geometry blob (partitions, LE codec, checksummed)            │
//! ├──────────────────────────────────────────────────────────────┤
//! │ hot blob 0 (one entry's four feature vectors, checksummed)   │
//! │ hot blob 1                                                   │
//! │ …                                                            │
//! ├──────────────────────────────────────────────────────────────┤
//! │ field blob of entry 0 (its scalar values, run-length coded,  │
//! │ …                      checksummed)                          │
//! │   (only entries indexed with their field have one)           │
//! ├──────────────────────────────────────────────────────────────┤
//! │ manifest (LE codec):                                         │
//! │   geometry location · dataset catalog · segment directory    │
//! │   (per segment: data set, function, kind, resolution, window │
//! │    and where its blobs are)                                  │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Every checksum is [`crate::checksum::blob_checksum`]. The hot blobs —
//! all a query without a `thresholds` clause ever reads — sit together
//! ahead of the field blobs. The manifest lives at the
//! *tail* so incremental maintenance can copy retained blob bytes
//! verbatim, append new ones, and write a fresh manifest — the header's
//! `manifest_offset` is the only fixed-position field that moves.

use crate::codec::{dec_resolution, enc_resolution, Dec, Enc};
use crate::error::{Result, StoreError};
use polygamy_core::index::{DatasetEntry, FunctionEntry};
use polygamy_stdata::{AggregateKind, DatasetMeta, FunctionKind, Resolution};
use std::sync::Arc;

/// File magic: identifies a polygamy store.
pub const MAGIC: [u8; 8] = *b"PLGYSTOR";

/// Current format version. Bump whenever the codec's byte stream, the
/// clause fingerprint derivation, the segment layout or the meaning of a
/// stored bit changes; readers reject other versions with a typed error
/// instead of guessing. Version 9 hot blobs are the four feature vectors
/// alone, the directory record the one record of what a segment is
/// (version 8's hot blobs began with spec, resolution and window again).
pub const VERSION: u32 = 9;

/// Fixed header length in bytes.
pub const HEADER_LEN: u64 = 40;

/// The fixed-size file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Format version (see [`VERSION`]).
    pub version: u32,
    /// Byte offset of the manifest payload.
    pub manifest_offset: u64,
    /// Length of the manifest payload in bytes.
    pub manifest_len: u64,
    /// Checksum of the manifest payload.
    pub manifest_checksum: u64,
}

impl Header {
    /// Encodes the header to its fixed 40-byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        let mut bytes = MAGIC.to_vec();
        e.u32(self.version);
        e.u32(0); // flags, reserved
        e.u64(self.manifest_offset);
        e.u64(self.manifest_len);
        e.u64(self.manifest_checksum);
        bytes.extend_from_slice(&e.into_bytes());
        debug_assert_eq!(bytes.len() as u64, HEADER_LEN);
        bytes
    }

    /// Decodes and validates a header.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < HEADER_LEN as usize {
            return Err(StoreError::Truncated {
                what: "header".into(),
            });
        }
        if bytes[..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let mut d = Dec::new(&bytes[8..HEADER_LEN as usize], "header");
        let version = d.u32()?;
        if version != VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let _flags = d.u32()?;
        Ok(Self {
            version,
            manifest_offset: d.u64()?,
            manifest_len: d.u64()?,
            manifest_checksum: d.u64()?,
        })
    }
}

/// Location of one checksummed byte range within the file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlobLoc {
    /// Byte offset from the start of the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// [`blob_checksum`](crate::checksum::blob_checksum) of the payload.
    pub checksum: u64,
}

/// Directory record of one function segment, the one record of what it is
/// (data set, function, kind, resolution, window), and where its hot blob
/// and, if the function was indexed with its scalar field, field blob live.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentInfo {
    /// Catalog index of the owning data set. Lives here — not in the
    /// segment payload — so maintenance can renumber data sets without
    /// rewriting segment bytes.
    pub dataset_index: usize,
    /// Function name (`"density"`, `"avg(fare)"`, …), made once per data set
    /// and function at decode, and shared by every entry decoded from it.
    pub function: Arc<str>,
    /// What the function computes.
    pub kind: FunctionKind,
    /// Resolution of the entry, for selective loading.
    pub resolution: Resolution,
    /// Spatial regions of the entry's window (at least one).
    pub n_regions: usize,
    /// First temporal bucket of the window (global numbering).
    pub start_bucket: i64,
    /// Time steps of the window.
    pub n_steps: usize,
    /// Where the hot blob lives — the payload every query over this
    /// function reads: its four feature bit vectors.
    pub loc: BlobLoc,
    /// Where the field blob (the `n_regions × n_steps` scalar values)
    /// lives, if the function was indexed with its field. Read only for
    /// data sets a query's `thresholds` clause names.
    pub field: Option<BlobLoc>,
}

impl SegmentInfo {
    /// The directory record of `entry`, its blobs not placed yet.
    pub fn of(entry: &FunctionEntry) -> Self {
        Self {
            dataset_index: entry.dataset_index,
            function: Arc::clone(&entry.spec.name.function),
            kind: entry.spec.kind,
            resolution: entry.resolution,
            n_regions: entry.n_regions,
            start_bucket: entry.start_bucket,
            n_steps: entry.n_steps,
            loc: BlobLoc::default(),
            field: None,
        }
    }

    /// The window's `n_regions × n_steps` vertices (a bit or value each), or
    /// `None` for a window no entry has: no region, or a product past `usize`.
    pub fn n_vertices(&self) -> Option<usize> {
        (self.n_regions.checked_mul(self.n_steps)).filter(|_| self.n_regions >= 1)
    }
}

/// The fewest bytes a catalog entry encodes to (two empty strings, two codes,
/// three counts): what a count of them is bounded by before it allocates.
pub(crate) const MIN_DATASET_ENTRY_LEN: usize = 8 + 2 + 8 + 3 * 8;

/// The fewest bytes a directory record encodes to (see [`enc_segment`]).
const MIN_SEGMENT_RECORD_LEN: usize = 8 + 8 + 1 + 2 + 3 + 3 * 8 + 1;

/// The store manifest: everything needed to route reads, loaded in one
/// cheap tail read.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Location of the city-geometry blob.
    pub geometry: BlobLoc,
    /// Data set catalog, in indexing order.
    pub datasets: Vec<DatasetEntry>,
    /// Segment directory, grouped by data set in catalog order.
    pub segments: Vec<SegmentInfo>,
}

impl Manifest {
    /// Total on-disk segment bytes (hot and field blobs) belonging to
    /// catalog entry `di`.
    pub fn dataset_disk_bytes(&self, di: usize) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.dataset_index == di)
            .map(|s| s.loc.len + s.field.map_or(0, |f| f.len))
            .sum()
    }

    /// The field-blob share of [`Manifest::dataset_disk_bytes`] — bytes no
    /// query without a `thresholds` clause reads.
    pub fn dataset_field_bytes(&self, di: usize) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.dataset_index == di)
            .filter_map(|s| s.field)
            .map(|f| f.len)
            .sum()
    }

    /// Catalog position of a data set by name.
    pub fn dataset_index(&self, name: &str) -> Result<usize> {
        self.datasets
            .iter()
            .position(|d| d.meta.name == name)
            .ok_or_else(|| StoreError::UnknownDataset(name.to_string()))
    }

    /// Encodes the manifest payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        enc_blob_loc(&mut e, self.geometry);
        e.usize(self.datasets.len());
        for d in &self.datasets {
            enc_dataset_entry(&mut e, d);
        }
        e.usize(self.segments.len());
        for s in &self.segments {
            enc_segment(&mut e, s);
        }
        e.into_bytes()
    }

    /// Decodes and validates a manifest payload.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut d = Dec::new(bytes, "manifest");
        let geometry = dec_blob_loc(&mut d)?;
        let n = d.seq_len(MIN_DATASET_ENTRY_LEN)?;
        let mut datasets = Vec::with_capacity(n);
        for _ in 0..n {
            datasets.push(dec_dataset_entry(&mut d)?);
        }
        let n = d.seq_len(MIN_SEGMENT_RECORD_LEN)?;
        let mut segments = Vec::with_capacity(n);
        for _ in 0..n {
            let s = dec_segment(&mut d, &segments)?;
            if s.dataset_index >= datasets.len() {
                return Err(StoreError::Corrupt(format!(
                    "segment {} references data set {} beyond the {}-entry catalog",
                    s.function,
                    s.dataset_index,
                    datasets.len()
                )));
            }
            if s.n_vertices().is_none() {
                return Err(StoreError::Corrupt(format!(
                    "segment {}: impossible window of {} region(s) × {} step(s)",
                    s.function, s.n_regions, s.n_steps
                )));
            }
            segments.push(s);
        }
        d.finish()?;
        Ok(Self {
            geometry,
            datasets,
            segments,
        })
    }
}

fn enc_blob_loc(e: &mut Enc, loc: BlobLoc) {
    e.u64(loc.offset);
    e.u64(loc.len);
    e.u64(loc.checksum);
}

fn dec_blob_loc(d: &mut Dec<'_>) -> Result<BlobLoc> {
    Ok(BlobLoc {
        offset: d.u64()?,
        len: d.u64()?,
        checksum: d.u64()?,
    })
}

/// Encodes one catalog entry (shared by the manifest and the shard
/// catalog, so the two formats can never drift on catalog bytes).
pub(crate) fn enc_dataset_entry(e: &mut Enc, entry: &DatasetEntry) {
    e.str(&entry.meta.name);
    e.u8(entry.meta.spatial_resolution.code());
    e.u8(entry.meta.temporal_resolution.code());
    e.str(&entry.meta.description);
    e.usize(entry.n_records);
    e.usize(entry.raw_bytes);
    e.usize(entry.n_specs);
}

/// Decodes one catalog entry (see [`enc_dataset_entry`]).
pub(crate) fn dec_dataset_entry(d: &mut Dec<'_>) -> Result<DatasetEntry> {
    let name = d.str()?.to_owned();
    let resolution = dec_resolution(d)?;
    Ok(DatasetEntry {
        meta: DatasetMeta {
            name,
            spatial_resolution: resolution.spatial,
            temporal_resolution: resolution.temporal,
            description: d.str()?.to_owned(),
        },
        n_records: d.usize()?,
        raw_bytes: d.usize()?,
        n_specs: d.usize()?,
    })
}

/// Encodes one directory record: `u64 dataset_index · str function · kind
/// · resolution · LEB128 n_regions · zigzag LEB128 start_bucket · LEB128
/// n_steps · loc · 0x00 | 0x01 loc` (the last, the field blob's).
fn enc_segment(e: &mut Enc, s: &SegmentInfo) {
    e.usize(s.dataset_index);
    e.str(&s.function);
    match s.kind {
        FunctionKind::Density => e.u8(0),
        FunctionKind::Unique => e.u8(1),
        FunctionKind::Attribute { attr, agg } => {
            e.u8(2);
            e.varint(attr as u64);
            e.u8(agg.code());
        }
    }
    enc_resolution(e, s.resolution);
    e.varint(s.n_regions as u64);
    // Zigzag (0, −1, 1, −2, … as 0, 1, 2, 3, …): short for either sign.
    e.varint(((s.start_bucket << 1) ^ (s.start_bucket >> 63)) as u64);
    e.varint(s.n_steps as u64);
    enc_blob_loc(e, s.loc);
    e.u8(u8::from(s.field.is_some()));
    s.field.into_iter().for_each(|loc| enc_blob_loc(e, loc));
}

/// Decodes one directory record (see [`enc_segment`]). A function's records
/// lie one resolution (a data set's spec count) apart, so a name one of the
/// last 64 `earlier` records of its data set holds is shared, not made
/// again — as the build's entries share it — at a bounded cost a record.
fn dec_segment(d: &mut Dec<'_>, earlier: &[SegmentInfo]) -> Result<SegmentInfo> {
    let dataset_index = d.usize()?;
    let name = d.str()?;
    let mut same_dataset =
        (earlier.iter().rev().take(64)).take_while(|s| s.dataset_index == dataset_index);
    Ok(SegmentInfo {
        dataset_index,
        function: match same_dataset.find(|s| *s.function == *name) {
            Some(s) => Arc::clone(&s.function),
            None => name.into(),
        },
        kind: match d.u8()? {
            0 => FunctionKind::Density,
            1 => FunctionKind::Unique,
            2 => FunctionKind::Attribute {
                attr: d.usize_varint()?,
                agg: (d.u8().map(AggregateKind::from_code)?)
                    .ok_or_else(|| d.corrupt("unknown aggregate code"))?,
            },
            t => return Err(d.corrupt(&format!("unknown function kind tag {t}"))),
        },
        resolution: dec_resolution(d)?,
        n_regions: d.usize_varint()?,
        start_bucket: d.varint().map(|z| (z >> 1) as i64 ^ -((z & 1) as i64))?,
        n_steps: d.usize_varint()?,
        loc: dec_blob_loc(d)?,
        field: match d.u8()? {
            0 => None,
            1 => Some(dec_blob_loc(d)?),
            t => return Err(d.corrupt(&format!("unknown field presence tag {t}"))),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygamy_stdata::{SpatialResolution, TemporalResolution};

    fn sample_manifest() -> Manifest {
        Manifest {
            geometry: BlobLoc {
                offset: 40,
                len: 100,
                checksum: 7,
            },
            datasets: vec![DatasetEntry {
                meta: DatasetMeta {
                    name: "taxi".into(),
                    spatial_resolution: SpatialResolution::Gps,
                    temporal_resolution: TemporalResolution::Hour,
                    description: "trips".into(),
                },
                n_records: 1_000,
                raw_bytes: 32_000,
                n_specs: 3,
            }],
            segments: vec![SegmentInfo {
                dataset_index: 0,
                function: "density".into(),
                kind: FunctionKind::Density,
                resolution: Resolution::new(SpatialResolution::City, TemporalResolution::Hour),
                n_regions: 1,
                start_bucket: -5,
                n_steps: 200,
                loc: BlobLoc {
                    offset: 140,
                    len: 512,
                    checksum: 99,
                },
                field: Some(BlobLoc {
                    offset: 652,
                    len: 4_096,
                    checksum: 3,
                }),
            }],
        }
    }

    #[test]
    fn header_roundtrip() {
        let h = Header {
            version: VERSION,
            manifest_offset: 652,
            manifest_len: 88,
            manifest_checksum: 0xdead_beef,
        };
        let bytes = h.encode();
        assert_eq!(bytes.len() as u64, HEADER_LEN);
        assert_eq!(Header::decode(&bytes).unwrap(), h);
    }

    #[test]
    fn header_rejects_bad_magic_version_truncation() {
        let h = Header {
            version: VERSION,
            manifest_offset: 0,
            manifest_len: 0,
            manifest_checksum: 0,
        };
        let good = h.encode();
        assert!(matches!(
            Header::decode(&good[..10]),
            Err(StoreError::Truncated { .. })
        ));
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            Header::decode(&bad_magic),
            Err(StoreError::BadMagic)
        ));
        let mut bad_version = good;
        bad_version[8] = 0xEE;
        assert!(matches!(
            Header::decode(&bad_version),
            Err(StoreError::UnsupportedVersion { found, supported: VERSION }) if found != VERSION
        ));
    }

    #[test]
    fn manifest_roundtrip() {
        let mut m = sample_manifest();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        m.segments[0].field = None;
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        let kinds = [
            FunctionKind::Unique,
            FunctionKind::Attribute {
                attr: 300,
                agg: AggregateKind::Max,
            },
        ];
        let windows = [
            (1, i64::MIN, usize::MAX),
            (7, -1, 0),
            (usize::MAX, i64::MAX, 1),
        ];
        for (kind, (n_regions, start_bucket, n_steps)) in kinds.into_iter().cycle().zip(windows) {
            m.segments[0] = SegmentInfo {
                kind,
                n_regions,
                start_bucket,
                n_steps,
                ..m.segments[0].clone()
            };
            assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        }
    }

    /// A function's records, at every resolution, share one name `Arc`:
    /// a decode makes a name once per data set and function.
    #[test]
    fn a_functions_records_share_one_name() {
        let mut m = sample_manifest();
        let daily = Resolution::new(SpatialResolution::City, TemporalResolution::Day);
        let unique = SegmentInfo {
            function: "unique".into(),
            ..m.segments[0].clone()
        };
        let density_daily = SegmentInfo {
            resolution: daily,
            ..m.segments[0].clone()
        };
        m.segments.extend([unique, density_daily]);
        let decoded = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
        let [density, unique, density_daily] = [0, 1, 2].map(|i| &decoded.segments[i].function);
        assert!(Arc::ptr_eq(density, density_daily) && !Arc::ptr_eq(density, unique));
    }

    /// The bytes of one directory record (`docs/store-format.md` lists the
    /// same): they may only change together with [`VERSION`].
    #[test]
    fn directory_record_bytes_are_pinned() {
        let mut m = sample_manifest();
        m.segments[0].kind = FunctionKind::Attribute {
            attr: 2,
            agg: AggregateKind::Mean,
        };
        let no_segments = Manifest {
            segments: Vec::new(),
            ..m.clone()
        };
        let u64_le = |v: u64| v.to_le_bytes();
        let expected: [&[u8]; 12] = [
            &u64_le(0),                                // data set 0
            &u64_le(7),                                // a name of 7 bytes
            b"density",                                //
            &[0x02, 0x02, AggregateKind::Mean.code()], // attribute 2, mean
            &[0x03, 0x00],                             // (city, hour)
            &[0x01, 0x09, 0xC8, 0x01],                 // 1 region, bucket -5, 200 steps
            &u64_le(140),                              // hot blob: offset,
            &u64_le(512),                              // length,
            &u64_le(99),                               // checksum
            &[0x01],                                   // a field blob:
            &[u64_le(652), u64_le(4_096)].concat(),    // offset, length,
            &u64_le(3),                                // checksum
        ];
        let bytes = m.encode();
        assert_eq!(bytes[no_segments.encode().len()..], expected.concat());
    }

    #[test]
    fn manifest_rejects_a_window_no_entry_has() {
        for (n_regions, n_steps) in [(0, 10), (0, 0), (2, usize::MAX), (usize::MAX, 2)] {
            let mut m = sample_manifest();
            m.segments[0].n_regions = n_regions;
            m.segments[0].n_steps = n_steps;
            let err = Manifest::decode(&m.encode()).unwrap_err();
            assert!(
                matches!(&err, StoreError::Corrupt(msg) if msg.starts_with("segment density: impossible window")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn manifest_rejects_out_of_range_dataset_index() {
        let mut m = sample_manifest();
        m.segments[0].dataset_index = 5;
        assert!(matches!(
            Manifest::decode(&m.encode()),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn manifest_helpers() {
        let m = sample_manifest();
        assert_eq!(m.dataset_disk_bytes(0), 512 + 4_096);
        assert_eq!(m.dataset_field_bytes(0), 4_096);
        assert_eq!(m.dataset_index("taxi").unwrap(), 0);
        assert!(matches!(
            m.dataset_index("nope"),
            Err(StoreError::UnknownDataset(_))
        ));
    }
}
