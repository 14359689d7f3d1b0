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
//! │ hot blob 0 (one FunctionEntry minus its field, checksummed)  │
//! │ hot blob 1                                                   │
//! │ …                                                            │
//! ├──────────────────────────────────────────────────────────────┤
//! │ field blob of entry 0 (its scalar values, run-length coded,  │
//! │ …                      checksummed)                          │
//! │   (only entries indexed with their field have one)           │
//! ├──────────────────────────────────────────────────────────────┤
//! │ manifest (LE codec):                                         │
//! │   geometry location · dataset catalog · segment directory    │
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
use polygamy_core::index::DatasetEntry;
use polygamy_stdata::{DatasetMeta, Resolution, SpatialResolution, TemporalResolution};

/// File magic: identifies a polygamy store.
pub const MAGIC: [u8; 8] = *b"PLGYSTOR";

/// Current format version. Bump whenever the codec's byte stream, the
/// clause fingerprint derivation, the segment layout or the meaning of a
/// stored bit changes; readers reject other versions with a typed error
/// instead of guessing. Version 8 writes the geometry blob in the binary
/// codec (version 7's was JSON text); version 7 hot blobs already ended
/// with the feature bit vectors, where version 6 stored the seasonal
/// thresholds after them.
pub const VERSION: u32 = 8;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlobLoc {
    /// Byte offset from the start of the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// [`blob_checksum`](crate::checksum::blob_checksum) of the payload.
    pub checksum: u64,
}

/// Directory entry for one function segment: its hot blob and, when the
/// function was indexed with its scalar field, its field blob.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentInfo {
    /// Catalog index of the owning data set. Lives here — not in the
    /// segment payload — so maintenance can renumber data sets without
    /// rewriting segment bytes.
    pub dataset_index: usize,
    /// Function name (`"density"`, `"avg(fare)"`, …) for filtering and
    /// inspection without decoding the payload.
    pub function: String,
    /// Resolution of the entry, for selective loading.
    pub resolution: Resolution,
    /// Where the hot blob lives — the payload every query over this
    /// function reads: spec, shape, feature bit vectors.
    pub loc: BlobLoc,
    /// Where the field blob (the `n_regions × n_steps` scalar values)
    /// lives, if the function was indexed with its field. Read only for
    /// data sets a query's `thresholds` clause names.
    pub field: Option<BlobLoc>,
}

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
            e.usize(s.dataset_index);
            e.str(&s.function);
            enc_resolution(&mut e, s.resolution);
            enc_blob_loc(&mut e, s.loc);
            match s.field {
                None => e.u8(0),
                Some(loc) => {
                    e.u8(1);
                    enc_blob_loc(&mut e, loc);
                }
            }
        }
        e.into_bytes()
    }

    /// Decodes and validates a manifest payload.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut d = Dec::new(bytes, "manifest");
        let geometry = dec_blob_loc(&mut d)?;
        let n = d.seq_len(1)?;
        let mut datasets = Vec::with_capacity(n);
        for _ in 0..n {
            datasets.push(dec_dataset_entry(&mut d)?);
        }
        let n = d.seq_len(1)?;
        let mut segments = Vec::with_capacity(n);
        for _ in 0..n {
            let dataset_index = d.usize()?;
            let function = d.str()?.to_owned();
            let resolution = dec_resolution(&mut d)?;
            let loc = dec_blob_loc(&mut d)?;
            let field = match d.u8()? {
                0 => None,
                1 => Some(dec_blob_loc(&mut d)?),
                t => {
                    return Err(StoreError::Corrupt(format!(
                        "segment {function}: unknown field presence tag {t}"
                    )))
                }
            };
            if dataset_index >= datasets.len() {
                return Err(StoreError::Corrupt(format!(
                    "segment {function} references data set {dataset_index} \
                     beyond the {}-entry catalog",
                    datasets.len()
                )));
            }
            segments.push(SegmentInfo {
                dataset_index,
                function,
                resolution,
                loc,
                field,
            });
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
    let s = d.u8()?;
    let t = d.u8()?;
    let spatial_resolution = SpatialResolution::from_code(s)
        .ok_or_else(|| StoreError::Corrupt(format!("unknown spatial resolution code {s}")))?;
    let temporal_resolution = TemporalResolution::from_code(t)
        .ok_or_else(|| StoreError::Corrupt(format!("unknown temporal resolution code {t}")))?;
    let description = d.str()?.to_owned();
    Ok(DatasetEntry {
        meta: DatasetMeta {
            name,
            spatial_resolution,
            temporal_resolution,
            description,
        },
        n_records: d.usize()?,
        raw_bytes: d.usize()?,
        n_specs: d.usize()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
                resolution: Resolution::new(SpatialResolution::City, TemporalResolution::Hour),
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
