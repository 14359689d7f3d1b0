//! Sharded stores: one self-contained `.plst` per shard plus a small
//! versioned shard-catalog file tying them together. This module owns the
//! catalog *format*, the migrations ([`shard_store`], [`merge_shards`])
//! and maintenance's catalog half. No caller says which kind of path it
//! holds: [`crate::lazy::LazyIndex::open`] serves a monolith as the
//! one-shard case, and [`Store::upsert_dataset`] /
//! [`Store::remove_dataset`] on a catalog rewrite the owning shard file,
//! then the catalog.
//!
//! A monolithic store keeps every data set in one file; a *sharded* store
//! partitions the catalog across independent shard files — each a complete
//! store of its own, with its own header, geometry blob, checksums and
//! tail manifest — so wide corpora scale out: a query touching two data
//! sets faults in (at most) two shard files, maintenance rewrites exactly
//! one shard instead of the whole store tail, and a damaged shard file
//! degrades only the queries whose footprint touches it.
//!
//! ```text
//! corpus.plst             the shard catalog (magic "PLGYSHRD")
//! corpus.shard0.plst      shard 0 — a complete store (magic "PLGYSTOR")
//! corpus.shard1.plst      shard 1
//! …
//! ```
//!
//! The catalog file records the **global** data set catalog (in monolith
//! order), each data set's owning shard, and the shard file names
//! (relative to the catalog's directory — decode rejects any name that is
//! not one plain path component). Each shard file's local catalog
//! lists its owned data sets in ascending global order, so the mapping
//! local ↔ global is positional and survives maintenance. The geometry
//! blob is duplicated verbatim into every shard, keeping each shard a
//! valid store on its own.
//!
//! **Byte-for-byte migration.** [`shard_store`] and [`merge_shards`] move
//! geometry and blob bytes verbatim (each verified once against its
//! manifest checksum as it is read, never decoded, never re-hashed), and
//! [`crate::store`]'s writer lays files out as a pure
//! function of its inputs — so monolith → N shards → monolith reproduces
//! the original file bit-for-bit, manifest included. The round-trip test
//! pins this.
//!
//! **Degraded serving.** A shard file that is missing, truncated, corrupt
//! or whose local catalog drifted from the shard catalog does not open.
//! The read path records that per shard instead of failing the whole open
//! (see [`crate::lazy`]); the write paths here need the one shard they
//! touch and fail with a typed [`StoreError::ShardUnavailable`].

use crate::checksum::blob_checksum;
use crate::codec::{Dec, Enc};
use crate::error::{Result, StoreError};
use crate::format::{dec_dataset_entry, enc_dataset_entry, MIN_DATASET_ENTRY_LEN};
use crate::store::{write_atomically, write_store, SegmentGroup, Store};
use polygamy_core::index::DatasetEntry;
use polygamy_core::Config;
use polygamy_mapreduce::Cluster;
use polygamy_stdata::Dataset;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Component, Path, PathBuf};

/// File magic identifying a shard catalog (a sharded store's entry point).
pub const SHARD_MAGIC: [u8; 8] = *b"PLGYSHRD";

/// Shard-catalog format version. Bumped independently of the store format
/// version: the catalog only routes, shard files carry the data. Version 2
/// changed the payload checksum to [`blob_checksum`], with store format 2.
pub const SHARD_CATALOG_VERSION: u32 = 2;

/// Fixed catalog header length: magic, version, flags, payload len,
/// checksum.
const SHARD_HEADER_LEN: usize = 32;

/// The shard catalog: the global data set catalog plus the data set →
/// shard-file assignment. This is everything a reader needs to route a
/// query — available even when shard files are not.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCatalog {
    /// Global data set catalog, in monolith (indexing) order.
    pub datasets: Vec<DatasetEntry>,
    /// Owning shard per catalog position (`shard_of[di] < files.len()`).
    pub shard_of: Vec<usize>,
    /// Shard file names, relative to the catalog file's directory.
    pub files: Vec<String>,
}

impl ShardCatalog {
    /// Number of shards in the layout.
    pub fn n_shards(&self) -> usize {
        self.files.len()
    }

    /// Catalog position of a data set by name.
    pub fn dataset_index(&self, name: &str) -> Result<usize> {
        self.datasets
            .iter()
            .position(|d| d.meta.name == name)
            .ok_or_else(|| StoreError::UnknownDataset(name.to_string()))
    }

    /// Global catalog indices owned by one shard, ascending — the shard
    /// file's local catalog order.
    pub fn datasets_of_shard(&self, shard: usize) -> Vec<usize> {
        (0..self.datasets.len())
            .filter(|&di| self.shard_of[di] == shard)
            .collect()
    }

    /// Local (in-shard) catalog position of global data set `di`: its rank
    /// among its shard's owned indices.
    pub fn local_index(&self, di: usize) -> usize {
        let s = self.shard_of[di];
        (0..di).filter(|&j| self.shard_of[j] == s).count()
    }

    /// Encodes the complete catalog file (header + checksummed payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Enc::new();
        p.usize(self.datasets.len());
        for d in &self.datasets {
            enc_dataset_entry(&mut p, d);
        }
        for &s in &self.shard_of {
            p.usize(s);
        }
        p.usize(self.files.len());
        for f in &self.files {
            p.str(f);
        }
        let payload = p.into_bytes();

        let mut bytes = SHARD_MAGIC.to_vec();
        let mut h = Enc::new();
        h.u32(SHARD_CATALOG_VERSION);
        h.u32(0); // flags, reserved
        h.u64(payload.len() as u64);
        h.u64(blob_checksum(&payload));
        bytes.extend_from_slice(&h.into_bytes());
        debug_assert_eq!(bytes.len(), SHARD_HEADER_LEN);
        bytes.extend_from_slice(&payload);
        bytes
    }

    /// Decodes and validates a catalog file.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < SHARD_HEADER_LEN {
            return Err(StoreError::Truncated {
                what: "shard catalog header".into(),
            });
        }
        if bytes[..8] != SHARD_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let mut h = Dec::new(&bytes[8..SHARD_HEADER_LEN], "shard catalog header");
        let version = h.u32()?;
        if version != SHARD_CATALOG_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: SHARD_CATALOG_VERSION,
            });
        }
        let _flags = h.u32()?;
        let len = h.u64()?;
        let checksum = h.u64()?;
        // `len` is untrusted: bound it (overflow included) by the bytes
        // actually present before slicing.
        let payload = usize::try_from(len)
            .ok()
            .and_then(|len| SHARD_HEADER_LEN.checked_add(len))
            .and_then(|end| bytes.get(SHARD_HEADER_LEN..end))
            .ok_or_else(|| StoreError::Truncated {
                what: "shard catalog payload".into(),
            })?;
        if blob_checksum(payload) != checksum {
            return Err(StoreError::ChecksumMismatch {
                what: "shard catalog".into(),
            });
        }

        let mut d = Dec::new(payload, "shard catalog");
        let n = d.seq_len(MIN_DATASET_ENTRY_LEN + 8)?; // the entry, its shard
        let mut datasets = Vec::with_capacity(n);
        for _ in 0..n {
            datasets.push(dec_dataset_entry(&mut d)?);
        }
        let mut shard_of = Vec::with_capacity(n);
        for _ in 0..n {
            shard_of.push(d.usize()?);
        }
        let n_files = d.seq_len(8)?; // a name's length, at least
        let mut files = Vec::with_capacity(n_files);
        for _ in 0..n_files {
            files.push(d.str()?.to_owned());
        }
        d.finish()?;
        if files.is_empty() {
            return Err(StoreError::Corrupt("shard catalog lists no shards".into()));
        }
        if let Some(&bad) = shard_of.iter().find(|&&s| s >= files.len()) {
            return Err(StoreError::Corrupt(format!(
                "shard assignment {bad} beyond the {}-shard layout",
                files.len()
            )));
        }
        // Names are joined onto the catalog's directory for reads *and*
        // maintenance writes, and the checksum is no MAC: anything but one
        // plain file name could escape that directory.
        if let Some(bad) = files.iter().find(|f| !is_plain_file_name(f)) {
            return Err(StoreError::Corrupt(format!(
                "shard file name {bad:?} is not a plain file name"
            )));
        }
        Ok(Self {
            datasets,
            shard_of,
            files,
        })
    }

    /// Reads and validates a catalog file from disk.
    pub fn read(path: impl AsRef<Path>) -> Result<Self> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        Self::decode(&bytes)
    }

    /// Atomically writes the catalog file, through the store writer's
    /// temp-file + sync + rename.
    pub fn write(&self, path: impl AsRef<Path>) -> Result<()> {
        write_atomically(path.as_ref(), |out| out.write_all(&self.encode()))
    }

    /// Absolute path of one shard file (names are stored relative to the
    /// catalog file's directory).
    pub fn shard_path(&self, catalog_path: &Path, shard: usize) -> PathBuf {
        catalog_path
            .parent()
            .unwrap_or_else(|| Path::new("."))
            .join(&self.files[shard])
    }
}

/// True when the file at `path` starts with the shard-catalog magic — the
/// one sniff behind [`crate::lazy::LazyIndex::open`] and store
/// maintenance, which take either kind of path.
pub fn is_sharded(path: impl AsRef<Path>) -> Result<bool> {
    let mut head = [0u8; 8];
    let mut f = File::open(path)?;
    let n = f.read(&mut head)?;
    Ok(n == 8 && head == SHARD_MAGIC)
}

/// True when `name` is exactly one normal path component — no separator
/// of either platform, not empty, `.` or `..`, not absolute.
fn is_plain_file_name(name: &str) -> bool {
    let mut components = Path::new(name).components();
    !name.contains(['/', '\\'])
        && matches!(
            (components.next(), components.next()),
            (Some(Component::Normal(_)), None)
        )
}

/// The default shard file names for a catalog at `path`:
/// `<stem>.shard<i>.plst`, in the catalog's directory.
fn default_shard_files(path: &Path, n_shards: usize) -> Vec<String> {
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "store".to_string());
    (0..n_shards)
        .map(|i| format!("{stem}.shard{i}.plst"))
        .collect()
}

/// Migrates a monolithic store into an `n_shards`-way sharded store at
/// `out` (catalog file; shard files land beside it), assigning data sets
/// round-robin. Geometry and segment bytes are copied verbatim, checksums
/// verified — never decoded — so a later [`merge_shards`] reproduces the
/// monolith byte-for-byte. The one writer of shard files.
pub fn shard_store(
    monolith: impl AsRef<Path>,
    out: impl AsRef<Path>,
    n_shards: usize,
) -> Result<ShardCatalog> {
    if n_shards == 0 {
        return Err(StoreError::Corrupt(
            "a sharded store needs at least one shard".into(),
        ));
    }
    let out = out.as_ref();
    let store = Store::open(monolith)?;
    let geometry = store.read_geometry_blob()?;
    let segments = store.read_retained_segments(|_| true, Cluster::default())?;
    let mut groups: Vec<Option<SegmentGroup>> = segments.into_iter().map(Some).collect();
    let datasets = store.manifest().datasets.clone();
    let catalog = ShardCatalog {
        shard_of: (0..datasets.len()).map(|di| di % n_shards).collect(),
        datasets,
        files: default_shard_files(out, n_shards),
    };
    // Each shard file lists its data sets in ascending global order. The
    // catalog is written last, after every shard landed, so a crashed
    // migration never leaves a catalog pointing at missing shards.
    for s in 0..n_shards {
        let owned = catalog.datasets_of_shard(s);
        let local_catalog = owned.iter().map(|&di| catalog.datasets[di].clone());
        let local_groups = owned
            .iter()
            .map(|&di| groups[di].take().expect("each data set owned once"));
        write_store(
            &catalog.shard_path(out, s),
            &geometry,
            local_catalog.collect(),
            local_groups.collect(),
        )?;
    }
    catalog.write(out)?;
    Ok(catalog)
}

/// Merges a sharded store back into one monolithic file at `out`. Every
/// shard must be available; geometry and segment bytes are copied
/// verbatim, so merging the output of [`shard_store`] reproduces the
/// original monolith byte-for-byte (the migration round-trip test pins
/// this — and `shard`/`merge` are exact inverses for any shard count).
pub fn merge_shards(catalog_path: impl AsRef<Path>, out: impl AsRef<Path>) -> Result<Store> {
    let catalog_path = catalog_path.as_ref();
    let catalog = ShardCatalog::read(catalog_path)?;
    let stores = (0..catalog.n_shards())
        .map(|s| open_shard(&catalog, catalog_path, s))
        .collect::<Result<Vec<Store>>>()?;
    let Some(first) = stores.first() else {
        return Err(StoreError::Corrupt(
            "sharded store has no shards to merge geometry from".into(),
        ));
    };
    for store in &stores[1..] {
        same_city(first, store)?;
    }
    let geometry = first.read_geometry_blob()?;
    let mut per_dataset: Vec<SegmentGroup> =
        (0..catalog.datasets.len()).map(|_| Vec::new()).collect();
    for (s, store) in stores.iter().enumerate() {
        let owned = catalog.datasets_of_shard(s);
        for (li, group) in store
            .read_retained_segments(|_| true, Cluster::default())?
            .drain(..)
            .enumerate()
        {
            per_dataset[owned[li]] = group;
        }
    }
    write_store(out.as_ref(), &geometry, catalog.datasets, per_dataset)
}

/// Checks that two files of one store carry the same city: every shard
/// embeds the identical geometry blob, so a blob of another length or
/// checksum means a shard built over another `CityGeometry` — which would
/// be served, or merged, with the wrong regions and adjacency.
pub(crate) fn same_city(first: &Store, other: &Store) -> Result<()> {
    let (a, b) = (first.manifest().geometry, other.manifest().geometry);
    if (a.len, a.checksum) == (b.len, b.checksum) {
        return Ok(());
    }
    Err(StoreError::Corrupt(format!(
        "shard files {} and {} carry different city geometries",
        first.path().display(),
        other.path().display()
    )))
}

/// Opens one shard file and checks it against the shard catalog: its
/// local catalog must list exactly the owned data sets, in ascending
/// global order, or the files drifted (e.g. a stale shard beside a
/// rewritten catalog). Any failure — missing file, truncation,
/// corruption, drift — means the shard must not serve; the read path
/// records it, the write paths wrap it ([`open_shard`]).
pub(crate) fn open_shard_file(
    catalog: &ShardCatalog,
    catalog_path: &Path,
    shard: usize,
) -> Result<Store> {
    let store = Store::open(catalog.shard_path(catalog_path, shard))?;
    let local: Vec<&str> = (store.manifest().datasets.iter())
        .map(|d| d.meta.name.as_str())
        .collect();
    let owned: Vec<&str> = (catalog.datasets_of_shard(shard).into_iter())
        .map(|di| catalog.datasets[di].meta.name.as_str())
        .collect();
    if local != owned {
        return Err(StoreError::Corrupt(format!(
            "shard catalog drift: shard file lists [{}], catalog expects [{}]",
            local.join(", "),
            owned.join(", ")
        )));
    }
    Ok(store)
}

/// [`open_shard_file`] with the failure wrapped into the typed
/// [`StoreError::ShardUnavailable`] the degradation contract promises.
fn open_shard(catalog: &ShardCatalog, catalog_path: &Path, shard: usize) -> Result<Store> {
    open_shard_file(catalog, catalog_path, shard).map_err(|e| StoreError::ShardUnavailable {
        shard,
        file: catalog.files[shard].clone(),
        reason: e.to_string(),
    })
}

/// [`Store::upsert_dataset`] on a shard catalog: rewrites the owning
/// shard file — for a new data set the least-loaded one (ties to the
/// lowest index) — and then the catalog file. Returns the rewritten shard
/// file, reopened.
pub(crate) fn upsert_dataset(
    catalog_path: &Path,
    dataset: &Dataset,
    config: &Config,
) -> Result<Store> {
    let mut catalog = ShardCatalog::read(catalog_path)?;
    let existing = catalog.dataset_index(&dataset.meta.name).ok();
    let shard = match existing {
        Some(di) => catalog.shard_of[di],
        None => (0..catalog.n_shards())
            .min_by_key(|&s| catalog.datasets_of_shard(s).len())
            .expect("catalog has at least one shard"),
    };
    let store = open_shard(&catalog, catalog_path, shard)?;
    let (store, entry) = store.with_dataset(dataset, config)?;
    match existing {
        Some(di) => catalog.datasets[di] = entry,
        None => {
            catalog.datasets.push(entry);
            catalog.shard_of.push(shard);
        }
    }
    catalog.write(catalog_path)?;
    Ok(store)
}

/// [`Store::remove_dataset`] on a shard catalog: rewrites the owning shard
/// file and then the catalog file. Later data sets keep their shards: the
/// assignment is explicit in the catalog, so removal never cascades.
/// Returns the rewritten shard file, reopened.
pub(crate) fn remove_dataset(catalog_path: &Path, name: &str) -> Result<Store> {
    let mut catalog = ShardCatalog::read(catalog_path)?;
    let target = catalog.dataset_index(name)?;
    let shard = catalog.shard_of[target];
    let store = open_shard(&catalog, catalog_path, shard)?.without_dataset(name)?;
    catalog.datasets.remove(target);
    catalog.shard_of.remove(target);
    catalog.write(catalog_path)?;
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygamy_stdata::{DatasetMeta, SpatialResolution, TemporalResolution};

    fn entry(name: &str) -> DatasetEntry {
        DatasetEntry {
            meta: DatasetMeta {
                name: name.into(),
                spatial_resolution: SpatialResolution::City,
                temporal_resolution: TemporalResolution::Hour,
                description: String::new(),
            },
            n_records: 10,
            raw_bytes: 100,
            n_specs: 1,
        }
    }

    fn sample_catalog() -> ShardCatalog {
        ShardCatalog {
            datasets: vec![entry("alpha"), entry("beta"), entry("gamma")],
            shard_of: vec![0, 1, 0],
            files: vec!["c.shard0.plst".into(), "c.shard1.plst".into()],
        }
    }

    #[test]
    fn catalog_roundtrip() {
        let c = sample_catalog();
        assert_eq!(ShardCatalog::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn catalog_rejects_bad_magic_version_truncation_checksum() {
        let good = sample_catalog().encode();
        assert!(matches!(
            ShardCatalog::decode(&good[..10]),
            Err(StoreError::Truncated { .. })
        ));
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            ShardCatalog::decode(&bad_magic),
            Err(StoreError::BadMagic)
        ));
        let mut bad_version = good.clone();
        bad_version[8] = 0xEE;
        assert!(matches!(
            ShardCatalog::decode(&bad_version),
            Err(StoreError::UnsupportedVersion { .. })
        ));
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        assert!(matches!(
            ShardCatalog::decode(&flipped),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            ShardCatalog::decode(&good[..good.len() - 4]),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn catalog_rejects_out_of_range_assignment_and_empty_layout() {
        let mut c = sample_catalog();
        c.shard_of[1] = 9;
        assert!(matches!(
            ShardCatalog::decode(&c.encode()),
            Err(StoreError::Corrupt(_))
        ));
        let mut empty = sample_catalog();
        empty.files.clear();
        empty.shard_of = vec![0, 0, 0];
        assert!(matches!(
            ShardCatalog::decode(&empty.encode()),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn catalog_with_a_huge_length_field_is_truncated_not_a_panic() {
        // A bare 32-byte header claiming a u64::MAX payload: the length
        // must be bounded before it is added to the header length.
        let mut bytes = sample_catalog().encode();
        bytes.truncate(SHARD_HEADER_LEN);
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            ShardCatalog::decode(&bytes),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn catalog_rejects_file_names_that_leave_its_directory() {
        for bad in [
            "../escape.plst",
            "/abs/x.plst",
            "sub/x.plst",
            "sub\\x.plst",
            "x.plst/",
            "..",
            ".",
            "",
        ] {
            let mut c = sample_catalog();
            c.files[1] = bad.into();
            match ShardCatalog::decode(&c.encode()) {
                Err(StoreError::Corrupt(msg)) => assert!(msg.contains("file name"), "{msg}"),
                other => panic!("{bad:?} must be rejected as Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn catalog_helpers() {
        let c = sample_catalog();
        assert_eq!(c.n_shards(), 2);
        assert_eq!(c.datasets_of_shard(0), vec![0, 2]);
        assert_eq!(c.datasets_of_shard(1), vec![1]);
        assert_eq!(c.local_index(0), 0);
        assert_eq!(c.local_index(1), 0);
        assert_eq!(c.local_index(2), 1);
        assert_eq!(c.dataset_index("gamma").unwrap(), 2);
        assert!(c.dataset_index("nope").is_err());
    }

    #[test]
    fn default_file_names_derive_from_stem() {
        let files = default_shard_files(Path::new("/tmp/corpus.plst"), 3);
        assert_eq!(
            files,
            vec![
                "corpus.shard0.plst",
                "corpus.shard1.plst",
                "corpus.shard2.plst"
            ]
        );
    }
}
