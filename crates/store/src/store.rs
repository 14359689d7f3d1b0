//! Reading and writing store files.
//!
//! [`Store::open`] reads only the 40-byte header and the manifest — cheap
//! regardless of corpus size. Function segments are materialized by the one
//! index over a store's file(s), [`crate::lazy::LazyIndex`] — on demand for
//! a lazy session, all at once for an eager one — each blob verified
//! against its checksum before its first decode. Writes go through a temp
//! file renamed into place (and the directory synced behind it), so a
//! crashed writer never leaves a half-written store at the target path; the
//! temp file is filled in whole blocks that bypass the page cache where the
//! platform allows (`BlockWriter`).
//!
//! All reads — manifest, geometry, segments, maintenance copies — are
//! positioned reads into owned buffers through one [`SegmentSource`]
//! opened at [`Store::open`] time. The single long-lived handle pins the
//! file revision, so a concurrent writer's atomic rename can never pair
//! this store's manifest with another revision's bytes (see
//! [`crate::source`] for the full contract), and the source's byte counter
//! makes read-path costs observable.
//!
//! Incremental maintenance ([`Store::upsert_dataset`] /
//! [`Store::remove_dataset`]) copies retained blob bytes verbatim — each
//! verified once against the manifest's checksum as it is read, never
//! decoded, and that verified checksum is what the new manifest records —
//! and re-indexes only the data set being changed, preserving the
//! index-once/query-many economics for corpus updates.

use crate::checksum::blob_checksum;
use crate::codec::{encode_field, encode_hot};
use crate::error::{Result, StoreError};
use crate::format::{BlobLoc, Header, Manifest, SegmentInfo, HEADER_LEN, VERSION};
use crate::source::SegmentSource;
use polygamy_core::index::{DatasetEntry, FunctionEntry, PolygamyIndex};
use polygamy_core::{index_dataset, CityGeometry, Config};
use polygamy_json::Value;
use polygamy_obs::{count, names, stage};
use polygamy_stdata::{Dataset, Resolution, SpatialPartition, SpatialResolution};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Which parts of a store to materialize: always all of it. A lazy
/// session reads only the segments a query touches, so a data-set filter
/// would save nothing; the type stays, with its one value, only because
/// callers outside this workspace still pass it to
/// [`StoreSession::open_with`](crate::StoreSession::open_with) and
/// [`StoreSession::open_lazy_with`](crate::StoreSession::open_lazy_with).
#[derive(Debug, Clone)]
pub struct LoadFilter;

impl LoadFilter {
    /// Loads everything.
    pub fn all() -> Self {
        Self
    }
}

/// A store file opened for reading: header + manifest in memory, segments
/// on disk behind one pinned [`SegmentSource`].
#[derive(Debug)]
pub struct Store {
    path: PathBuf,
    header: Header,
    manifest: Manifest,
    source: SegmentSource,
}

impl Store {
    // -- writing ----------------------------------------------------------

    /// Writes `index` (built over `geometry`) as a new store file at
    /// `path`, replacing any existing file atomically. Returns the opened
    /// store.
    pub fn save(
        path: impl AsRef<Path>,
        geometry: &CityGeometry,
        index: &PolygamyIndex,
    ) -> Result<Store> {
        write_store(
            path.as_ref(),
            &encode_geometry(geometry)?,
            index.datasets.clone(),
            encode_segment_groups(index),
        )
    }

    // -- opening and loading ----------------------------------------------

    /// Opens a store, reading and verifying only the header and manifest.
    ///
    /// The file is opened exactly once here; every later read — geometry,
    /// segments, maintenance copies — is served by the same
    /// [`SegmentSource`], so the revision observed at open time is the one
    /// all reads see even if a writer replaces the path concurrently.
    pub fn open(path: impl AsRef<Path>) -> Result<Store> {
        let path = path.as_ref().to_path_buf();
        let source = SegmentSource::open(&path)?;
        if source.len() < HEADER_LEN {
            return Err(StoreError::Truncated {
                what: "header".into(),
            });
        }
        // The header is self-describing (magic + version validated by
        // `Header::decode`) and carries the manifest checksum rather than
        // its own, so it is fetched unverified.
        let header_bytes = source.fetch(
            BlobLoc {
                offset: 0,
                len: HEADER_LEN,
                checksum: 0,
            },
            "header",
        )?;
        let header = Header::decode(&header_bytes)?;
        let manifest_bytes = source.read(
            BlobLoc {
                offset: header.manifest_offset,
                len: header.manifest_len,
                checksum: header.manifest_checksum,
            },
            "manifest",
        )?;
        let manifest = Manifest::decode(&manifest_bytes)?;
        Ok(Store {
            path,
            header,
            manifest,
            source,
        })
    }

    /// The file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The decoded header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// The manifest: catalog and segment directory.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The byte source serving all of this store's reads — exposes the
    /// running bytes-fetched counter.
    pub fn source(&self) -> &SegmentSource {
        &self.source
    }

    /// Total file size in bytes (the real on-disk footprint of the
    /// revision this store has pinned).
    pub fn file_bytes(&self) -> Result<u64> {
        Ok(self.source.len())
    }

    /// Loads and verifies the city geometry.
    pub fn load_geometry(&self) -> Result<CityGeometry> {
        let bytes = self.source.read(self.manifest.geometry, "geometry")?;
        decode_geometry(&bytes)
    }

    /// How errors name one segment of this store: `segment <data set>.<function>`.
    pub(crate) fn segment_label(&self, info: &SegmentInfo) -> String {
        format!(
            "segment {}.{}",
            self.manifest.datasets[info.dataset_index].meta.name, info.function
        )
    }

    // -- incremental maintenance ------------------------------------------

    /// Adds or replaces one data set in the store without re-indexing the
    /// rest of the corpus: only `dataset` runs through the indexing jobs;
    /// every other data set's segment bytes are copied verbatim (checksums
    /// verified). Returns the reopened store.
    pub fn upsert_dataset(
        path: impl AsRef<Path>,
        dataset: &Dataset,
        config: &Config,
    ) -> Result<Store> {
        let (store, _entry) = Store::open(path)?.with_dataset(dataset, config)?;
        Ok(store)
    }

    /// Removes one data set's catalog entry and segments, copying everything
    /// else verbatim. Returns the reopened store.
    pub fn remove_dataset(path: impl AsRef<Path>, name: &str) -> Result<Store> {
        Store::open(path)?.without_dataset(name)
    }

    /// Indexes `dataset` and rewrites this store's file with it replacing
    /// the data set of the same name, or appended when the name is new.
    /// Returns the reopened store and the data set's fresh catalog entry
    /// (a sharded store mirrors it into the shard catalog).
    pub(crate) fn with_dataset(
        self,
        dataset: &Dataset,
        config: &Config,
    ) -> Result<(Store, DatasetEntry)> {
        let geometry = self.load_geometry()?;
        let target = self
            .manifest
            .dataset_index(&dataset.meta.name)
            .unwrap_or(self.manifest.datasets.len());
        let (entry, functions, _stats) = index_dataset(config, &geometry, target, dataset);
        let fresh = {
            let _encode = stage(names::STORE_SAVE_ENCODE_NS);
            functions.iter().map(encode_segment).collect()
        };
        let store = self.rewrite(target, Some((entry.clone(), fresh)))?;
        Ok((store, entry))
    }

    /// Rewrites this store's file without the data set `name`.
    pub(crate) fn without_dataset(self, name: &str) -> Result<Store> {
        let target = self.manifest.dataset_index(name)?;
        self.rewrite(target, None)
    }

    /// The one per-file rewrite behind all maintenance, monolithic and
    /// sharded: copies every data set but `target` verbatim (checksums
    /// verified, payloads never decoded) and replaces `target` with
    /// `replacement` — appending when `target` is one past the catalog,
    /// removing it when `replacement` is `None`.
    fn rewrite(
        self,
        target: usize,
        replacement: Option<(DatasetEntry, SegmentGroup)>,
    ) -> Result<Store> {
        let mut catalog = self.manifest.datasets.clone();
        let mut per_dataset = {
            let _write = stage(names::STORE_SAVE_WRITE_NS);
            self.read_retained_segments(|di| di != target)?
        };
        match replacement {
            Some((entry, group)) if target == catalog.len() => {
                catalog.push(entry);
                per_dataset.push(group);
            }
            Some((entry, group)) => {
                catalog[target] = entry;
                per_dataset[target] = group;
            }
            None => {
                catalog.remove(target);
                per_dataset.remove(target);
            }
        }
        let geometry = self.read_geometry_blob()?;
        write_store(&self.path, &geometry, catalog, per_dataset)
    }

    /// Reads the raw (still-encoded) segments of every data set admitted by
    /// `keep`, grouped by catalog position. Every blob is verified against
    /// the manifest's checksum as it is read, so maintenance never copies
    /// corruption forward — and carries that checksum along, so the writer
    /// never recomputes it. Shared with the shard migration paths
    /// ([`crate::shard`]), which move blob bytes between files verbatim.
    pub(crate) fn read_retained_segments(
        &self,
        keep: impl Fn(usize) -> bool,
    ) -> Result<Vec<SegmentGroup>> {
        let mut per_dataset: Vec<SegmentGroup> = (0..self.manifest.datasets.len())
            .map(|_| Vec::new())
            .collect();
        for info in &self.manifest.segments {
            if !keep(info.dataset_index) {
                continue;
            }
            let what = self.segment_label(info);
            per_dataset[info.dataset_index].push(Segment {
                function: info.function.clone(),
                resolution: info.resolution,
                hot: self.read_blob(info.loc, &what)?,
                field: info
                    .field
                    .map(|loc| self.read_blob(loc, &format!("{what} field")))
                    .transpose()?,
            });
        }
        Ok(per_dataset)
    }

    /// Reads the raw geometry blob, checksum-verified.
    pub(crate) fn read_geometry_blob(&self) -> Result<Blob> {
        self.read_blob(self.manifest.geometry, "geometry")
    }

    /// Reads one blob for verbatim copying: verified here, once, against
    /// the checksum the manifest recorded for it.
    fn read_blob(&self, loc: BlobLoc, what: &str) -> Result<Blob> {
        Ok(Blob {
            bytes: self.source.read(loc, what)?,
            checksum: loc.checksum,
        })
    }
}

/// One blob on its way into a store file: its bytes and their checksum —
/// computed when the blob was encoded, or carried over from the manifest
/// it was just verified against.
#[derive(Debug)]
pub(crate) struct Blob {
    bytes: Vec<u8>,
    checksum: u64,
}

impl Blob {
    /// A freshly encoded blob, checksummed here.
    fn encoded(bytes: Vec<u8>) -> Self {
        Self {
            checksum: blob_checksum(&bytes),
            bytes,
        }
    }
}

/// One function segment being written: routing metadata plus its blobs.
#[derive(Debug)]
pub(crate) struct Segment {
    function: String,
    resolution: Resolution,
    hot: Blob,
    field: Option<Blob>,
}

/// One data set's encoded segments, in directory order.
pub(crate) type SegmentGroup = Vec<Segment>;

fn encode_segment(entry: &FunctionEntry) -> Segment {
    let (hot, hot_raw) = encode_hot(entry);
    let field = entry.field.as_ref().map(|f| encode_field(&f.values));
    count(names::STORE_SAVE_HOT_RAW_BYTES, hot_raw as u64);
    count(names::STORE_SAVE_HOT_STORED_BYTES, hot.len() as u64);
    if let (Some(raw), Some(stored)) = (&entry.field, &field) {
        count(
            names::STORE_SAVE_FIELD_RAW_BYTES,
            8 * raw.values.len() as u64,
        );
        count(names::STORE_SAVE_FIELD_STORED_BYTES, stored.len() as u64);
    }
    Segment {
        function: entry.spec.name.clone(),
        resolution: entry.resolution,
        hot: Blob::encoded(hot),
        field: field.map(Blob::encoded),
    }
}

/// Encodes an index's segments grouped by data set in catalog order — the
/// canonical layout every writer (save, sharded save, maintenance)
/// produces.
pub(crate) fn encode_segment_groups(index: &PolygamyIndex) -> Vec<SegmentGroup> {
    let mut per_dataset: Vec<SegmentGroup> =
        (0..index.datasets.len()).map(|_| Vec::new()).collect();
    let _encode = stage(names::STORE_SAVE_ENCODE_NS);
    for entry in &index.functions {
        per_dataset[entry.dataset_index].push(encode_segment(entry));
    }
    per_dataset
}

/// Serialises the geometry blob (JSON payload inside the checksummed
/// segment framing — polygon soup gains nothing from a binary codec and
/// stays debuggable this way): `{"zip","neighborhood","city"}`, each a
/// [`SpatialPartition::write_json`] object or, for the optional two,
/// `null`. Shared with [`crate::shard`], which embeds the identical blob
/// in every shard file.
pub(crate) fn encode_geometry(geometry: &CityGeometry) -> Result<Blob> {
    let mut json = String::new();
    write_geometry(&mut json, geometry)
        .map_err(|e| StoreError::Corrupt(format!("geometry encode failed: {e}")))?;
    Ok(Blob::encoded(json.into_bytes()))
}

fn write_geometry(
    out: &mut String,
    geometry: &CityGeometry,
) -> std::result::Result<(), polygamy_json::Error> {
    let optional = |out: &mut String, partition: Option<&SpatialPartition>| match partition {
        Some(partition) => partition.write_json(out),
        None => {
            out.push_str("null");
            Ok(())
        }
    };
    out.push_str("{\"zip\":");
    optional(out, geometry.zip.as_ref())?;
    out.push_str(",\"neighborhood\":");
    optional(out, geometry.neighborhood.as_ref())?;
    out.push_str(",\"city\":");
    geometry.city.write_json(out)?;
    out.push('}');
    Ok(())
}

/// Decodes the geometry blob, untrusted text: every partition is read
/// through [`SpatialPartition::from_json`], which builds it with the
/// constructors that enforce what the executor indexes by (rings of ≥ 3
/// vertices, one adjacency list per polygon, neighbours in range) and
/// re-derives the point-location grid from the polygons — the file's copy
/// of the grid is never read — and each partition must sit in the slot of
/// its own resolution. For a geometry this crate wrote, the decoded value
/// is the one that was saved.
fn decode_geometry(bytes: &[u8]) -> Result<CityGeometry> {
    let corrupt = |e: &dyn std::fmt::Display| StoreError::Corrupt(format!("geometry: {e}"));
    let text = std::str::from_utf8(bytes).map_err(|_| corrupt(&"blob is not utf-8"))?;
    let root = polygamy_json::parse(text).map_err(|e| corrupt(&e))?;
    let slot = |key: &str| root.get(key).map_err(|e| corrupt(&e));
    let read = |value: &Value, slot: SpatialResolution| {
        let partition = SpatialPartition::from_json(value).map_err(|e| corrupt(&e))?;
        if partition.resolution != slot {
            let found = partition.resolution;
            return Err(corrupt(&format!("{slot} slot holds a {found} partition")));
        }
        Ok(partition)
    };
    let optional = |key: &str, resolution| match slot(key)? {
        Value::Null => Ok(None),
        value => read(value, resolution).map(Some),
    };
    Ok(CityGeometry {
        zip: optional("zip", SpatialResolution::Zip)?,
        neighborhood: optional("neighborhood", SpatialResolution::Neighborhood)?,
        city: read(slot("city")?, SpatialResolution::City)?,
    })
}

/// Composes and atomically writes a complete store file, then reopens it.
///
/// The layout is a pure function of its inputs: header, geometry blob at
/// offset [`HEADER_LEN`], every hot blob in per-data-set order, then every
/// field blob in the same order, tail manifest — no timestamps, no
/// padding. Two calls with the same geometry, catalog and blobs therefore
/// produce byte-identical files; the shard/merge round-trip
/// ([`crate::shard`]) leans on this to reproduce a monolith bit-for-bit.
/// No blob is hashed here: each arrives with its checksum.
pub(crate) fn write_store(
    path: &Path,
    geometry: &Blob,
    catalog: Vec<DatasetEntry>,
    per_dataset: Vec<SegmentGroup>,
) -> Result<Store> {
    {
        let _write = stage(names::STORE_SAVE_WRITE_NS);
        compose_and_write(path, geometry, catalog, per_dataset)?;
    }
    Store::open(path)
}

/// [`write_store`] up to the rename: lays the file out and writes it.
fn compose_and_write(
    path: &Path,
    geometry: &Blob,
    catalog: Vec<DatasetEntry>,
    per_dataset: Vec<SegmentGroup>,
) -> Result<()> {
    debug_assert_eq!(catalog.len(), per_dataset.len());
    let mut offset = HEADER_LEN;
    let mut payloads: Vec<&[u8]> = Vec::new();
    let mut place = |blob: &Blob| {
        let loc = BlobLoc {
            offset,
            len: blob.bytes.len() as u64,
            checksum: blob.checksum,
        };
        offset += loc.len;
        loc
    };
    let geometry_loc = place(geometry);
    payloads.push(&geometry.bytes);

    let mut segments: Vec<SegmentInfo> = Vec::new();
    for (di, group) in per_dataset.iter().enumerate() {
        for segment in group {
            segments.push(SegmentInfo {
                dataset_index: di,
                function: segment.function.clone(),
                resolution: segment.resolution,
                loc: place(&segment.hot),
                field: None,
            });
            payloads.push(&segment.hot.bytes);
        }
    }
    for (info, segment) in segments.iter_mut().zip(per_dataset.iter().flatten()) {
        if let Some(field) = &segment.field {
            info.field = Some(place(field));
            payloads.push(&field.bytes);
        }
    }

    let manifest = Manifest {
        geometry: geometry_loc,
        datasets: catalog,
        segments,
    };
    let manifest_bytes = manifest.encode();
    let header = Header {
        version: VERSION,
        manifest_offset: offset,
        manifest_len: manifest_bytes.len() as u64,
        manifest_checksum: blob_checksum(&manifest_bytes),
    };

    write_atomically(path, |out| {
        out.write_all(&header.encode())?;
        for payload in &payloads {
            out.write_all(payload)?;
        }
        out.write_all(&manifest_bytes)
    })
}

/// The one durable writer behind store files and shard catalogs: `write`
/// fills a temp file that is synced and then renamed over `path`, so a
/// crashed writer never leaves a half-written file at the target — and the
/// directory is synced after the rename, so a crash after this returns
/// never brings the previous revision back.
///
/// The temp file lives in the same directory so the rename stays on one
/// filesystem. Its name appends to the full file name (never replaces an
/// extension) and carries pid + a process-wide counter, so concurrent
/// writers — even to paths sharing a stem — never collide.
pub(crate) fn write_atomically(
    path: &Path,
    write: impl FnOnce(&mut BlockWriter) -> std::io::Result<()>,
) -> Result<()> {
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(format!(".tmp.{}.{seq}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let written = (|| -> Result<()> {
        let mut out = BlockWriter::create(&tmp)?;
        write(&mut out)?;
        out.finish()?.sync_all()?;
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path)?;
        Ok(())
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Makes a rename into `path`'s directory durable: the new name is an entry
/// of the directory, which has to reach the device like any other data.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Directories cannot be opened for syncing here.
#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> std::io::Result<()> {
    Ok(())
}

/// Alignment of everything a [`BlockWriter`] hands the kernel: buffer
/// address, length and file offset. 4 KiB covers 512-byte and 4 KiB-sector
/// devices alike.
const BLOCK: usize = 4096;

/// Bytes staged per `write(2)`: large enough for the device to stream
/// (1 MiB direct writes ran within 15% of 4 MiB ones), small enough that
/// the buffer itself is nothing to allocate.
const STAGE_LEN: usize = 1 << 20;

/// `O_DIRECT` where this crate knows its value (it is per-architecture,
/// and the offline build has no `libc` crate to ask); elsewhere the writer
/// is buffered.
const O_DIRECT: Option<i32> = if cfg!(not(target_os = "linux")) {
    None
} else if cfg!(any(target_arch = "x86_64", target_arch = "x86")) {
    Some(0o40000)
} else if cfg!(any(target_arch = "aarch64", target_arch = "arm")) {
    Some(0o200000)
} else {
    None
};

/// The sequential writer of a fresh store file: bytes are staged in one
/// aligned buffer and reach the file in whole blocks, past the page cache
/// (`O_DIRECT`) wherever the platform and the filesystem allow it.
///
/// A store file is written once, synced at once and read back by positioned
/// reads of single blobs, so caching it on the way out buys nothing — and it
/// costs one fresh page-cache page per 4 KiB written, all of them released
/// again when the next revision is renamed over this one. On a
/// memory-overcommitted host (free-page reporting hands a guest's free
/// memory back to the hypervisor within seconds) allocating those pages is
/// where a save's time went: the same 75 MB `write_all` loop measured 22 ms
/// or 200–600 ms depending on whether the pages it was given were still
/// backed, which made `Store::save` the least repeatable part of an index
/// build. Direct writes allocate nothing, so they cost the same every time
/// (and the sync that follows has only metadata left to flush).
///
/// Where `O_DIRECT` is unknown or the filesystem refuses it at `open`, the
/// same writer runs over a buffered file; the bytes written are identical.
pub(crate) struct BlockWriter {
    file: File,
    /// `STAGE_LEN` usable bytes starting at `base`, the first
    /// `BLOCK`-aligned address of the allocation.
    stage: Vec<u8>,
    base: usize,
    /// Staged bytes not yet written.
    fill: usize,
    /// Bytes accepted so far: the file's true length.
    len: u64,
}

impl BlockWriter {
    fn create(path: &Path) -> std::io::Result<Self> {
        let file = match Self::create_direct(path) {
            Some(file) => file,
            None => File::create(path)?,
        };
        Ok(Self::over(file))
    }

    /// Stages writes to `file`, which must be empty and positioned at 0.
    fn over(file: File) -> Self {
        let stage = vec![0u8; STAGE_LEN + BLOCK];
        let base = stage.as_ptr().align_offset(BLOCK);
        Self {
            file,
            stage,
            base,
            fill: 0,
            len: 0,
        }
    }

    #[cfg(unix)]
    fn create_direct(path: &Path) -> Option<File> {
        use std::os::unix::fs::OpenOptionsExt;
        std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .custom_flags(O_DIRECT?)
            .open(path)
            .ok()
    }

    #[cfg(not(unix))]
    fn create_direct(_path: &Path) -> Option<File> {
        None
    }

    /// Writes the first `n` staged bytes (`n` a multiple of [`BLOCK`]).
    fn write_staged(&mut self, n: usize) -> std::io::Result<()> {
        self.file.write_all(&self.stage[self.base..self.base + n])?;
        self.fill = 0;
        Ok(())
    }

    /// Writes what is still staged — zero-padded to a whole block, which a
    /// direct write must be — and cuts the file back to the bytes accepted.
    /// Returns the file, written but not yet synced.
    fn finish(mut self) -> std::io::Result<File> {
        let padded = self.fill.next_multiple_of(BLOCK);
        self.stage[self.base + self.fill..self.base + padded].fill(0);
        self.write_staged(padded)?;
        self.file.set_len(self.len)?;
        Ok(self.file)
    }
}

impl Write for BlockWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let n = data.len().min(STAGE_LEN - self.fill);
        let at = self.base + self.fill;
        self.stage[at..at + n].copy_from_slice(&data[..n]);
        self.fill += n;
        self.len += n as u64;
        if self.fill == STAGE_LEN {
            self.write_staged(STAGE_LEN)?;
        }
        Ok(n)
    }

    /// A no-op: staged bytes leave in whole blocks or at
    /// [`BlockWriter::finish`], never in between.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygamy_stdata::{GeoPoint, Polygon};

    /// A 2 × 2 grid of unit squares with 4-adjacency.
    fn grid_partition(resolution: SpatialResolution) -> SpatialPartition {
        let polygons = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
            .map(|(x, y)| Polygon::rect(x, y, x + 1.0, y + 1.0))
            .to_vec();
        let adjacency = vec![vec![1, 2], vec![0, 3], vec![0, 3], vec![1, 2]];
        SpatialPartition::new(resolution, polygons, adjacency).unwrap()
    }

    /// Decoding rebuilds every partition through the constructors; for a
    /// geometry this crate wrote that reproduces the saved value — the
    /// re-derived locator grid included — so it re-encodes to the same
    /// bytes and locates points in the same regions.
    #[test]
    fn valid_geometry_decodes_to_the_saved_value() {
        let geometry = CityGeometry {
            zip: Some(grid_partition(SpatialResolution::Zip)),
            neighborhood: Some(grid_partition(SpatialResolution::Neighborhood)),
            city: SpatialPartition::city(0.0, 0.0, 2.0, 2.0),
        };
        let blob = encode_geometry(&geometry).unwrap();
        let decoded = decode_geometry(&blob.bytes).unwrap();
        assert_eq!(encode_geometry(&decoded).unwrap().bytes, blob.bytes);
        let (zip, decoded_zip) = (geometry.zip.unwrap(), decoded.zip.unwrap());
        assert_eq!(decoded_zip.adjacency, zip.adjacency);
        for p in [(0.5, 0.5), (1.5, 0.5), (0.5, 1.5), (1.5, 1.5), (9.0, 9.0)] {
            let p = GeoPoint::new(p.0, p.1);
            assert_eq!(decoded_zip.locate(p), zip.locate(p));
        }
    }

    /// Coordinates that take a branch of the float rule each: signed
    /// zeros, integral values on both sides of 1e15 (1e15 itself is
    /// written as the integer token `1000000000000000`), a subnormal, NaN
    /// (written `null`, read back as NaN).
    const COORDINATES: [f64; 9] = [
        0.0,
        -0.0,
        1.0,
        -3.5,
        999_999_999_999_999.0,
        1e15,
        5e-324,
        0.1,
        f64::NAN,
    ];

    /// A partition of 1–4 polygons with 3–5 vertices each and arbitrary
    /// (one-sided, repeated, self-) neighbours, drawn from `words`.
    fn arbitrary_partition(
        words: &mut impl Iterator<Item = u64>,
        resolution: SpatialResolution,
    ) -> SpatialPartition {
        let mut next = || words.next().unwrap_or(0);
        let coordinate = |w: u64| match w % 3 {
            0 => COORDINATES[(w >> 2) as usize % COORDINATES.len()],
            _ => Some(f64::from_bits(w))
                .filter(|f| f.is_finite())
                .unwrap_or(0.5),
        };
        let n = 1 + next() as usize % 4;
        let polygons = (0..n)
            .map(|_| {
                let ring = (0..3 + next() % 3)
                    .map(|_| GeoPoint::new(coordinate(next()), coordinate(next())));
                Polygon::new(ring.collect()).unwrap()
            })
            .collect();
        let adjacency = (0..n)
            .map(|_| {
                (0..next() % 4)
                    .map(|_| (next() % n as u64) as u32)
                    .collect()
            })
            .collect();
        SpatialPartition::new(resolution, polygons, adjacency).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(300))]

        /// Encode → decode returns the geometry that was encoded: every
        /// coordinate bit for bit, every adjacency list, and (since the
        /// grid is re-derived from those) the same bytes again.
        #[test]
        fn geometry_decodes_to_what_was_encoded(
            words in proptest::collection::vec(0u64..u64::MAX, 1..120)
        ) {
            let mut words = words.iter().copied();
            let flags = words.next().unwrap_or(0);
            let geometry = CityGeometry {
                zip: (flags & 1 == 0)
                    .then(|| arbitrary_partition(&mut words, SpatialResolution::Zip)),
                neighborhood: (flags & 2 == 0)
                    .then(|| arbitrary_partition(&mut words, SpatialResolution::Neighborhood)),
                city: arbitrary_partition(&mut words, SpatialResolution::City),
            };
            let blob = encode_geometry(&geometry).unwrap();
            let decoded = decode_geometry(&blob.bytes).unwrap();
            proptest::prop_assert!(encode_geometry(&decoded).unwrap().bytes == blob.bytes);
            let pairs = [
                (geometry.zip.as_ref(), decoded.zip.as_ref()),
                (geometry.neighborhood.as_ref(), decoded.neighborhood.as_ref()),
                (Some(&geometry.city), Some(&decoded.city)),
            ];
            for (original, decoded) in pairs {
                proptest::prop_assert_eq!(original.is_some(), decoded.is_some());
                let (Some(original), Some(decoded)) = (original, decoded) else { continue };
                proptest::prop_assert_eq!(decoded.resolution, original.resolution);
                proptest::prop_assert_eq!(&decoded.adjacency, &original.adjacency);
                let bits = |p: &SpatialPartition| -> Vec<(u64, u64)> {
                    let points = p.polygons.iter().flat_map(|poly| &poly.ring);
                    points.map(|v| (v.x.to_bits(), v.y.to_bits())).collect()
                };
                proptest::prop_assert_eq!(bits(decoded), bits(original));
            }
        }
    }

    /// The file's `grid` is written but never read: the key must be there,
    /// but its value — here no grid at all — does not matter, because the
    /// decoder re-derives the grid from the polygons, so a blob whose only
    /// defect lies inside the grid decodes.
    #[test]
    fn a_grid_is_written_but_not_read() {
        let geometry = CityGeometry::city_only(0.0, 0.0, 1.0, 1.0);
        let blob = encode_geometry(&geometry).unwrap();
        let text = String::from_utf8(blob.bytes.clone()).unwrap();
        let grid = r#""grid":{"bbox":{"min":{"x":0.0,"y":0.0},"max":{"x":1.0,"y":1.0}},"nx":1,"ny":1,"cells":[[0]]}"#;
        assert!(text.contains(grid), "{text}");
        for garbage in [
            r#""grid":"none""#,
            r#""grid":{"nx":-1,"cells":[[7]]}"#,
            r#""grid":null"#,
        ] {
            let decoded = decode_geometry(text.replace(grid, garbage).as_bytes()).unwrap();
            assert_eq!(
                encode_geometry(&decoded).unwrap().bytes,
                blob.bytes,
                "{garbage}"
            );
        }
        let without = text.replace(&format!(",{grid}"), "");
        let err = decode_geometry(without.as_bytes()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
    }

    /// The bytes of the geometry boundary (`docs/store-format.md`): every
    /// store file embeds this encoding, locator grid included, and
    /// maintenance copies it verbatim — it may only change together with
    /// [`VERSION`].
    #[test]
    fn geometry_encoding_bytes_are_pinned() {
        let blob = encode_geometry(&CityGeometry::city_only(0.0, 0.0, 1.0, 1.0)).unwrap();
        assert_eq!(
            String::from_utf8(blob.bytes).unwrap(),
            concat!(
                r#"{"zip":null,"neighborhood":null,"city":{"resolution":"City","#,
                r#""polygons":[{"ring":[{"x":0.0,"y":0.0},{"x":1.0,"y":0.0},"#,
                r#"{"x":1.0,"y":1.0},{"x":0.0,"y":1.0}]}],"adjacency":[[]],"#,
                r#""grid":{"bbox":{"min":{"x":0.0,"y":0.0},"max":{"x":1.0,"y":1.0}},"#,
                r#""nx":1,"ny":1,"cells":[[0]]}}}"#,
            )
        );
    }

    /// Whatever the lengths on either side of a block or stage boundary
    /// and however the bytes arrive, the file holds exactly what was
    /// written — through the direct writer `write_atomically` opens (where
    /// the platform has one) and through the buffered fallback alike.
    #[test]
    fn block_writer_writes_exactly_the_bytes_it_was_given() {
        let dir = std::env::temp_dir();
        let lengths = [
            0,
            1,
            BLOCK - 1,
            BLOCK,
            BLOCK + 1,
            STAGE_LEN - 1,
            STAGE_LEN,
            STAGE_LEN + 1,
            2 * STAGE_LEN + 12_345,
        ];
        for (i, len) in lengths.into_iter().enumerate() {
            let data: Vec<u8> = (0..len).map(|b| (b * 31 + b / 251) as u8).collect();
            let path = dir.join(format!("polygamy-block-writer-{}-{i}", std::process::id()));
            for direct in [true, false] {
                let mut out = if direct {
                    BlockWriter::create(&path).unwrap()
                } else {
                    BlockWriter::over(File::create(&path).unwrap())
                };
                // Pieces of 1, 7, 4,096 and 100,000 bytes in turn.
                let mut rest = data.as_slice();
                for piece in [1, 7, BLOCK, 100_000].into_iter().cycle() {
                    if rest.is_empty() {
                        break;
                    }
                    let (head, tail) = rest.split_at(piece.min(rest.len()));
                    out.write_all(head).unwrap();
                    rest = tail;
                }
                out.finish().unwrap().sync_all().unwrap();
                assert!(std::fs::read(&path).unwrap() == data, "{len} bytes");
            }
            std::fs::remove_file(&path).unwrap();
        }
    }
}
