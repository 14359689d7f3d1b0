//! Sharded stores: one self-contained `.plst` per shard plus a small
//! versioned shard-catalog file tying them together.
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
//! (relative to the catalog's directory). Each shard file's local catalog
//! lists its owned data sets in ascending global order, so the mapping
//! local ↔ global is positional and survives maintenance. The geometry
//! blob is duplicated verbatim into every shard, keeping each shard a
//! valid store on its own.
//!
//! **Byte-for-byte migration.** [`shard_store`] and [`merge_shards`] move
//! geometry and segment bytes verbatim (checksums verified, payloads never
//! decoded), and [`crate::store`]'s writer lays files out as a pure
//! function of its inputs — so monolith → N shards → monolith reproduces
//! the original file bit-for-bit, manifest included. The round-trip test
//! pins this.
//!
//! **Degraded serving.** Opening a sharded store records per-shard
//! availability instead of failing outright: shards that open (and whose
//! local catalogs match the shard catalog) serve normally; a missing,
//! truncated or corrupt shard yields a typed
//! [`StoreError::ShardUnavailable`] — repeatably — only for queries whose
//! footprint touches it. Per-shard counters
//! (`store.shard.faults.<shard>`, `store.shard.bytes_fetched.<shard>`)
//! report each shard file's serving load through the process registry.

use crate::codec::{decode_function_segment, encode_function_segment, Dec, Enc};
use crate::error::{Result, StoreError};
use crate::format::{dec_dataset_entry, enc_dataset_entry};
use crate::lazy::{LazyIndex, ShardObs};
use crate::source::SourceBackend;
use crate::store::{encode_geometry, write_store, LoadFilter, SegmentGroup, SegmentMeta, Store};
use polygamy_core::index::{DatasetEntry, FunctionEntry, PolygamyIndex};
use polygamy_core::query::RelationshipQuery;
use polygamy_core::{index_dataset, query_datasets, CityGeometry, Config, Fnv1a};
use polygamy_obs::names;
use polygamy_stdata::Dataset;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File magic identifying a shard catalog (a sharded store's entry point).
pub const SHARD_MAGIC: [u8; 8] = *b"PLGYSHRD";

/// Shard-catalog format version. Bumped independently of the store format
/// version: the catalog only routes, shard files carry the data.
pub const SHARD_CATALOG_VERSION: u32 = 1;

/// Fixed catalog header length: magic, version, flags, payload len, FNV.
const SHARD_HEADER_LEN: usize = 32;

/// The per-shard registry counters, resolved on demand (names extend the
/// `store.shard.*.` families in [`polygamy_obs::names`]).
fn shard_obs(shard: usize) -> ShardObs {
    let r = polygamy_obs::global();
    ShardObs {
        faults: r.counter(&format!("{}{shard}", names::STORE_SHARD_FAULTS_PREFIX)),
        bytes_fetched: r.counter(&format!(
            "{}{shard}",
            names::STORE_SHARD_BYTES_FETCHED_PREFIX
        )),
    }
}

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
        h.u64(Fnv1a::hash_bytes(&payload));
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
        let len = h.u64()? as usize;
        let checksum = h.u64()?;
        let payload = bytes
            .get(SHARD_HEADER_LEN..SHARD_HEADER_LEN + len)
            .ok_or_else(|| StoreError::Truncated {
                what: "shard catalog payload".into(),
            })?;
        if Fnv1a::hash_bytes(payload) != checksum {
            return Err(StoreError::ChecksumMismatch {
                what: "shard catalog".into(),
            });
        }

        let mut d = Dec::new(payload, "shard catalog");
        let n = d.seq_len(1)?;
        let mut datasets = Vec::with_capacity(n);
        for _ in 0..n {
            datasets.push(dec_dataset_entry(&mut d)?);
        }
        let mut shard_of = Vec::with_capacity(n);
        for _ in 0..n {
            shard_of.push(d.usize()?);
        }
        let n_files = d.seq_len(1)?;
        let mut files = Vec::with_capacity(n_files);
        for _ in 0..n_files {
            files.push(d.str()?);
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

    /// Atomically writes the catalog file (temp file + rename, like the
    /// store writer).
    pub fn write(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        // Same temp-name discipline as the store writer: pid + process-wide
        // counter, so concurrent catalog writers never collide.
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
        tmp_name.push(format!(".tmp.{}.{seq}", std::process::id()));
        let tmp = path.with_file_name(tmp_name);
        let written = (|| -> Result<()> {
            let mut out = File::create(&tmp)?;
            out.write_all(&self.encode())?;
            out.sync_all()?;
            std::fs::rename(&tmp, path)?;
            Ok(())
        })();
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        written
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
/// sniff `StoreSession` and the CLI use to pick the sharded open path.
pub fn is_sharded(path: impl AsRef<Path>) -> Result<bool> {
    let mut head = [0u8; 8];
    let mut f = File::open(path)?;
    let n = f.read(&mut head)?;
    Ok(n == 8 && head == SHARD_MAGIC)
}

/// The default shard file names for a catalog at `path`:
/// `<stem>.shard<i>.plst`, in the catalog's directory.
pub fn default_shard_files(path: &Path, n_shards: usize) -> Vec<String> {
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "store".to_string());
    (0..n_shards)
        .map(|i| format!("{stem}.shard{i}.plst"))
        .collect()
}

/// Round-robin shard assignment for `n_datasets` over `n_shards` — the
/// layout [`save_sharded`] and [`shard_store`] produce.
fn round_robin(n_datasets: usize, n_shards: usize) -> Vec<usize> {
    (0..n_datasets).map(|di| di % n_shards).collect()
}

/// Writes `index` as a sharded store at `path`: one self-contained shard
/// file per round-robin partition plus the shard catalog at `path`
/// itself. `n_shards` must be ≥ 1; shard files that own no data set are
/// still written (geometry + empty catalog), keeping the layout uniform.
pub fn save_sharded(
    path: impl AsRef<Path>,
    geometry: &CityGeometry,
    index: &PolygamyIndex,
    n_shards: usize,
) -> Result<ShardCatalog> {
    if n_shards == 0 {
        return Err(StoreError::Corrupt(
            "a sharded store needs at least one shard".into(),
        ));
    }
    let geometry_bytes = encode_geometry(geometry)?;
    let mut per_dataset: Vec<SegmentGroup> =
        (0..index.datasets.len()).map(|_| Vec::new()).collect();
    for entry in &index.functions {
        let meta = SegmentMeta {
            function: entry.spec.name.clone(),
            resolution: entry.resolution,
        };
        per_dataset[entry.dataset_index].push((meta, encode_function_segment(entry)));
    }
    write_sharded(
        path.as_ref(),
        &geometry_bytes,
        index.datasets.clone(),
        per_dataset,
        round_robin(index.datasets.len(), n_shards),
        n_shards,
    )
}

/// Migrates a monolithic store into an `n_shards`-way sharded store at
/// `out` (catalog file; shard files land beside it). Geometry and segment
/// bytes are copied verbatim, checksums verified — never decoded — so a
/// later [`merge_shards`] reproduces the monolith byte-for-byte.
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
    let store = Store::open(monolith)?;
    let geometry_bytes = store.read_geometry_bytes()?;
    let per_dataset = store.read_retained_segments(|_| true)?;
    let catalog = store.manifest().datasets.clone();
    let n = catalog.len();
    write_sharded(
        out.as_ref(),
        &geometry_bytes,
        catalog,
        per_dataset,
        round_robin(n, n_shards),
        n_shards,
    )
}

/// Composes one shard file per partition plus the catalog file. The
/// catalog is written last, after every shard landed, so a crashed
/// migration never leaves a catalog pointing at missing shards.
fn write_sharded(
    path: &Path,
    geometry_bytes: &[u8],
    catalog: Vec<DatasetEntry>,
    mut per_dataset: Vec<SegmentGroup>,
    shard_of: Vec<usize>,
    n_shards: usize,
) -> Result<ShardCatalog> {
    let files = default_shard_files(path, n_shards);
    let shard_catalog = ShardCatalog {
        datasets: catalog,
        shard_of,
        files,
    };
    // Drain the groups into per-shard (catalog, groups) in ascending
    // global order — the shard files' local order.
    let mut groups: Vec<Option<SegmentGroup>> = per_dataset.drain(..).map(Some).collect();
    for s in 0..n_shards {
        let owned = shard_catalog.datasets_of_shard(s);
        let local_catalog: Vec<DatasetEntry> = owned
            .iter()
            .map(|&di| shard_catalog.datasets[di].clone())
            .collect();
        let local_groups: Vec<SegmentGroup> = owned
            .iter()
            .map(|&di| groups[di].take().expect("each data set owned once"))
            .collect();
        write_store(
            &shard_catalog.shard_path(path, s),
            geometry_bytes,
            local_catalog,
            local_groups,
        )?;
    }
    shard_catalog.write(path)?;
    Ok(shard_catalog)
}

/// Merges a sharded store back into one monolithic file at `out`. Every
/// shard must be available; geometry and segment bytes are copied
/// verbatim, so merging the output of [`shard_store`] reproduces the
/// original monolith byte-for-byte (the migration round-trip test pins
/// this — and `shard`/`merge` are exact inverses for any shard count).
pub fn merge_shards(catalog_path: impl AsRef<Path>, out: impl AsRef<Path>) -> Result<Store> {
    let catalog_path = catalog_path.as_ref();
    let catalog = ShardCatalog::read(catalog_path)?;
    let mut geometry_bytes: Option<Vec<u8>> = None;
    let mut per_dataset: Vec<SegmentGroup> =
        (0..catalog.datasets.len()).map(|_| Vec::new()).collect();
    for s in 0..catalog.n_shards() {
        let store = open_shard(&catalog, catalog_path, s, SourceBackend::default())?;
        if geometry_bytes.is_none() {
            geometry_bytes = Some(store.read_geometry_bytes()?);
        }
        let owned = catalog.datasets_of_shard(s);
        for (li, group) in store
            .read_retained_segments(|_| true)?
            .drain(..)
            .enumerate()
        {
            per_dataset[owned[li]] = group;
        }
    }
    let geometry_bytes = geometry_bytes.ok_or_else(|| {
        StoreError::Corrupt("sharded store has no shards to merge geometry from".into())
    })?;
    write_store(out.as_ref(), &geometry_bytes, catalog.datasets, per_dataset)
}

/// Checks one opened shard file against the shard catalog: its local
/// catalog must list exactly the owned data sets, in ascending global
/// order. A mismatch means the files drifted (e.g. a stale shard beside a
/// rewritten catalog) and the shard must not serve.
fn verify_shard_catalog(catalog: &ShardCatalog, shard: usize, store: &Store) -> Result<()> {
    let owned = catalog.datasets_of_shard(shard);
    let local = &store.manifest().datasets;
    let matches = local.len() == owned.len()
        && owned
            .iter()
            .zip(local)
            .all(|(&di, l)| catalog.datasets[di].meta.name == l.meta.name);
    if matches {
        Ok(())
    } else {
        Err(StoreError::Corrupt(format!(
            "shard catalog drift: shard file lists [{}], catalog expects [{}]",
            local
                .iter()
                .map(|d| d.meta.name.as_str())
                .collect::<Vec<_>>()
                .join(", "),
            owned
                .iter()
                .map(|&di| catalog.datasets[di].meta.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        )))
    }
}

/// Opens and catalog-verifies one shard file, wrapping any failure —
/// missing file, truncation, corruption, catalog drift — into the typed
/// [`StoreError::ShardUnavailable`] the degradation contract promises.
fn open_shard(
    catalog: &ShardCatalog,
    catalog_path: &Path,
    shard: usize,
    backend: SourceBackend,
) -> Result<Store> {
    Store::open_with_backend(catalog.shard_path(catalog_path, shard), backend)
        .and_then(|store| {
            verify_shard_catalog(catalog, shard, &store)?;
            Ok(store)
        })
        .map_err(|e| StoreError::ShardUnavailable {
            shard,
            file: catalog.files[shard].clone(),
            reason: e.to_string(),
        })
}

/// One shard's serving state after a degraded open.
#[derive(Debug)]
enum ShardSlot {
    /// The shard opened and its catalog matches; it serves queries.
    /// Boxed: a `LazyIndex` is much larger than the failure record, and
    /// the slot vector holds one entry per shard either way.
    Available(Box<LazyIndex>),
    /// The shard failed to open (or its catalog drifted); queries touching
    /// it fail with [`StoreError::ShardUnavailable`], repeatably.
    Unavailable {
        /// Rendered open error, replayed into every rejection.
        reason: String,
    },
}

/// A sharded store opened for demand-paged serving: the shard catalog plus
/// one [`LazyIndex`] per *available* shard. Shards that failed to open are
/// recorded, not fatal — see the module docs for the degradation contract.
#[derive(Debug)]
pub struct ShardedLazy {
    catalog: ShardCatalog,
    slots: Vec<ShardSlot>,
    /// The session's load filter (applied per shard at pin time).
    filter: LoadFilter,
    /// Global catalog index → shard-local *segment directory* positions,
    /// ascending — precomputed so pinning assembles entries in global
    /// (monolith-directory) order without rescanning manifests.
    segs_of: Vec<Vec<usize>>,
}

impl ShardedLazy {
    /// Opens a sharded store for lazy serving. Shard files that fail to
    /// open — missing, truncated, corrupt, or with a drifted catalog — are
    /// recorded as unavailable; everything else serves. Fails outright
    /// only when the catalog itself is unreadable, a filter names an
    /// unknown data set, or *no* shard is available (there is nothing to
    /// serve, not even geometry).
    pub fn open(
        path: impl AsRef<Path>,
        filter: &LoadFilter,
        backend: SourceBackend,
    ) -> Result<Self> {
        let path = path.as_ref();
        let catalog = ShardCatalog::read(path)?;
        if let Some(names) = &filter.datasets {
            for name in names {
                catalog.dataset_index(name)?;
            }
        }
        let mut slots = Vec::with_capacity(catalog.n_shards());
        let mut segs_of: Vec<Vec<usize>> = vec![Vec::new(); catalog.datasets.len()];
        for s in 0..catalog.n_shards() {
            let owned = catalog.datasets_of_shard(s);
            let opened =
                Store::open_with_backend(catalog.shard_path(path, s), backend).and_then(|store| {
                    verify_shard_catalog(&catalog, s, &store)?;
                    // Narrow the global filter to this shard's own names;
                    // an empty intersection admits nothing (but the shard
                    // still opens — availability is about file health).
                    let local_filter = LoadFilter {
                        datasets: filter.datasets.as_ref().map(|names| {
                            names
                                .iter()
                                .filter(|n| {
                                    owned
                                        .iter()
                                        .any(|&di| catalog.datasets[di].meta.name == **n)
                                })
                                .cloned()
                                .collect()
                        }),
                        resolutions: filter.resolutions.clone(),
                    };
                    LazyIndex::new_sharded(store, &local_filter, owned.clone(), shard_obs(s))
                });
            match opened {
                Ok(lazy) => {
                    for (i, info) in lazy.store().manifest().segments.iter().enumerate() {
                        segs_of[owned[info.dataset_index]].push(i);
                    }
                    slots.push(ShardSlot::Available(Box::new(lazy)));
                }
                Err(e) => slots.push(ShardSlot::Unavailable {
                    reason: e.to_string(),
                }),
            }
        }
        if !slots.iter().any(|s| matches!(s, ShardSlot::Available(_))) {
            let reason = match &slots[0] {
                ShardSlot::Unavailable { reason } => reason.clone(),
                ShardSlot::Available(_) => unreachable!("no shard is available"),
            };
            return Err(StoreError::ShardUnavailable {
                shard: 0,
                file: catalog.files[0].clone(),
                reason,
            });
        }
        Ok(Self {
            catalog,
            slots,
            filter: filter.clone(),
            segs_of,
        })
    }

    /// The shard catalog (global data sets, assignment, file names).
    pub fn shard_catalog(&self) -> &ShardCatalog {
        &self.catalog
    }

    /// The global data set catalog.
    pub fn catalog(&self) -> &[DatasetEntry] {
        &self.catalog.datasets
    }

    /// Per-shard availability: `None` when the shard serves, or the
    /// recorded open-failure reason.
    pub fn unavailable_reason(&self, shard: usize) -> Option<&str> {
        match &self.slots[shard] {
            ShardSlot::Available(_) => None,
            ShardSlot::Unavailable { reason } => Some(reason),
        }
    }

    /// Number of shards in the layout (available or not).
    pub fn n_shards(&self) -> usize {
        self.slots.len()
    }

    /// Total bytes fetched across every available shard's byte source.
    pub fn bytes_fetched(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| match s {
                ShardSlot::Available(lazy) => lazy.store().source().bytes_fetched(),
                ShardSlot::Unavailable { .. } => 0,
            })
            .sum()
    }

    /// Loads the city geometry from the first available shard (every shard
    /// carries the identical blob).
    pub fn load_geometry(&self) -> Result<CityGeometry> {
        for slot in &self.slots {
            if let ShardSlot::Available(lazy) = slot {
                return lazy.store().load_geometry();
            }
        }
        unreachable!("open guarantees at least one available shard")
    }

    /// The typed rejection for one unavailable shard.
    fn unavailable(&self, shard: usize) -> StoreError {
        let reason = match &self.slots[shard] {
            ShardSlot::Unavailable { reason } => reason.clone(),
            ShardSlot::Available(_) => unreachable!("shard is available"),
        };
        StoreError::ShardUnavailable {
            shard,
            file: self.catalog.files[shard].clone(),
            reason,
        }
    }

    /// Faults in every admitted segment any of `queries` can touch, in
    /// **global directory order** — data sets in global catalog order,
    /// segments in shard-directory order within each data set — which is
    /// exactly the monolithic store's directory order. The entries back an
    /// [`polygamy_core::IndexView`], so sharded output is byte-identical
    /// to the monolith's for any shard count.
    ///
    /// A query whose footprint touches an unavailable shard is rejected
    /// with [`StoreError::ShardUnavailable`] before any evaluation; clean
    /// shards keep serving every query that avoids the broken one.
    pub fn pin_for(&self, queries: &[RelationshipQuery]) -> Result<Vec<Arc<FunctionEntry>>> {
        let n = self.catalog.datasets.len();
        // Which queries touch each global data set (clauses differ, so the
        // resolution check below is per touching query).
        let mut touched_by: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (qi, query) in queries.iter().enumerate() {
            for di in query_datasets(&self.catalog.datasets, query)? {
                touched_by[di].push(qi);
            }
        }
        let mut pinned = Vec::new();
        for (di, touching) in touched_by.iter().enumerate() {
            if touching.is_empty() {
                continue;
            }
            let s = self.catalog.shard_of[di];
            let lazy = match &self.slots[s] {
                ShardSlot::Available(lazy) => lazy,
                ShardSlot::Unavailable { .. } => return Err(self.unavailable(s)),
            };
            let manifest = lazy.store().manifest();
            for &seg in &self.segs_of[di] {
                let info = &manifest.segments[seg];
                if !self.filter.admits(info, &manifest.datasets) {
                    continue;
                }
                let wanted = touching
                    .iter()
                    .any(|&qi| queries[qi].clause.admits_resolution(info.resolution));
                if wanted {
                    pinned.push(lazy.entry(seg)?);
                }
            }
        }
        Ok(pinned)
    }

    /// Reads and checksum-verifies every admitted segment of every shard
    /// (the sharded `inspect --verify`). Unavailable shards fail the
    /// verification with their recorded reason. Returns segments checked.
    pub fn verify_all(&self) -> Result<usize> {
        let mut checked = 0;
        for (s, slot) in self.slots.iter().enumerate() {
            match slot {
                ShardSlot::Available(lazy) => checked += lazy.verify_all()?,
                ShardSlot::Unavailable { .. } => return Err(self.unavailable(s)),
            }
        }
        Ok(checked)
    }
}

/// A sharded store opened for **eager** loading: every shard the filter
/// touches must be available, and every admitted segment is read, verified
/// and decoded up front — the sharded twin of
/// [`Store::load_filtered`](crate::store::Store::load_filtered).
pub fn load_sharded_eager(
    path: impl AsRef<Path>,
    filter: &LoadFilter,
) -> Result<(ShardCatalog, CityGeometry, PolygamyIndex, u64)> {
    let path = path.as_ref();
    let catalog = ShardCatalog::read(path)?;
    if let Some(names) = &filter.datasets {
        for name in names {
            catalog.dataset_index(name)?;
        }
    }
    // Open each shard the filter admits at least one data set of. Eager
    // semantics: any failure in the admitted set fails the whole open —
    // shards the filter never touches may be missing or corrupt.
    let mut stores: Vec<Option<Store>> = Vec::with_capacity(catalog.n_shards());
    for s in 0..catalog.n_shards() {
        let needed = catalog.datasets_of_shard(s).iter().any(|&di| {
            filter
                .datasets
                .as_ref()
                .is_none_or(|names| names.iter().any(|n| catalog.datasets[di].meta.name == *n))
        });
        stores.push(if needed {
            Some(open_shard(&catalog, path, s, SourceBackend::default())?)
        } else {
            None
        });
    }
    // Geometry must come from somewhere even when the filter admits no
    // segments at all: fall back to the first shard that opens.
    if stores.iter().all(|o| o.is_none()) {
        let mut first_err = None;
        for (s, slot) in stores.iter_mut().enumerate() {
            match open_shard(&catalog, path, s, SourceBackend::default()) {
                Ok(store) => {
                    *slot = Some(store);
                    break;
                }
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        if stores.iter().all(|o| o.is_none()) {
            return Err(first_err
                .unwrap_or_else(|| StoreError::Corrupt("sharded store has no shards".into())));
        }
    }

    let geometry = stores
        .iter()
        .flatten()
        .next()
        .expect("at least one shard opened above")
        .load_geometry()?;

    // Decode admitted segments with *global* data set indices, assembling
    // in global directory order (data sets ascending, shard-directory
    // order within each) — the monolith's canonical order.
    let mut functions: Vec<FunctionEntry> = Vec::new();
    for di in 0..catalog.datasets.len() {
        let name = &catalog.datasets[di].meta.name;
        let admitted = filter
            .datasets
            .as_ref()
            .is_none_or(|names| names.iter().any(|n| n == name));
        if !admitted {
            continue;
        }
        let s = catalog.shard_of[di];
        let store = stores[s].as_ref().expect("admitted shards were opened");
        let li = catalog.local_index(di);
        for info in &store.manifest().segments {
            if info.dataset_index != li {
                continue;
            }
            if !filter
                .resolutions
                .as_ref()
                .is_none_or(|rs| rs.contains(&info.resolution))
            {
                continue;
            }
            let what = format!("segment {name}.{}", info.function);
            let bytes = store.source().read(info.loc, &what)?;
            functions.push(decode_function_segment(&bytes, di, &what)?);
        }
    }

    // Account the one-shot load on the per-shard byte counters.
    let mut total = 0;
    for (s, store) in stores.iter().enumerate() {
        if let Some(store) = store {
            let fetched = store.source().bytes_fetched();
            shard_obs(s).bytes_fetched.add(fetched);
            total += fetched;
        }
    }
    let index = PolygamyIndex {
        datasets: catalog.datasets.clone(),
        functions,
    };
    Ok((catalog, geometry, index, total))
}

/// Adds or replaces one data set in a sharded store, rewriting **exactly
/// one shard file** (plus the small catalog file) — the sharded twin of
/// [`Store::upsert_dataset`](crate::store::Store::upsert_dataset). A new
/// data set goes to the least-loaded shard (ties to the lowest index).
pub fn upsert_dataset_sharded(
    catalog_path: impl AsRef<Path>,
    dataset: &Dataset,
    config: &Config,
) -> Result<ShardCatalog> {
    let catalog_path = catalog_path.as_ref();
    let mut catalog = ShardCatalog::read(catalog_path)?;
    let name = dataset.meta.name.as_str();
    let (target, shard) = match catalog.dataset_index(name) {
        Ok(di) => (di, catalog.shard_of[di]),
        Err(_) => {
            let shard = (0..catalog.n_shards())
                .min_by_key(|&s| catalog.datasets_of_shard(s).len())
                .expect("catalog has at least one shard");
            (catalog.datasets.len(), shard)
        }
    };
    let shard_file = catalog.shard_path(catalog_path, shard);
    let store = open_shard(&catalog, catalog_path, shard, SourceBackend::default())?;
    let geometry = store.load_geometry()?;
    let is_new = target == catalog.datasets.len();
    let local_target = if is_new {
        store.manifest().datasets.len()
    } else {
        catalog.local_index(target)
    };

    let (catalog_entry, entries, _stats) = index_dataset(config, &geometry, local_target, dataset);
    let fresh: SegmentGroup = entries
        .iter()
        .map(|entry| {
            (
                SegmentMeta {
                    function: entry.spec.name.clone(),
                    resolution: entry.resolution,
                },
                encode_function_segment(entry),
            )
        })
        .collect();

    let mut local_catalog = store.manifest().datasets.clone();
    let mut per_dataset = store.read_retained_segments(|li| li != local_target)?;
    if is_new {
        local_catalog.push(catalog_entry.clone());
        per_dataset.push(fresh);
    } else {
        local_catalog[local_target] = catalog_entry.clone();
        per_dataset[local_target] = fresh;
    }
    let geometry_bytes = store.read_geometry_bytes()?;
    drop(store);
    write_store(&shard_file, &geometry_bytes, local_catalog, per_dataset)?;

    if is_new {
        catalog.datasets.push(catalog_entry);
        catalog.shard_of.push(shard);
    } else {
        catalog.datasets[target] = catalog_entry;
    }
    catalog.write(catalog_path)?;
    Ok(catalog)
}

/// Removes one data set from a sharded store, rewriting exactly its owning
/// shard file (plus the catalog file). Later data sets keep their shards:
/// the assignment is explicit in the catalog, so removal never cascades.
pub fn remove_dataset_sharded(catalog_path: impl AsRef<Path>, name: &str) -> Result<ShardCatalog> {
    let catalog_path = catalog_path.as_ref();
    let mut catalog = ShardCatalog::read(catalog_path)?;
    let target = catalog.dataset_index(name)?;
    let shard = catalog.shard_of[target];
    let local_target = catalog.local_index(target);
    let shard_file = catalog.shard_path(catalog_path, shard);
    let store = open_shard(&catalog, catalog_path, shard, SourceBackend::default())?;
    let mut local_catalog = store.manifest().datasets.clone();
    local_catalog.remove(local_target);
    let mut per_dataset = store.read_retained_segments(|li| li != local_target)?;
    per_dataset.remove(local_target);
    let geometry_bytes = store.read_geometry_bytes()?;
    drop(store);
    write_store(&shard_file, &geometry_bytes, local_catalog, per_dataset)?;

    catalog.datasets.remove(target);
    catalog.shard_of.remove(target);
    catalog.write(catalog_path)?;
    Ok(catalog)
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
