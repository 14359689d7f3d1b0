//! Demand-paged index serving: fault in only the segments a query touches.
//!
//! A [`LazyIndex`] is the one segment-paging type behind every session.
//! It owns the **global** data set catalog, the store *files* behind it —
//! one for a monolith, one per shard for a sharded store
//! ([`crate::shard`]); a monolith simply is the one-shard case — and one
//! flat segment directory in global (= monolith) order. It opens in
//! O(header + manifest) per file and materializes function segments on
//! first touch:
//!
//! * **hot blobs by default, field blobs by clause** — a directory entry
//!   names two checksummed blobs ([`crate::format::SegmentInfo`]): the hot
//!   one (features, thresholds, shape) every query over the function
//!   reads, and the scalar field only `thresholds` clauses read. A fault
//!   fetches the field blob only for data sets the query's `thresholds`
//!   clause names; every other fault never touches field bytes;
//! * **pair-exact faulting** — before evaluation, the executor's plan
//!   ([`polygamy_core::query_pairs`]) names the data set pairs a query
//!   evaluates; for each pair, only the segments of either side at a
//!   resolution the *other* side also has — and the clause's resolution
//!   filter
//!   ([`Clause::admits_resolution`](polygamy_core::query::Clause::admits_resolution))
//!   admits — are read. Task expansion pairs only entries sharing a
//!   resolution, so a segment outside that set can never appear in a task:
//!   a weekly city-wide series against an hourly neighbourhood data set
//!   reads the one (week, city) blob of each side, not the hourly ones.
//!   The bound is exact in data set × resolution and still loose in time:
//!   two entries at a shared resolution whose time windows do not overlap
//!   are read and then skipped by the executor (the windows are in the
//!   blobs, not in the directory). `store.pin.segments` and
//!   `store.pin.skipped` in a query's trace say what a pin read and what
//!   naming the data sets alone would have added;
//! * **once-only verification** — each blob's checksum is checked on
//!   *first* access and the verdict is recorded in an atomic per-blob
//!   cell (two per directory entry). Re-faults after LRU eviction skip
//!   re-hashing (the pinned source revision is immutable — see
//!   [`crate::source`]), and a recorded failure keeps failing without
//!   re-reading, so a corrupt blob can never slip past verification
//!   through a concurrent re-fault. A corrupt *field* blob fails only the
//!   queries that need that field;
//! * **bounded decode cache** — decoded [`FunctionEntry`]s live in the
//!   same sharded bounded-LRU structure the query cache uses, keyed by
//!   global directory position, so sustained traffic over a huge corpus
//!   keeps memory flat. An entry cached with its field serves field-less
//!   pins too; one cached without it is re-faulted with it when a
//!   `thresholds` clause asks. The bound
//!   ([`DEFAULT_SEGMENT_CACHE_CAPACITY`]) is per index — per *session*,
//!   however many shard files back it;
//! * **degraded files** — a shard file that fails to open (missing,
//!   truncated, corrupt, catalog drift) is recorded, not fatal: a query
//!   whose footprint touches it is rejected at pin time with
//!   [`StoreError::ShardUnavailable`], repeatably, while every other query
//!   keeps serving. A monolith's one file must open, so its open errors
//!   propagate unchanged.
//!
//! Corruption surfaces *at query time*, only for queries whose footprint
//! touches the corrupt segment — opening the store and querying other data
//! sets, or the same data set against a partner that lacks the segment's
//! resolution, still succeeds. That is the deliberate trade against an
//! eager session, which at open reads and verifies both blobs of every
//! entry of the same directory, decodes the hot one and walks the
//! field one's tokens with every check a decode makes
//! ([`crate::codec::validate_field`]) — never through the cache — and
//! afterwards comes back here only for the scalar fields a `thresholds`
//! clause reads, faulted like any lazy pin.

use crate::codec::{decode_function_segment, validate_field};
use crate::error::{Result, StoreError};
use crate::format::{BlobLoc, SegmentInfo};
use crate::shard::{is_sharded, open_shard_file, ShardCatalog};
use crate::source::SegmentSource;
use crate::store::Store;
use polygamy_core::index::{DatasetEntry, FunctionEntry, PolygamyIndex};
use polygamy_core::query::RelationshipQuery;
use polygamy_core::{query_pairs, CityGeometry, ShardedLruCache};
use polygamy_obs::{count, names, Counter};
use polygamy_stdata::Resolution;
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// Default bound on decoded segments held in memory, per index. Entries
/// are a few KB to a few hundred KB each; 1024 keeps typical working sets
/// fully resident while bounding memory on corpora far larger than RAM.
pub const DEFAULT_SEGMENT_CACHE_CAPACITY: usize = 1_024;

/// Per-blob verification verdict (values of the atomic cells).
const UNVERIFIED: u8 = 0;
const VERIFIED_OK: u8 = 1;
const VERIFIED_BAD: u8 = 2;

/// One store file that opened, with its per-file registry counters
/// (`store.shard.faults.<i>` / `store.shard.bytes_fetched.<i>` — a
/// monolith is shard 0), whose names are made once, at open.
#[derive(Debug)]
struct OpenFile {
    store: Store,
    faults: Arc<Counter>,
    bytes_fetched: Arc<Counter>,
}

impl OpenFile {
    fn new(store: Store, shard: usize) -> Self {
        let r = polygamy_obs::global();
        Self {
            store,
            faults: r.counter(&format!("{}{shard}", names::STORE_SHARD_FAULTS_PREFIX)),
            bytes_fetched: r.counter(&format!(
                "{}{shard}",
                names::STORE_SHARD_BYTES_FETCHED_PREFIX
            )),
        }
    }
}

/// One segment of the global directory.
#[derive(Debug)]
struct DirEntry {
    /// Index of the (open) file holding the segment.
    file: usize,
    /// Position in that file's own segment directory.
    local: usize,
    /// *Global* catalog index of the owning data set: a shard file numbers
    /// its data sets locally, but decoded entries must carry the global
    /// index so expansion sees the monolithic catalog.
    dataset: usize,
    /// The segment's resolution, as its one bit of a [`ResolutionSet`].
    resolution: ResolutionSet,
}

/// A set of resolutions, one bit each: the wire codes of the two halves
/// ([`polygamy_stdata::SpatialResolution::code`] and its temporal twin, 0–3
/// both) span sixteen.
type ResolutionSet = u16;

fn resolution_bit(r: Resolution) -> ResolutionSet {
    1 << (4 * r.spatial.code() + r.temporal.code())
}

/// How [`LazyIndex::read_entry`] treats an entry's field blob.
enum Read {
    /// A lazy fault: the hot blob, and the field blob — decoded into the
    /// entry — when asked for and present.
    Fault { with_field: bool },
    /// The eager open: the hot blob, and the field blob read, verified and
    /// validated ([`validate_field`]) but left encoded.
    Open,
}

/// A store — monolithic or sharded — served segment-by-segment on demand.
/// See the module docs for the faulting, verification, caching and
/// degradation contract.
#[derive(Debug)]
pub struct LazyIndex {
    /// Global catalog, data set → file assignment and file names; a
    /// monolith gets the trivial one-file layout.
    catalog: ShardCatalog,
    /// Per file: the open store, or the recorded open-failure reason.
    files: Vec<std::result::Result<OpenFile, String>>,
    /// Every segment of every open file in global directory order — data
    /// sets in global catalog order, file-directory order within each —
    /// which is exactly the monolithic store's directory order.
    directory: Vec<DirEntry>,
    /// Per data set: the resolutions its segments exist at — what a pair's
    /// two sides are intersected over at pin time. Empty for a data set
    /// whose file did not open.
    resolutions: Vec<ResolutionSet>,
    /// Per-directory-entry checksum verdicts, `[hot blob, field blob]`:
    /// unverified / ok / bad.
    verified: Vec<[AtomicU8; 2]>,
    /// Decoded segments keyed by global directory position.
    cache: ShardedLruCache<usize, Arc<FunctionEntry>>,
}

impl LazyIndex {
    /// Opens the store at `path` for demand-paged serving, sniffing the
    /// file magic — callers never say which kind they hold. A monolith
    /// must open (errors propagate). A shard catalog opens *degraded*:
    /// shard files that fail to open are recorded as unavailable and
    /// everything else serves; the open fails outright only when the
    /// catalog itself is unreadable or *no* shard is available (there is
    /// nothing to serve, not even geometry).
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        if !is_sharded(path)? {
            return Self::new(Store::open(path)?);
        }
        let catalog = ShardCatalog::read(path)?;
        let stores = (0..catalog.n_shards())
            .map(|s| open_shard_file(&catalog, path, s).map_err(|e| e.to_string()))
            .collect();
        Self::assemble(catalog, stores)
    }

    /// Wraps an open monolithic store: the one-file case. Reads nothing
    /// beyond what `store` already read (header + manifest).
    pub fn new(store: Store) -> Result<Self> {
        let datasets = store.manifest().datasets.clone();
        let file = store.path().file_name().unwrap_or_default();
        let catalog = ShardCatalog {
            shard_of: vec![0; datasets.len()],
            datasets,
            files: vec![file.to_string_lossy().into_owned()],
        };
        Self::assemble(catalog, vec![Ok(store)])
    }

    fn assemble(
        catalog: ShardCatalog,
        stores: Vec<std::result::Result<Store, String>>,
    ) -> Result<Self> {
        let mut directory = Vec::new();
        let mut resolutions = vec![0; catalog.datasets.len()];
        let mut files = Vec::with_capacity(stores.len());
        for (s, opened) in stores.into_iter().enumerate() {
            files.push(opened.map(|store| {
                let owned = catalog.datasets_of_shard(s);
                for (local, info) in store.manifest().segments.iter().enumerate() {
                    let entry = DirEntry {
                        file: s,
                        local,
                        dataset: owned[info.dataset_index],
                        resolution: resolution_bit(info.resolution),
                    };
                    resolutions[entry.dataset] |= entry.resolution;
                    directory.push(entry);
                }
                OpenFile::new(store, s)
            }));
        }
        // Stable: file-directory order survives within each data set, and a
        // monolith's directory (already grouped by data set) is unchanged.
        directory.sort_by_key(|e| e.dataset);
        let index = Self {
            verified: directory
                .iter()
                .map(|_| [UNVERIFIED, UNVERIFIED].map(AtomicU8::new))
                .collect(),
            cache: ShardedLruCache::new(DEFAULT_SEGMENT_CACHE_CAPACITY),
            catalog,
            files,
            directory,
            resolutions,
        };
        if index.files.iter().all(|f| f.is_err()) {
            index.file(0)?;
        }
        Ok(index)
    }

    /// File `shard` if it opened, else the typed rejection replaying its
    /// recorded open failure.
    fn file(&self, shard: usize) -> Result<&OpenFile> {
        self.files[shard]
            .as_ref()
            .map_err(|reason| StoreError::ShardUnavailable {
                shard,
                file: self.catalog.files[shard].clone(),
                reason: reason.clone(),
            })
    }

    /// Rejects with [`StoreError::ShardUnavailable`] when any of the
    /// (global) `datasets` lives in a file that failed to open.
    fn require_files_of(&self, datasets: impl IntoIterator<Item = usize>) -> Result<()> {
        for di in datasets {
            self.file(self.catalog.shard_of[di])?;
        }
        Ok(())
    }

    /// Resolves one directory entry to its file and the file's own
    /// directory record.
    fn locate(&self, entry: &DirEntry) -> Result<(&OpenFile, &SegmentInfo)> {
        let file = self.file(entry.file)?;
        Ok((file, &file.store.manifest().segments[entry.local]))
    }

    /// The global data set catalog (always fully resident).
    pub fn catalog(&self) -> &[DatasetEntry] {
        &self.catalog.datasets
    }

    /// The file layout: global data sets, data set → file assignment and
    /// file names (one file, owning everything, for a monolith).
    pub fn shard_catalog(&self) -> &ShardCatalog {
        &self.catalog
    }

    /// Per-file availability: `None` when file `shard` serves, or its
    /// recorded open-failure reason.
    pub fn unavailable_reason(&self, shard: usize) -> Option<&str> {
        self.files[shard].as_ref().err().map(String::as_str)
    }

    /// Total bytes fetched across every open file's byte source.
    pub fn bytes_fetched(&self) -> u64 {
        self.files
            .iter()
            .flatten()
            .map(|f| f.store.source().bytes_fetched())
            .sum()
    }

    /// Loads the city geometry from the first open file (every shard
    /// carries the identical blob).
    pub fn load_geometry(&self) -> Result<CityGeometry> {
        self.files
            .iter()
            .flatten()
            .next()
            .expect("open guarantees at least one available file")
            .store
            .load_geometry()
    }

    /// Faults in every segment any of `queries` can touch,
    /// returning the decoded entries in directory (canonical) order.
    ///
    /// This is the serving path's page-in step: the returned entries back
    /// an [`polygamy_core::IndexView`] whose expansion order — and
    /// therefore whose output — is byte-identical to an eager load's and
    /// the same for any shard count, because all enumerate the one global
    /// directory in order. What a query can touch is, for each of its
    /// pairs ([`query_pairs`]), the segments of either side at a resolution
    /// the clause admits and the *other* side also has; entries of data
    /// sets the query's `thresholds` clause names come with their scalar
    /// field (its only reader is the operator's threshold override), all
    /// others are pinned field-less.
    ///
    /// A batch naming a data set in an unavailable file is rejected with
    /// [`StoreError::ShardUnavailable`] before anything is read or
    /// evaluated; every batch that avoids the broken file keeps serving.
    pub fn pin_for(&self, queries: &[RelationshipQuery]) -> Result<Vec<Arc<FunctionEntry>>> {
        let footprint = self.footprint(queries)?;
        let mut hits = 0;
        let pinned = (footprint.iter().enumerate())
            .filter_map(|(i, n)| n.map(|with_field| self.entry(i, with_field, &mut hits)))
            .collect();
        count(names::STORE_SEGMENT_CACHE_HITS, hits);
        pinned
    }

    /// What an eager session adds to its resident hot-only entries for
    /// `queries`: per segment, in [`LazyIndex::load`]'s order, the
    /// entry with its scalar field where a `thresholds` clause of the batch
    /// can reach it — faulted like any lazy pin, through the same verdicts
    /// and the same bounded decode cache.
    pub(crate) fn pin_fields_for(
        &self,
        queries: &[RelationshipQuery],
    ) -> Result<Vec<Option<Arc<FunctionEntry>>>> {
        let footprint = self.footprint(queries)?;
        let mut hits = 0;
        let pinned = (footprint.iter().enumerate())
            .map(|(i, n)| match n {
                Some(true) => self.entry(i, true, &mut hits).map(Some),
                _ => Ok(None),
            })
            .collect();
        count(names::STORE_SEGMENT_CACHE_HITS, hits);
        pinned
    }

    /// Per directory entry: `None` when no query of the batch can reach
    /// it, else whether one of them needs its scalar field. Checks shard
    /// availability for every data set the batch names, pair or no pair.
    fn footprint(&self, queries: &[RelationshipQuery]) -> Result<Vec<Option<bool>>> {
        let datasets = &self.catalog.datasets;
        // Per data set, the resolutions to pin, those among them to pin
        // with the field, and those that naming the data set alone — the
        // bound before pairs were looked at — would have pinned.
        let mut pinned: Vec<ResolutionSet> = vec![0; datasets.len()];
        let mut with_field = pinned.clone();
        let mut named = pinned.clone();
        for query in queries {
            let pairs = query_pairs(datasets, query)?;
            let admitted = match &query.clause.resolutions {
                None => ResolutionSet::MAX,
                Some(list) => list.iter().fold(0, |set, &r| set | resolution_bit(r)),
            };
            for collection in [&query.left, &query.right] {
                let named_here: Vec<usize> = match collection {
                    None => (0..datasets.len()).collect(),
                    // Unknown names did not get past `query_pairs`.
                    Some(list) => (list.iter())
                        .filter_map(|name| self.catalog.dataset_index(name).ok())
                        .collect(),
                };
                self.require_files_of(named_here.iter().copied())?;
                for di in named_here {
                    named[di] |= self.resolutions[di] & admitted;
                }
            }
            let overridden: Vec<usize> = (query.clause.thresholds.iter())
                .filter_map(|t| self.catalog.dataset_index(&t.dataset).ok())
                .collect();
            for (a, b) in pairs {
                let shared = self.resolutions[a] & self.resolutions[b] & admitted;
                for di in [a, b] {
                    pinned[di] |= shared;
                    if overridden.contains(&di) {
                        with_field[di] |= shared;
                    }
                }
            }
        }
        let footprint: Vec<Option<bool>> = (self.directory.iter())
            .map(|e| {
                (pinned[e.dataset] & e.resolution != 0)
                    .then_some(with_field[e.dataset] & e.resolution != 0)
            })
            .collect();
        let n_pinned = footprint.iter().flatten().count() as u64;
        let n_named = (self.directory.iter())
            .filter(|e| named[e.dataset] & e.resolution != 0)
            .count() as u64;
        count(names::STORE_PIN_SEGMENTS, n_pinned);
        count(names::STORE_PIN_SKIPPED, n_named - n_pinned);
        Ok(footprint)
    }

    /// Faults in one segment by global directory position: cache hit, or
    /// read + (first time only) verify + decode + insert. The field blob
    /// is fetched only when `with_field` asks and the entry has one. A hit
    /// adds one to `hits`, which the pin counts once: a warm pair pins
    /// dozens of segments, and a registry lookup per hit would be most of
    /// a cached request's instrumentation.
    fn entry(
        &self,
        seg_index: usize,
        with_field: bool,
        hits: &mut u64,
    ) -> Result<Arc<FunctionEntry>> {
        let entry = &self.directory[seg_index];
        let (file, info) = self.locate(entry)?;
        let with_field = with_field && info.field.is_some();
        if let Some(hit) = self.cache.get(&seg_index) {
            // An entry cached with its field is a superset of a field-less
            // one; the reverse is re-faulted below and replaces it.
            if !with_field || hit.field.is_some() {
                *hits += 1;
                return Ok(hit);
            }
        }
        count(names::STORE_SEGMENT_FAULTS, 1);
        file.faults.inc();
        let decoded = Arc::new(self.read_entry(seg_index, Read::Fault { with_field })?);
        let evicted = self.cache.insert(seg_index, Arc::clone(&decoded));
        count(names::STORE_SEGMENT_EVICTIONS, u64::from(evicted));
        Ok(decoded)
    }

    /// The one "read → verify → decode a directory entry" step behind
    /// lazy faults and the eager open alike ([`Read`] says which, and what
    /// becomes of the field blob). Only faults bump the fault and
    /// verification counters, so an eager open leaves them describing
    /// demand paging.
    fn read_entry(&self, seg_index: usize, read: Read) -> Result<FunctionEntry> {
        let entry = &self.directory[seg_index];
        let (file, info) = self.locate(entry)?;
        let what = file.store.segment_label(info);
        let [hot_verdict, field_verdict] = &self.verified[seg_index];
        let faulting = matches!(read, Read::Fault { .. });
        let hot = read_blob(file, info.loc, hot_verdict, &what, faulting)?;
        let wanted = !matches!(read, Read::Fault { with_field: false });
        let Some(loc) = info.field.filter(|_| wanted) else {
            return decode_function_segment(&hot, None, entry.dataset, &what);
        };
        let field_what = format!("{what} field");
        let field = read_blob(file, loc, field_verdict, &field_what, faulting)?;
        count(names::STORE_FIELD_BYTES_FETCHED, loc.len);
        if faulting {
            count(names::STORE_FIELD_FAULTS, 1);
            return decode_function_segment(&hot, Some(&field), entry.dataset, &what);
        }
        let decoded = decode_function_segment(&hot, None, entry.dataset, &what)?;
        validate_field(&field, decoded.n_regions * decoded.n_steps, &field_what)?;
        Ok(decoded)
    }

    /// The eager open: reads and verifies both blobs of every segment, in
    /// directory order, decoding the hot blob and checking the field blob's
    /// structure without decoding it ([`Read::Open`]) — never through the
    /// cache (an eager index must not be held twice). The entries come back
    /// field-less: a session serves `thresholds` clauses through
    /// [`LazyIndex::pin_fields_for`]. Every file must be available.
    pub(crate) fn load(&self) -> Result<PolygamyIndex> {
        let datasets = &self.catalog.datasets;
        self.require_files_of(0..datasets.len())?;
        let functions = (0..self.directory.len())
            .map(|i| self.read_entry(i, Read::Open))
            .collect::<Result<_>>()?;
        Ok(PolygamyIndex {
            datasets: datasets.clone(),
            functions,
        })
    }

    /// Reads and checksum-verifies both blobs of every segment
    /// (and every file's geometry blob) without decoding or caching — the
    /// force-check behind `polygamy-store inspect --verify`. An
    /// unavailable file fails the verification with its recorded reason.
    /// Returns the number of segments (function entries) checked.
    pub fn verify_all(&self) -> Result<usize> {
        for shard in 0..self.files.len() {
            let store = &self.file(shard)?.store;
            let geometry = store.manifest().geometry;
            store.source().read(geometry, "geometry").map(drop)?;
        }
        let mut checked = 0;
        for (entry, verdicts) in self.directory.iter().zip(&self.verified) {
            let (file, info) = self.locate(entry)?;
            let what = file.store.segment_label(info);
            let source = file.store.source();
            source.read(info.loc, &what).map(drop)?;
            if let Some(loc) = info.field {
                source.read(loc, &format!("{what} field")).map(drop)?;
            }
            for verdict in verdicts {
                // ordering: Release — publishes this force-check's verdict
                // to the Acquire loads on the fault path.
                verdict.store(VERIFIED_OK, Ordering::Release);
            }
            checked += 1;
        }
        Ok(checked)
    }
}

/// Fetches one blob of `file` under the once-only verification contract:
/// a recorded failure keeps failing without touching the disk (no
/// concurrent re-fault may decode bytes a previous fault saw fail), the
/// first fetch verifies and records its verdict, later ones skip the hash.
fn read_blob(
    file: &OpenFile,
    loc: BlobLoc,
    verdict: &AtomicU8,
    what: &str,
    faulting: bool,
) -> Result<Vec<u8>> {
    // ordering: Acquire pairs with the Release stores below — a thread
    // that reads a verdict also sees the verification that produced it.
    if verdict.load(Ordering::Acquire) == VERIFIED_BAD {
        return Err(StoreError::ChecksumMismatch { what: what.into() });
    }
    let bytes = file.store.source().fetch(loc, what)?;
    file.bytes_fetched.add(loc.len);
    // ordering: Acquire — same pairing as the verdict check above.
    if verdict.load(Ordering::Acquire) == UNVERIFIED {
        if faulting {
            count(names::STORE_CHECKSUM_VERIFICATIONS, 1);
        }
        match SegmentSource::verify(&bytes, loc, what) {
            // ordering: Release publishes the verdict (and the checksum
            // work that justifies it) to every later Acquire load.
            Ok(()) => verdict.store(VERIFIED_OK, Ordering::Release),
            Err(e) => {
                if faulting {
                    count(names::STORE_CHECKSUM_FAILURES, 1);
                }
                // ordering: Release — sticky failure published the same way.
                verdict.store(VERIFIED_BAD, Ordering::Release);
                return Err(e);
            }
        }
    }
    Ok(bytes)
}
