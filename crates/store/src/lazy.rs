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
//! * **hot blobs by default, field blobs by clause** — a directory record
//!   ([`crate::format::SegmentInfo`]) says what a segment is (data set,
//!   function, kind, resolution, window) and names two checksummed blobs:
//!   the hot one (the features) every query over the function reads, and
//!   the scalar field only `thresholds` clauses read. A fault
//!   fetches the field blob only for data sets the query's `thresholds`
//!   clause names; every other fault never touches field bytes;
//! * **pair-exact faulting** — before evaluation, the executor's plan
//!   ([`polygamy_core::QueryPlan`]) names the data set pairs a batch
//!   evaluates and splits off those the query cache answers; for each
//!   pair that missed, only the segments of either side at a
//!   resolution the *other* side also has — and the clause's resolution
//!   filter
//!   ([`Clause::admits_resolution`](polygamy_core::query::Clause::admits_resolution))
//!   admits — are read. Task expansion pairs only entries sharing a
//!   resolution, so a segment outside that set can never appear in a task:
//!   a weekly city-wide series against an hourly neighbourhood data set
//!   reads the one (week, city) blob of each side, not the hourly ones.
//!   The bound is exact in data set × resolution and still loose in time:
//!   two entries at a shared resolution whose time windows do not overlap
//!   are read and then skipped by the executor (the pin does not read the
//!   directory's windows). A cached pair pins nothing.
//!   `store.pin.segments` and `store.pin.skipped` in a query's trace say
//!   what a pin read and what naming the missed pairs' data sets alone
//!   would have added;
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
//!   propagate unchanged; files that open must carry the same geometry
//!   blob (length and checksum), or the open fails;
//! * **names made at open** — a decoded entry, eager or faulted, holds its
//!   data set's one name `Arc` (made when the index opens) and its
//!   directory record's function name: a decode makes no name.
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
//!
//! The two whole-directory passes — the eager open (`LazyIndex::load`)
//! and [`LazyIndex::verify_all`] — run per segment on the index's worker
//! pool (`store::per_segment`): the session's `Config` cluster,
//! or the host's for an index opened on its own. Their failure is the
//! first failing segment in directory order, as a serial loop's was. A
//! lazy pin's misses stay on the calling thread, so the decode cache sees
//! them in directory order.

use crate::codec::{decode_function_segment, validate_field};
use crate::error::{Result, StoreError};
use crate::format::{BlobLoc, SegmentInfo};
use crate::shard::{is_sharded, open_shard_file, same_city, ShardCatalog};
use crate::source::SegmentSource;
use crate::store::{per_segment, segment_bytes, Store, COPY_PS_PER_BYTE, OPEN_PS_PER_BYTE};
use polygamy_core::index::{DatasetEntry, FunctionEntry, PolygamyIndex};
use polygamy_core::query::RelationshipQuery;
use polygamy_core::{CityGeometry, Error, QueryPlan, ShardedLruCache};
use polygamy_mapreduce::Cluster;
use polygamy_obs::{count, names, stage, Counter};
use polygamy_stdata::Resolution;
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// Default bound on decoded segments held in memory, per index. A
/// hot-only entry is its four feature vectors and about 300 bytes more —
/// on the benchmark's urban corpus (seed 7) 0.6 KB at the median, 12 KB on
/// average and 110 KB at most, 4.1 MB for all 338; on its 1,323-function
/// open corpus at most 1.7 KB — and one faulted with its field adds 8
/// bytes a vertex (up to 1.75 MB on the urban corpus). 1024 keeps typical
/// working sets fully resident while bounding memory on corpora far
/// larger than RAM.
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
    /// Per catalog data set, the one name `Arc` its decoded entries hold.
    names: Vec<Arc<str>>,
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
    /// The pool the whole-directory passes run on: the host's, until a
    /// session sets its own ([`LazyIndex::on`]).
    cluster: Cluster,
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
        if is_sharded(path)? {
            let catalog = ShardCatalog::read(path)?;
            let stores = (0..catalog.n_shards())
                .map(|s| open_shard_file(&catalog, path, s).map_err(|e| e.to_string()))
                .collect();
            return Self::assemble(catalog, stores);
        }
        // A monolith: the trivial one-file layout.
        let store = Store::open(path)?;
        let datasets = store.manifest().datasets.clone();
        let file = path.file_name().unwrap_or_default();
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
            names: (catalog.datasets.iter())
                .map(|d| d.meta.name.as_str().into())
                .collect(),
            verified: directory
                .iter()
                .map(|_| [UNVERIFIED, UNVERIFIED].map(AtomicU8::new))
                .collect(),
            cache: ShardedLruCache::new(DEFAULT_SEGMENT_CACHE_CAPACITY),
            cluster: Cluster::default(),
            catalog,
            files,
            directory,
            resolutions,
        };
        if index.files.iter().all(|f| f.is_err()) {
            index.file(0)?;
        }
        let mut open = index.files.iter().flatten();
        if let Some(first) = open.next() {
            open.try_for_each(|other| same_city(&first.store, &other.store))?;
        }
        Ok(index)
    }

    /// Runs this index's whole-directory passes ([`LazyIndex::load`],
    /// [`LazyIndex::verify_all`]) on `cluster`'s pool.
    pub(crate) fn on(self, cluster: Cluster) -> Self {
        Self { cluster, ..self }
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

    /// Per directory entry, its stored bytes (0 where its file is
    /// unavailable): what a whole-directory pass is estimated from.
    fn segment_sizes(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        (self.directory.iter()).map(|e| self.locate(e).map_or(0, |(_, info)| segment_bytes(info)))
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

    /// File `shard` of the layout ([`LazyIndex::shard_catalog`]) as it
    /// opened — header and manifest read — or its recorded open-failure
    /// reason.
    pub fn shard_file(&self, shard: usize) -> std::result::Result<&Store, &str> {
        self.files[shard]
            .as_ref()
            .map(|f| &f.store)
            .map_err(String::as_str)
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

    /// Faults in every segment any of `queries` can touch, as if nothing
    /// were cached — the page-in a session makes for a plan whose every
    /// pair missed the query cache — returning the decoded entries in
    /// directory (canonical) order. A batch naming a data set in an
    /// unavailable file is rejected with [`StoreError::ShardUnavailable`]
    /// before anything is read.
    pub fn pin_for(&self, queries: &[RelationshipQuery]) -> Result<Vec<Arc<FunctionEntry>>> {
        self.require_named(queries)?;
        let plan = QueryPlan::new(self.catalog(), None, queries)?;
        Ok(self.pin_plan(&plan, false)?.into_iter().flatten().collect())
    }

    /// Faults in, per directory entry, every segment the misses of `plan`
    /// can touch (`None` for the others) — or, `fields_only`, what an eager
    /// session adds to its resident hot-only entries: only those a
    /// `thresholds` clause of a miss reads.
    ///
    /// This is the serving path's page-in step: the entries back an
    /// [`polygamy_core::IndexView`] whose expansion order — and therefore
    /// whose output — is byte-identical to an eager load's and the same for
    /// any shard count, because all enumerate the one global directory in
    /// order. What a miss can touch is the segments of either side of its
    /// pair at a resolution its clause admits and the *other* side also
    /// has; entries of data sets the clause's `thresholds` names come with
    /// their scalar field (its only reader is the operator's threshold
    /// override), all others are pinned field-less — through the same
    /// verdicts and the same bounded decode cache, eager or lazy. A pair the
    /// query cache answered pins nothing, so a batch answered from the
    /// cache alone reads, faults and pins nothing.
    pub(crate) fn pin_plan(
        &self,
        plan: &QueryPlan<'_>,
        fields_only: bool,
    ) -> Result<Vec<Option<Arc<FunctionEntry>>>> {
        let footprint = self.footprint(plan);
        let mut hits = 0;
        let pinned = (footprint.into_iter().enumerate())
            .map(|(i, n)| match n {
                Some(with_field) if with_field || !fields_only => {
                    self.entry(i, with_field, &mut hits).map(Some)
                }
                _ => Ok(None),
            })
            .collect();
        count(names::STORE_SEGMENT_CACHE_HITS, hits);
        pinned
    }

    /// Rejects a batch naming a data set whose file failed to open, with
    /// [`StoreError::ShardUnavailable`] — whether the cache would answer
    /// its pairs or not, and for a named data set that forms no pair
    /// (`between A and A`). Queries are checked in order, each for unknown
    /// names first (the [`polygamy_core::Error::UnknownDataset`] its plan
    /// would raise), so the first failing query decides the error. With
    /// every file open there is nothing to check.
    pub(crate) fn require_named(&self, queries: &[RelationshipQuery]) -> Result<()> {
        if self.files.iter().all(|f| f.is_ok()) {
            return Ok(());
        }
        let all = 0..self.catalog.datasets.len();
        for query in queries {
            let mut named = Vec::new();
            for collection in [&query.left, &query.right] {
                let Some(list) = collection else {
                    named.extend(all.clone());
                    continue;
                };
                for name in list {
                    let di = self.catalog.dataset_index(name);
                    named.push(di.map_err(|_| Error::UnknownDataset(name.clone()))?);
                }
            }
            self.require_files_of(named)?;
        }
        Ok(())
    }

    /// Per directory entry: `None` when no miss of `plan` can reach it,
    /// else whether one of them needs its scalar field.
    fn footprint(&self, plan: &QueryPlan<'_>) -> Vec<Option<bool>> {
        // Per data set, the resolutions to pin, those among them to pin
        // with the field, and those that naming the pair's data sets alone
        // — the bound before pairs were looked at — would have pinned.
        let mut pinned: Vec<ResolutionSet> = vec![0; self.catalog.datasets.len()];
        let mut with_field = pinned.clone();
        let mut named = pinned.clone();
        for (a, b, clause) in plan.misses() {
            let admitted = match &clause.resolutions {
                None => ResolutionSet::MAX,
                Some(list) => list.iter().fold(0, |set, &r| set | resolution_bit(r)),
            };
            let shared = self.resolutions[a] & self.resolutions[b] & admitted;
            for di in [a, b] {
                named[di] |= self.resolutions[di] & admitted;
                pinned[di] |= shared;
                let name = &self.catalog.datasets[di].meta.name;
                if clause.thresholds.iter().any(|t| t.dataset == *name) {
                    with_field[di] |= shared;
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
        footprint
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

    /// The one "read → verify → decode" step behind lazy faults and the
    /// eager open alike ([`Read`] says which, and what becomes of the field
    /// blob). Only faults bump the fault and verification counters, so an
    /// eager open leaves them describing demand paging. The segment's label
    /// is formatted only for an error: a read that succeeds makes no name.
    fn read_entry(&self, seg_index: usize, read: Read) -> Result<FunctionEntry> {
        let entry = &self.directory[seg_index];
        let (file, info) = self.locate(entry)?;
        let [hot_verdict, field_verdict] = &self.verified[seg_index];
        let faulting = matches!(read, Read::Fault { .. });
        let label = |e: StoreError| e.labelled(&file.store.segment_label(info));
        let hot = read_blob(file, info.loc, hot_verdict, "", faulting).map_err(label)?;
        let wanted = !matches!(read, Read::Fault { with_field: false });
        let field = match info.field.filter(|_| wanted) {
            None => None,
            Some(loc) => {
                let field = read_blob(file, loc, field_verdict, " field", faulting);
                let field = field.map_err(label)?;
                count(names::STORE_FIELD_BYTES_FETCHED, loc.len);
                if faulting {
                    count(names::STORE_FIELD_FAULTS, 1);
                }
                Some(field)
            }
        };
        // A fault decodes the field into the entry; the open only walks it.
        let to_decode = field.as_deref().filter(|_| faulting);
        let name = &self.names[entry.dataset];
        let decoded = decode_function_segment(info, entry.dataset, name, &hot, to_decode, "");
        let decoded = decoded.map_err(label)?;
        if let Some(field) = field.filter(|_| !faulting) {
            let n_vertices = decoded.n_regions * decoded.n_steps;
            validate_field(&field, n_vertices, " field").map_err(label)?;
        }
        Ok(decoded)
    }

    /// The eager open: reads and verifies both blobs of every segment,
    /// decoding the hot blob and checking the field blob's structure
    /// without decoding it ([`Read::Open`]) — never through the cache (an
    /// eager index must not be held twice). The segments are taken per
    /// segment on this index's pool and come back in directory order; a
    /// failure is the first failing segment's in that order. The entries
    /// come back field-less: a session serves `thresholds` clauses through
    /// [`LazyIndex::pin_plan`]. Every file must be available.
    pub(crate) fn load(&self) -> Result<PolygamyIndex> {
        let datasets = &self.catalog.datasets;
        self.require_files_of(0..datasets.len())?;
        let _load = stage(names::STORE_OPEN_LOAD_NS);
        let functions: Result<Vec<FunctionEntry>> =
            per_segment(self.cluster, self.segment_sizes(), OPEN_PS_PER_BYTE, |i| {
                self.read_entry(i, Read::Open)
            });
        Ok(PolygamyIndex {
            datasets: datasets.clone(),
            functions: functions?,
        })
    }

    /// Reads and checksum-verifies both blobs of every segment
    /// (and every file's geometry blob) without decoding or caching — the
    /// force-check behind `polygamy-store inspect --verify`. The segments
    /// are checked per segment on this index's pool; a failure is the
    /// first failing segment's in directory order, and every segment that
    /// passed has its verdicts recorded whatever else failed. An
    /// unavailable file fails the verification with its recorded reason.
    /// Returns the number of segments (function entries) checked.
    pub fn verify_all(&self) -> Result<usize> {
        for shard in 0..self.files.len() {
            let store = &self.file(shard)?.store;
            let geometry = store.manifest().geometry;
            store.source().read(geometry, "geometry").map(drop)?;
        }
        let checked: Result<Vec<()>> =
            per_segment(self.cluster, self.segment_sizes(), COPY_PS_PER_BYTE, |i| {
                self.verify_entry(i)
            });
        Ok(checked?.len())
    }

    /// [`LazyIndex::verify_all`]'s step for one directory entry: both
    /// blobs read and verified, then both verdicts recorded as passed.
    fn verify_entry(&self, seg_index: usize) -> Result<()> {
        let (file, info) = self.locate(&self.directory[seg_index])?;
        let what = file.store.segment_label(info);
        let source = file.store.source();
        source.read(info.loc, &what).map(drop)?;
        if let Some(loc) = info.field {
            source.read(loc, &format!("{what} field")).map(drop)?;
        }
        for verdict in &self.verified[seg_index] {
            // ordering: Release — publishes this force-check's verdict
            // to the Acquire loads on the fault path.
            verdict.store(VERIFIED_OK, Ordering::Release);
        }
        Ok(())
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
