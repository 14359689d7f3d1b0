//! Concurrent serving sessions over a loaded store.
//!
//! A [`StoreSession`] answers [`RelationshipQuery`]s from the materialized
//! index exactly like the in-memory framework — same operator, same
//! significance machinery, same deterministic ordering — behind a sharded,
//! bounded LRU cache. `query` takes `&self`, so one session can be shared
//! across any number of reader threads; shards keep cache contention low
//! and the LRU bound keeps memory flat under sustained traffic.
//!
//! Sessions come in two read modes with byte-identical query results:
//!
//! * **eager** ([`StoreSession::open`]): at open, every blob — hot and
//!   field — is read and checksum-verified, every hot blob is decoded into
//!   the [`PolygamyIndex`] the session holds, and every field blob's
//!   structure is validated and left encoded (decoded, the scalar fields
//!   are most of what an index weighs, and only a `thresholds` clause
//!   reads them). Corruption anywhere in the store — a checksum, or a
//!   sealed blob of the wrong shape — fails the open; after it, only a
//!   query with a `thresholds` clause touches the file, for the named data
//!   sets' fields, through the lazy path's decode cache;
//! * **lazy** ([`StoreSession::open_lazy`]): open reads only header,
//!   manifest and geometry; each query faults in just the segments its
//!   footprint touches ([`crate::lazy`]) — per pair of data sets, the hot
//!   blobs at the resolutions both sides have, plus the scalar field blobs
//!   of data sets its `thresholds` clause names — verifying each blob
//!   exactly once on first access. Corruption surfaces at query time, only
//!   for queries touching the corrupt blob.
//!
//! Every session serves the whole catalog. A lazy session already reads
//! only what a query touches, so there is nothing to gain by opening a
//! subset of the data sets.
//!
//! ## One read path
//!
//! Every session opens through one [`LazyIndex`] — the global segment
//! directory over the store's file(s) — and keeps it; "eager" means every
//! hot blob was pinned at open. Every query — single or batched, on either
//! backing — then takes the same two steps: *pin* the entries it can touch
//! (`Backing::pinned`: a segment fault-in for a lazy session; for an eager
//! one nothing, or the fields a `thresholds` clause asks for), and hand the
//! resulting [`IndexView`] to [`polygamy_core::run_query_many`]. A single
//! query is a batch of one. Underneath, every byte either mode reads is a positioned read into an
//! owned buffer through the one handle each store file was opened with
//! ([`crate::source`]).
//!
//! ## Sharded stores
//!
//! [`LazyIndex::open`] sniffs the file magic: a shard catalog
//! ([`crate::shard`], magic `PLGYSHRD`) opens over its shard files, a
//! plain store (`PLGYSTOR`) as the one-file case — callers never say
//! which. Sharding decides which *file* a segment is read from, nothing
//! else: entries reach the executor in the monolith's directory order, so
//! query output is **byte-identical for any shard count and any worker
//! layout** — a one-shard store answers exactly like the monolith it was
//! migrated from. Lazy sessions degrade per shard file: a missing or
//! corrupt one fails only the queries whose footprint touches it, with a
//! typed
//! [`StoreError::ShardUnavailable`](crate::StoreError::ShardUnavailable)
//! raised at pin time, before any evaluation; an eager open needs every
//! file.

use crate::error::Result;
use crate::lazy::LazyIndex;
use crate::source::SourceBackend;
use crate::store::LoadFilter;
use polygamy_core::cache::{QueryCache, DEFAULT_QUERY_CACHE_CAPACITY};
use polygamy_core::index::{DatasetEntry, IndexView, PolygamyIndex};
use polygamy_core::query::RelationshipQuery;
use polygamy_core::relationship::Relationship;
use polygamy_core::{run_query_many, CityGeometry, Config};
use std::path::Path;

/// What a session reads function segments through: the one index over the
/// store's file(s), and — on an eager session — every hot blob it pinned
/// at open.
#[derive(Debug)]
struct Backing {
    /// Every read after open goes through here: segment faults on a lazy
    /// session (with per-file availability on a sharded store — degraded
    /// serving), on-demand scalar fields on an eager one.
    lazy: LazyIndex,
    /// Eager sessions: every entry, decoded at open, field-less.
    resident: Option<PolygamyIndex>,
}

impl Backing {
    /// Pins every entry `queries` can touch and runs `f` over the view of
    /// them — the one place a backing turns into something the executor
    /// reads. A lazy session faults in the batch's footprint (rejecting
    /// queries that touch an unavailable shard file here, before
    /// evaluation); an eager one pinned every hot blob at open and faults
    /// in only the scalar fields a `thresholds` clause of the batch reads,
    /// substituting those entries for their field-less residents in place.
    /// Either way the view is in directory order and the pins stay alive
    /// for the duration of `f`.
    fn pinned<T>(
        &self,
        queries: &[RelationshipQuery],
        f: impl FnOnce(IndexView<'_>) -> T,
    ) -> Result<T> {
        let Some(index) = &self.resident else {
            let faulted = self.lazy.pin_for(queries)?;
            let entries = faulted.iter().map(|entry| &**entry).collect();
            return Ok(f(IndexView::new(self.lazy.catalog(), entries)));
        };
        if queries.iter().all(|q| q.clause.thresholds.is_empty()) {
            return Ok(f(index.into()));
        }
        let with_fields = self.lazy.pin_fields_for(queries)?;
        let entries = (index.functions.iter().zip(&with_fields))
            .map(|(resident, with_field)| with_field.as_deref().unwrap_or(resident))
            .collect();
        Ok(f(IndexView::new(&index.datasets, entries)))
    }
}

/// A read-only serving session: geometry + (eager or lazy) index + query
/// cache.
///
/// Index once, save, then serve queries from the file — no raw data and
/// no rebuild at query time:
///
/// ```
/// use polygamy_core::prelude::*;
/// use polygamy_core::DataPolygamy;
/// use polygamy_store::{Store, StoreSession};
///
/// // Build a (tiny) index and persist it.
/// let meta = DatasetMeta {
///     name: "sensor".into(),
///     spatial_resolution: SpatialResolution::City,
///     temporal_resolution: TemporalResolution::Hour,
///     description: String::new(),
/// };
/// let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("signal"));
/// for h in 0..96i64 {
///     let v = if h == 30 { 9.0 } else { (h % 24) as f64 * 0.1 };
///     b.push(GeoPoint::new(0.5, 0.5), h * 3_600, &[v]).unwrap();
/// }
/// let mut dp = DataPolygamy::new(
///     CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
///     Config::fast_test(),
/// );
/// dp.add_dataset(b.build().unwrap());
/// dp.build_index();
/// let path = std::env::temp_dir().join(format!("plst-doc-{}.plst", std::process::id()));
/// Store::save(&path, dp.geometry(), dp.index().unwrap()).unwrap();
///
/// // Any later process serves queries straight from the file. `query`
/// // takes `&self`, so one session is shared across reader threads.
/// let session = StoreSession::open(&path).unwrap();
/// let query = parse_query("between sensor and * where permutations = 20").unwrap();
/// assert!(session.query(&query).unwrap().is_empty()); // one data set: no pairs
/// assert_eq!(session.catalog()[0].meta.name, "sensor");
///
/// // The lazy session answers the same queries with the same bytes,
/// // reading segments only when a query touches them.
/// let lazy = StoreSession::open_lazy(&path).unwrap();
/// assert!(lazy.query(&query).unwrap().is_empty());
/// # std::fs::remove_file(&path).unwrap();
/// ```
#[derive(Debug)]
pub struct StoreSession {
    geometry: CityGeometry,
    config: Config,
    backing: Backing,
    cache: QueryCache,
}

impl StoreSession {
    /// Opens an eager session over the whole store with the default
    /// configuration.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::new(LazyIndex::open(path)?, Config::default(), true)
    }

    /// Opens an eager session with an explicit configuration. On a sharded
    /// store every shard file must be available, and the session answers
    /// byte-identically to the monolith.
    ///
    /// `_filter` is ignored: [`LoadFilter`] has one value. The parameter
    /// stays only because callers outside this workspace still pass
    /// [`LoadFilter::all()`].
    pub fn open_with(path: impl AsRef<Path>, config: Config, _filter: &LoadFilter) -> Result<Self> {
        Self::new(LazyIndex::open(path)?, config, true)
    }

    /// Opens a lazy session over the whole store with the default
    /// configuration: O(header + manifest + geometry) now, segments
    /// faulted in per query.
    pub fn open_lazy(path: impl AsRef<Path>) -> Result<Self> {
        Self::new(LazyIndex::open(path)?, Config::default(), false)
    }

    /// Opens a lazy session with an explicit configuration. A sharded
    /// store opens *degraded*: unavailable shard files are recorded, and
    /// only queries touching them fail.
    ///
    /// `_filter` and `_backend` are ignored: [`LoadFilter`] has one value,
    /// and every read is a positioned read ([`crate::source`]). The
    /// parameters stay only because callers outside this workspace still
    /// pass [`LoadFilter::all()`] and [`SourceBackend::default()`].
    pub fn open_lazy_with(
        path: impl AsRef<Path>,
        config: Config,
        _filter: &LoadFilter,
        _backend: SourceBackend,
    ) -> Result<Self> {
        Self::new(LazyIndex::open(path)?, config, false)
    }

    /// A session over an opened index: `eager` reads, verifies and
    /// validates every blob now and keeps the decoded hot blobs, otherwise
    /// segments fault in per query.
    fn new(lazy: LazyIndex, config: Config, eager: bool) -> Result<Self> {
        let geometry = lazy.load_geometry()?;
        let resident = eager.then(|| lazy.load()).transpose()?;
        Ok(Self {
            geometry,
            config,
            backing: Backing { lazy, resident },
            cache: QueryCache::new(DEFAULT_QUERY_CACHE_CAPACITY),
        })
    }

    /// Evaluates a relationship query against the loaded index.
    ///
    /// Results are identical to [`polygamy_core::DataPolygamy::query`] over
    /// the same corpus, configuration and clause — in both eager and lazy
    /// mode. Takes `&self`: sessions are shared freely across reader
    /// threads.
    pub fn query(&self, query: &RelationshipQuery) -> Result<Vec<Relationship>> {
        Ok(self
            .query_many(std::slice::from_ref(query))?
            .pop()
            .unwrap_or_default())
    }

    /// Evaluates a batch of queries on one shared worker pool (the flat
    /// executor), amortising pool startup across the batch — the serving
    /// path behind `polygamy-store query --file`.
    ///
    /// Returns one result vector per query, in input order; each equals
    /// what [`StoreSession::query`] returns for that query alone. In lazy
    /// mode the whole batch's footprint is pinned up front, so segments
    /// shared by several queries fault in once.
    pub fn query_many(&self, queries: &[RelationshipQuery]) -> Result<Vec<Vec<Relationship>>> {
        self.backing
            .pinned(queries, |view| {
                run_query_many(view, &self.geometry, &self.config, &self.cache, queries)
            })?
            .map_err(Into::into)
    }

    /// The materialized index — `Some` for eager sessions, `None` for lazy
    /// ones (a lazy session never holds the whole index; use
    /// [`StoreSession::catalog`] for the always-resident data set catalog).
    /// It holds every function *hot-only* (`field: None`): the
    /// scalar fields stay encoded in the file, so saving this index would
    /// write a store without field blobs.
    pub fn index(&self) -> Option<&PolygamyIndex> {
        self.backing.resident.as_ref()
    }

    /// Total `.plst` bytes this session has read so far — the live source
    /// counter in both modes: a lazy session's grows as queries fault
    /// segments in, an eager session's is its open plus the scalar fields
    /// `thresholds` clauses have faulted in since.
    pub fn bytes_fetched(&self) -> u64 {
        self.backing.lazy.bytes_fetched()
    }

    /// The data set catalog (resident in every mode).
    pub fn catalog(&self) -> &[DatasetEntry] {
        self.backing.lazy.catalog()
    }

    /// The demand-paged index — `Some` for lazy sessions, monolithic or
    /// sharded (it also reports per-shard-file health).
    pub fn lazy_index(&self) -> Option<&LazyIndex> {
        self.is_lazy().then_some(&self.backing.lazy)
    }

    /// Number of shard files behind this session (1 for a monolith).
    pub fn n_shards(&self) -> usize {
        self.backing.lazy.shard_catalog().n_shards()
    }

    /// True when this session faults segments in on demand.
    pub fn is_lazy(&self) -> bool {
        self.backing.resident.is_none()
    }

    /// The geometry the index was built over.
    pub fn geometry(&self) -> &CityGeometry {
        &self.geometry
    }

    /// The session configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Number of cached per-pair results (diagnostics/tests).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }
}
