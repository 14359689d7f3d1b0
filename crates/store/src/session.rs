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
//! * **eager** ([`StoreSession::open`]): every admitted segment is read,
//!   verified and decoded at open time — corruption anywhere in the
//!   admitted set fails the open, and queries never touch the disk;
//! * **lazy** ([`StoreSession::open_lazy`]): open reads only header,
//!   manifest and geometry; each query faults in just the segments its
//!   footprint touches ([`crate::lazy`]) — their hot blobs, plus the
//!   scalar field blobs of data sets its `thresholds` clause names —
//!   verifying each blob exactly once on first access. Corruption
//!   surfaces at query time, only for queries touching the corrupt blob.
//!
//! A session built with a data-set [`LoadFilter`] serves only the loaded
//! data sets: a query naming an unloaded one is a typed
//! [`StoreError::DatasetNotLoaded`] — never a silently empty result — and
//! whole-corpus queries range over the loaded subset.
//!
//! ## One read path
//!
//! Every session opens through one [`LazyIndex`] — the global segment
//! directory over the store's file(s) — and the two modes differ only in
//! *when* that directory is read: an eager open decodes every admitted
//! entry once and drops the index, a lazy one keeps it and faults entries
//! in per query. Every query — single or batched, on either backing —
//! then takes the same three steps: *scope* it to the loaded data sets,
//! *pin* the entries it can touch (`Backing::pinned`: nothing to do for an
//! eager index, a segment fault-in for a lazy one), and hand the resulting
//! [`IndexView`] to [`polygamy_core::run_query_many`]. A single query is a
//! batch of one.
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
//! typed [`StoreError::ShardUnavailable`] raised at pin time, before any
//! evaluation; an eager open needs every file its filter admits.

use crate::error::{Result, StoreError};
use crate::lazy::LazyIndex;
use crate::source::SourceBackend;
use crate::store::LoadFilter;
use polygamy_core::cache::{QueryCache, DEFAULT_QUERY_CACHE_CAPACITY};
use polygamy_core::index::{DatasetEntry, IndexView, PolygamyIndex};
use polygamy_core::query::RelationshipQuery;
use polygamy_core::relationship::Relationship;
use polygamy_core::{run_query_many, CityGeometry, Config};
use std::path::Path;

/// How a session materializes function segments.
#[derive(Debug)]
enum Backing {
    /// Every admitted segment decoded at open. The `u64` is the sources'
    /// byte counter captured right after the one-shot load — the total
    /// I/O an eager session will ever do.
    Eager(PolygamyIndex, u64),
    /// Segments faulted in per query footprint, with per-file
    /// availability on a sharded store (degraded serving).
    Lazy(LazyIndex),
}

impl Backing {
    /// Pins every entry `queries` can touch and runs `f` over the view of
    /// them — the one place a backing turns into something the executor
    /// reads. An eager index is already resident in full; a lazy one
    /// faults in the batch's footprint (rejecting queries that touch an
    /// unavailable shard file here, before evaluation) and keeps the
    /// segments alive for the duration of `f`.
    fn pinned<T>(
        &self,
        queries: &[RelationshipQuery],
        f: impl FnOnce(IndexView<'_>) -> T,
    ) -> Result<T> {
        let lazy = match self {
            Backing::Eager(index, _) => return Ok(f(index.into())),
            Backing::Lazy(lazy) => lazy,
        };
        let faulted = lazy.pin_for(queries)?;
        Ok(f(IndexView::new(
            lazy.catalog(),
            faulted.iter().map(|entry| &**entry).collect(),
        )))
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
/// assert_eq!(session.loaded_datasets(), ["sensor".to_string()]);
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
    /// Names of the data sets whose segments were admitted by the load
    /// filter — the set this session can serve.
    loaded: Vec<String>,
    /// Shard files behind this session (1 for a monolith).
    n_shards: usize,
    cache: QueryCache,
}

impl StoreSession {
    /// Opens an eager session over the whole store with the default
    /// configuration.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_with(path, Config::default(), &LoadFilter::all())
    }

    /// Opens an eager session with an explicit configuration and load
    /// filter — only the function segments the filter admits are read off
    /// disk. On a sharded store every shard file the filter touches must
    /// be available, and the session answers byte-identically to the
    /// monolith.
    pub fn open_with(path: impl AsRef<Path>, config: Config, filter: &LoadFilter) -> Result<Self> {
        let lazy = LazyIndex::open(path, filter, SourceBackend::default())?;
        Self::new(lazy, config, filter, true)
    }

    /// Opens a lazy session over the whole store with the default
    /// configuration: O(header + manifest + geometry) now, segments
    /// faulted in per query.
    pub fn open_lazy(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_lazy_with(
            path,
            Config::default(),
            &LoadFilter::all(),
            SourceBackend::default(),
        )
    }

    /// Opens a lazy session with an explicit configuration, load filter
    /// and I/O backend ([`SourceBackend::Mmap`] serves segment bytes as
    /// borrowed views into a read-only mapping). A sharded store opens
    /// *degraded*: unavailable shard files are recorded, and only queries
    /// touching them fail.
    pub fn open_lazy_with(
        path: impl AsRef<Path>,
        config: Config,
        filter: &LoadFilter,
        backend: SourceBackend,
    ) -> Result<Self> {
        let lazy = LazyIndex::open(path, filter, backend)?;
        Self::new(lazy, config, filter, false)
    }

    /// A session over an opened index: `eager` decodes every admitted
    /// segment now and drops the index, otherwise the index stays and
    /// segments fault in per query.
    fn new(lazy: LazyIndex, config: Config, filter: &LoadFilter, eager: bool) -> Result<Self> {
        let geometry = lazy.load_geometry()?;
        let loaded = match &filter.datasets {
            None => lazy.catalog().iter().map(|d| d.meta.name.clone()).collect(),
            Some(names) => names.clone(),
        };
        let n_shards = lazy.shard_catalog().n_shards();
        let backing = if eager {
            let index = lazy.load()?;
            // Captured after the one-shot load: an eager session never
            // reads again, so this is its total (and final) I/O.
            Backing::Eager(index, lazy.bytes_fetched())
        } else {
            Backing::Lazy(lazy)
        };
        Ok(Self {
            geometry,
            config,
            backing,
            loaded,
            n_shards,
            cache: QueryCache::new(DEFAULT_QUERY_CACHE_CAPACITY),
        })
    }

    /// Evaluates a relationship query against the loaded index.
    ///
    /// Results are identical to [`polygamy_core::DataPolygamy::query`] over
    /// the same corpus, configuration and clause — in both eager and lazy
    /// mode. On a session built with a data-set filter, explicit names
    /// outside the loaded set yield [`StoreError::DatasetNotLoaded`], and
    /// `None` collections range over the loaded data sets only. Takes
    /// `&self`: sessions are shared freely across reader threads.
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
    /// what [`StoreSession::query`] returns for that query alone, subject
    /// to the same load-filter scoping rules. In lazy mode the whole
    /// batch's footprint is pinned up front, so segments shared by several
    /// queries fault in once.
    pub fn query_many(&self, queries: &[RelationshipQuery]) -> Result<Vec<Vec<Relationship>>> {
        let scoped = queries
            .iter()
            .map(|q| self.scope_to_loaded(q))
            .collect::<Result<Vec<_>>>()?;
        self.backing
            .pinned(&scoped, |view| {
                run_query_many(view, &self.geometry, &self.config, &self.cache, &scoped)
            })?
            .map_err(Into::into)
    }

    /// Rewrites a query so it ranges only over loaded data sets, rejecting
    /// explicit references to unloaded ones.
    fn scope_to_loaded(&self, query: &RelationshipQuery) -> Result<RelationshipQuery> {
        let catalog = self.catalog();
        let scope = |names: &Option<Vec<String>>| -> Result<Option<Vec<String>>> {
            match names {
                None => Ok(Some(self.loaded.clone())),
                Some(list) => {
                    for name in list {
                        // Unknown-anywhere names fall through to the executor's
                        // UnknownDataset; known-but-unloaded ones are the
                        // session's own refusal.
                        if catalog.iter().any(|d| d.meta.name == *name)
                            && !self.loaded.contains(name)
                        {
                            return Err(StoreError::DatasetNotLoaded(name.clone()));
                        }
                    }
                    Ok(Some(list.clone()))
                }
            }
        };
        Ok(RelationshipQuery {
            left: scope(&query.left)?,
            right: scope(&query.right)?,
            clause: query.clause.clone(),
        })
    }

    /// The materialized index — `Some` for eager sessions, `None` for lazy
    /// ones (a lazy session never holds the whole index; use
    /// [`StoreSession::catalog`] for the always-resident data set catalog).
    pub fn index(&self) -> Option<&PolygamyIndex> {
        match &self.backing {
            Backing::Eager(index, _) => Some(index),
            Backing::Lazy(_) => None,
        }
    }

    /// Total `.plst` bytes this session has read, uniformly across modes:
    /// an eager session reports its one-shot load (a constant from open
    /// onwards), a lazy session reports the live source counter, which
    /// grows as queries fault segments in.
    pub fn bytes_fetched(&self) -> u64 {
        match &self.backing {
            Backing::Eager(_, bytes_loaded) => *bytes_loaded,
            Backing::Lazy(lazy) => lazy.bytes_fetched(),
        }
    }

    /// The data set catalog (resident in every mode).
    pub fn catalog(&self) -> &[DatasetEntry] {
        match &self.backing {
            Backing::Eager(index, _) => &index.datasets,
            Backing::Lazy(lazy) => lazy.catalog(),
        }
    }

    /// The demand-paged index — `Some` for lazy sessions, monolithic or
    /// sharded (it also reports per-shard-file health).
    pub fn lazy_index(&self) -> Option<&LazyIndex> {
        match &self.backing {
            Backing::Eager(..) => None,
            Backing::Lazy(lazy) => Some(lazy),
        }
    }

    /// Number of shard files behind this session (1 for a monolith).
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// True when this session faults segments in on demand.
    pub fn is_lazy(&self) -> bool {
        matches!(self.backing, Backing::Lazy(_))
    }

    /// Names of the data sets this session serves.
    pub fn loaded_datasets(&self) -> &[String] {
        &self.loaded
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
