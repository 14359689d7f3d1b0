//! Demand-paged index serving: fault in only the segments a query touches.
//!
//! An eager session ([`crate::store::Store::load_filtered`]) reads and
//! decodes every admitted segment at open time — O(corpus) work even when
//! the session will only ever answer queries over two data sets. A
//! [`LazyIndex`] instead opens in O(header + manifest) and materializes
//! function segments on first touch:
//!
//! * **footprint-driven faulting** — before evaluation, the executor's
//!   footprint report ([`polygamy_core::query_datasets`]) names the catalog
//!   indices a query's task expansion can reach; combined with the clause's
//!   resolution filter
//!   ([`Clause::admits_resolution`](polygamy_core::query::Clause::admits_resolution))
//!   that bounds the exact segment set to read. The bound is tight: task
//!   expansion skips left entries at non-admitted resolutions and pairs
//!   only entries sharing a resolution, so a segment outside the set can
//!   never appear in a task;
//! * **once-only verification** — each segment's FNV-1a checksum is
//!   checked on *first* access and the verdict is recorded in an atomic
//!   per-segment cell. Re-faults after LRU eviction skip re-hashing (the
//!   pinned source revision is immutable — see [`crate::source`]), and a
//!   recorded failure keeps failing without re-reading, so a corrupt
//!   segment can never slip past verification through a concurrent
//!   re-fault;
//! * **bounded decode cache** — decoded [`FunctionEntry`]s live in the
//!   same sharded bounded-LRU structure the query cache uses, keyed by
//!   directory position, so sustained traffic over a huge corpus keeps
//!   memory flat.
//!
//! Corruption surfaces *at query time*, only for queries whose footprint
//! touches the corrupt segment — opening the store and querying other data
//! sets still succeeds. That is the deliberate trade against the eager
//! path, which pays full verification at open.

use crate::codec::decode_function_segment;
use crate::error::{Result, StoreError};
use crate::source::SegmentSource;
use crate::store::{LoadFilter, Store};
use polygamy_core::index::{DatasetEntry, FunctionEntry};
use polygamy_core::query::RelationshipQuery;
use polygamy_core::{query_datasets, ShardedLruCache};
use polygamy_obs::{names, trace, Counter};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

/// Registry handles for the lazy-serving counters, resolved once per
/// process (handles are shared by every [`LazyIndex`]).
struct LazyMetrics {
    faults: Arc<Counter>,
    cache_hits: Arc<Counter>,
    evictions: Arc<Counter>,
    verifications: Arc<Counter>,
    verify_failures: Arc<Counter>,
}

fn lazy_metrics() -> &'static LazyMetrics {
    static M: OnceLock<LazyMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = polygamy_obs::global();
        LazyMetrics {
            faults: r.counter(names::STORE_SEGMENT_FAULTS),
            cache_hits: r.counter(names::STORE_SEGMENT_CACHE_HITS),
            evictions: r.counter(names::STORE_SEGMENT_EVICTIONS),
            verifications: r.counter(names::STORE_CHECKSUM_VERIFICATIONS),
            verify_failures: r.counter(names::STORE_CHECKSUM_FAILURES),
        }
    })
}

/// Default bound on decoded segments held in memory. Entries are a few KB
/// to a few hundred KB each; 1024 keeps typical working sets fully
/// resident while bounding memory on corpora far larger than RAM.
pub const DEFAULT_SEGMENT_CACHE_CAPACITY: usize = 1_024;

/// Per-shard observability handles, passed in by the sharded open path so
/// every fault and byte served by one shard file lands on that shard's
/// own counters (`store.shard.faults.<shard>` /
/// `store.shard.bytes_fetched.<shard>`) in addition to the process-wide
/// lazy-serving counters.
#[derive(Debug, Clone)]
pub(crate) struct ShardObs {
    pub(crate) faults: Arc<Counter>,
    pub(crate) bytes_fetched: Arc<Counter>,
}

/// Per-segment verification verdict (values of the atomic cells).
const UNVERIFIED: u8 = 0;
const VERIFIED_OK: u8 = 1;
const VERIFIED_BAD: u8 = 2;

/// A store served segment-by-segment on demand. See the module docs for
/// the faulting, verification and caching contract.
#[derive(Debug)]
pub struct LazyIndex {
    store: Store,
    /// Per-segment admission by the session's load filter, directory order.
    admitted: Vec<bool>,
    /// Per-segment checksum verdict: unverified / ok / bad.
    verified: Vec<AtomicU8>,
    /// Decoded segments keyed by directory position.
    cache: ShardedLruCache<usize, Arc<FunctionEntry>>,
    /// Local → global catalog-index remap, set when this index serves one
    /// shard of a sharded store: the shard file numbers its data sets
    /// locally (0..k), but decoded entries must carry the *global* index
    /// so expansion sees the monolithic catalog.
    global_of: Option<Vec<usize>>,
    /// Per-shard counters, set on sharded opens.
    shard_obs: Option<ShardObs>,
}

impl LazyIndex {
    /// Wraps an open store for demand-paged serving. Reads nothing beyond
    /// what `store` already read (header + manifest); unknown data set
    /// names in `filter` are rejected here, exactly like the eager loader.
    pub fn new(store: Store, filter: &LoadFilter) -> Result<Self> {
        if let Some(names) = &filter.datasets {
            for name in names {
                store.manifest().dataset_index(name)?;
            }
        }
        let manifest = store.manifest();
        let admitted = manifest
            .segments
            .iter()
            .map(|info| filter.admits(info, &manifest.datasets))
            .collect::<Vec<_>>();
        let verified = (0..manifest.segments.len())
            .map(|_| AtomicU8::new(UNVERIFIED))
            .collect();
        Ok(Self {
            store,
            admitted,
            verified,
            cache: ShardedLruCache::new(DEFAULT_SEGMENT_CACHE_CAPACITY),
            global_of: None,
            shard_obs: None,
        })
    }

    /// [`LazyIndex::new`] for one shard of a sharded store: decoded
    /// entries carry `global_of[local]` as their data set index (the
    /// monolithic catalog position), and faults/bytes served by this shard
    /// additionally land on its per-shard counters.
    pub(crate) fn new_sharded(
        store: Store,
        filter: &LoadFilter,
        global_of: Vec<usize>,
        shard_obs: ShardObs,
    ) -> Result<Self> {
        debug_assert_eq!(global_of.len(), store.manifest().datasets.len());
        let mut lazy = Self::new(store, filter)?;
        lazy.global_of = Some(global_of);
        lazy.shard_obs = Some(shard_obs);
        Ok(lazy)
    }

    /// The global catalog index a locally-numbered data set decodes under.
    fn global_index(&self, local: usize) -> usize {
        match &self.global_of {
            Some(map) => map[local],
            None => local,
        }
    }

    /// The underlying store (manifest, header, byte source).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The data set catalog (always fully resident — it is part of the
    /// manifest).
    pub fn catalog(&self) -> &[DatasetEntry] {
        &self.store.manifest().datasets
    }

    /// Number of segments in the store's directory.
    pub fn n_segments(&self) -> usize {
        self.admitted.len()
    }

    /// Number of segments the load filter admits for serving.
    pub fn n_admitted(&self) -> usize {
        self.admitted.iter().filter(|a| **a).count()
    }

    /// Number of decoded segments currently resident in the cache.
    pub fn n_resident(&self) -> usize {
        self.cache.len()
    }

    /// Faults in every admitted segment any of `queries` can touch,
    /// returning the decoded entries in directory (canonical) order.
    ///
    /// This is the serving path's page-in step: the returned entries back
    /// an [`polygamy_core::IndexView`] whose expansion order — and
    /// therefore whose output — is byte-identical to an eager load's,
    /// because both enumerate segments in directory order.
    pub fn pin_for(&self, queries: &[RelationshipQuery]) -> Result<Vec<Arc<FunctionEntry>>> {
        let manifest = self.store.manifest();
        let mut needed = vec![false; manifest.segments.len()];
        for query in queries {
            let touched = query_datasets(&manifest.datasets, query)?;
            for (i, info) in manifest.segments.iter().enumerate() {
                if self.admitted[i]
                    && touched.contains(&info.dataset_index)
                    && query.clause.admits_resolution(info.resolution)
                {
                    needed[i] = true;
                }
            }
        }
        needed
            .iter()
            .enumerate()
            .filter(|(_, n)| **n)
            .map(|(i, _)| self.entry(i))
            .collect()
    }

    /// Faults in one segment by directory position: cache hit, or read +
    /// (first time only) verify + decode + insert.
    pub fn entry(&self, seg_index: usize) -> Result<Arc<FunctionEntry>> {
        let metrics = lazy_metrics();
        if let Some(hit) = self.cache.get(&seg_index) {
            metrics.cache_hits.inc();
            trace::add("segment_cache_hits", 1);
            return Ok(hit);
        }
        metrics.faults.inc();
        trace::add("segment_faults", 1);
        if let Some(obs) = &self.shard_obs {
            obs.faults.inc();
        }
        let manifest = self.store.manifest();
        let info = &manifest.segments[seg_index];
        let what = format!(
            "segment {}.{}",
            manifest.datasets[info.dataset_index].meta.name, info.function
        );
        // A recorded failure keeps failing without touching the disk: no
        // concurrent re-fault may decode bytes a previous fault saw fail
        // verification.
        // ordering: Acquire pairs with the Release stores below — a thread
        // that reads a verdict also sees the verification that produced it.
        if self.verified[seg_index].load(Ordering::Acquire) == VERIFIED_BAD {
            return Err(StoreError::ChecksumMismatch { what });
        }
        let bytes = self.store.source().fetch(info.loc, &what, false)?;
        if let Some(obs) = &self.shard_obs {
            obs.bytes_fetched.add(bytes.len() as u64);
        }
        // ordering: Acquire — same pairing as the verdict check above.
        if self.verified[seg_index].load(Ordering::Acquire) == UNVERIFIED {
            metrics.verifications.inc();
            match SegmentSource::verify(&bytes, info.loc, &what) {
                // ordering: Release publishes the verdict (and the checksum
                // work that justifies it) to every later Acquire load.
                Ok(()) => self.verified[seg_index].store(VERIFIED_OK, Ordering::Release),
                Err(e) => {
                    metrics.verify_failures.inc();
                    // ordering: Release — sticky failure published the same way.
                    self.verified[seg_index].store(VERIFIED_BAD, Ordering::Release);
                    return Err(e);
                }
            }
        }
        let entry = Arc::new(decode_function_segment(
            &bytes,
            self.global_index(info.dataset_index),
            &what,
        )?);
        if self.cache.insert(seg_index, Arc::clone(&entry)) {
            metrics.evictions.inc();
        }
        Ok(entry)
    }

    /// Reads and checksum-verifies every admitted segment (and the
    /// geometry blob) without decoding or caching — the force-check behind
    /// `polygamy-store inspect --verify`. Returns the number of segments
    /// checked.
    pub fn verify_all(&self) -> Result<usize> {
        let manifest = self.store.manifest();
        self.store
            .source()
            .read(manifest.geometry, "geometry")
            .map(drop)?;
        let mut checked = 0;
        for (i, info) in manifest.segments.iter().enumerate() {
            if !self.admitted[i] {
                continue;
            }
            let what = format!(
                "segment {}.{}",
                manifest.datasets[info.dataset_index].meta.name, info.function
            );
            self.store.source().read(info.loc, &what).map(drop)?;
            // ordering: Release — publishes this force-check's verdict to
            // the Acquire loads on the fault path.
            self.verified[i].store(VERIFIED_OK, Ordering::Release);
            checked += 1;
        }
        Ok(checked)
    }
}
