//! # polygamy-store — persistent index store and serving sessions
//!
//! The paper's central engineering claim (Sections 5.2/6.1) is that
//! relationship queries touch only the precomputed feature index, never the
//! raw data. This crate makes that claim pay off *across process
//! lifetimes*: the index is written once to a durable, versioned on-disk
//! form and served from then on by concurrent read sessions — no rebuild on
//! restart, no raw data at query time.
//!
//! ## On-disk format (version 9)
//!
//! The normative specification of the format lives in
//! [`docs/store-format.md`](https://github.com/paper-repro/data-polygamy/blob/main/docs/store-format.md)
//! at the repository root; this section is the summary. A store file has
//! five regions:
//!
//! ```text
//! header    40 bytes, fixed: magic "PLGYSTOR", version u32, flags u32,
//!           manifest offset/len/checksum (3 × u64)
//! geometry  the CityGeometry as one checksummed binary blob: per
//!           partition its resolution, rings and adjacency lists
//!           ([`codec::encode_geometry`])
//! hot       one independently checksummed binary blob per indexed scalar
//!           function (FunctionEntry): its salient/extreme feature bit
//!           vectors and nothing else, region-major (bit x·n_steps + z;
//!           runs of all-zero and all-ones words between literal
//!           stretches) — all a query reads unless its clause overrides
//!           thresholds
//! fields    one checksummed blob per function indexed with its scalar
//!           field, time-major (vertex z·n_regions + x): a bit vector of
//!           the defined values, then those values
//!           as lossless runs and counts ([`codec::encode_field`]), read
//!           only for data sets a query's `thresholds` clause names
//! manifest  geometry location, data set catalog, and a segment directory
//!           (owner data set, function name and kind, resolution, window —
//!           the one record of what a segment is — and offset/len/checksum
//!           of the hot blob and, if any, of the field blob), at the tail
//! ```
//!
//! Every region is encoded by an explicit little-endian codec
//! ([`codec`]): integers are little-endian, floats
//! travel as IEEE-754 bit patterns (NaN-exact) — run-length coded, and as
//! varint counts where every value allows it, inside field blobs; bit
//! vectors travel as word runs — strings
//! and sequences are length-prefixed, and enums use the stable one-byte
//! wire codes from `polygamy_stdata` — never compiler-assigned
//! discriminants. Every region
//! carries a 64-bit word-wise checksum ([`checksum::blob_checksum`]); a
//! truncated, bit-flipped or wrong-version file yields a typed
//! [`StoreError`], never a panic or silently wrong data.
//!
//! The manifest lives at the *tail* so incremental maintenance
//! ([`Store::upsert_dataset`] / [`Store::remove_dataset`]) can copy
//! retained blob bytes verbatim, re-index only the data set being
//! changed, and write a fresh directory. A segment's owning data set is
//! recorded in the directory — not in the segment payload — so catalog
//! renumbering never rewrites segment bytes.
//!
//! ## Versioning policy
//!
//! [`format::VERSION`] names the byte-stream contract: the codec layouts,
//! the blob checksum, the wire codes, and the clause fingerprint used for
//! query-cache keys (64-bit FNV-1a, pinned by a regression test in
//! `polygamy_core`). Any change to those bumps the version; readers reject
//! every version other than their own with
//! [`StoreError::UnsupportedVersion`] rather than guessing — a store is a
//! derived artifact, so an old file is rebuilt, never migrated. Wire codes are append-only: new enum variants take fresh
//! codes, existing codes are never renumbered.
//!
//! ## Reading
//!
//! [`Store::open`] reads header + manifest only (cheap at any corpus
//! size), and every later byte of the file is a positioned read into an
//! owned buffer through the one handle it pinned ([`source`]); a
//! [`StoreSession`] materializes the segments it serves — every hot blob
//! at open, scalar fields left encoded until a `thresholds` clause asks
//! (eager), or per query and per pair only the resolutions both sides
//! have (lazy) — and serves
//! `RelationshipQuery`s from them behind a sharded, bounded LRU cache,
//! freely shared across reader threads:
//!
//! ```no_run
//! use polygamy_store::{Store, StoreSession};
//! use polygamy_core::prelude::*;
//! # fn demo() -> polygamy_store::Result<()> {
//! let session = StoreSession::open("city.plst")?;
//! let query = RelationshipQuery::all().with_clause(Clause::default().min_score(0.6));
//! for rel in session.query(&query)? {
//!     println!("{rel}");
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod codec;
pub mod error;
pub mod format;
pub mod lazy;
pub mod pql_exec;
pub mod session;
pub mod shard;
pub mod source;
pub mod store;

pub use checksum::blob_checksum;
pub use error::{Result, StoreError};
pub use format::{BlobLoc, Header, Manifest, SegmentInfo, VERSION};
pub use lazy::LazyIndex;
pub use pql_exec::{
    execute_pql_batch, execute_pql_batch_traced, execute_pql_query, execute_pql_query_traced,
    write_outcome_json, PqlOutcome, PqlServeError,
};
pub use session::StoreSession;
pub use shard::{
    is_sharded, merge_shards, shard_store, ShardCatalog, SHARD_CATALOG_VERSION, SHARD_MAGIC,
};
pub use source::{SegmentSource, SourceBackend};
pub use store::{LoadFilter, Store};
