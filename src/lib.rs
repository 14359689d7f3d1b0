//! Workspace facade for the Data Polygamy reproduction (SIGMOD 2016).
//!
//! This crate exists to own the workspace-level integration tests under
//! `tests/` and the runnable walkthroughs under `examples/`; it re-exports
//! every member crate so downstream code can depend on one package:
//!
//! * [`core`] — the framework: pipeline, index, relationship operator,
//!   significance testing, and the PQL textual query language;
//! * [`stdata`] — datasets, resolutions, spatial partitions, scalar
//!   fields;
//! * [`topology`] — merge trees, persistence, level sets, feature sets;
//! * [`stats`] — descriptive statistics, 2-means, restricted Monte Carlo
//!   permutations, baselines;
//! * [`mapreduce`] — worker-count modelling and the ordered task pool;
//! * [`datagen`] — synthetic urban corpora with planted ground-truth
//!   couplings;
//! * [`store`] — the persistent on-disk index store and its concurrent
//!   serving sessions;
//! * [`serve`] — the network serving layer: wire protocol, daemon,
//!   batch coalescing, blocking client.
//!
//! The `docs/` directory holds the prose specifications: the
//! [architecture overview](https://github.com/paper-repro/data-polygamy/blob/main/docs/architecture.md),
//! the [PQL language reference](https://github.com/paper-repro/data-polygamy/blob/main/docs/pql.md),
//! the [on-disk store format](https://github.com/paper-repro/data-polygamy/blob/main/docs/store-format.md)
//! and the [network wire protocol](https://github.com/paper-repro/data-polygamy/blob/main/docs/serving.md).

#![forbid(unsafe_code)]

pub use polygamy_core as core;
pub use polygamy_datagen as datagen;
pub use polygamy_mapreduce as mapreduce;
pub use polygamy_serve as serve;
pub use polygamy_stats as stats;
pub use polygamy_stdata as stdata;
pub use polygamy_store as store;
pub use polygamy_topology as topology;

/// Everything a typical caller needs: the framework facade plus the data
/// substrate types its API surfaces.
pub mod prelude {
    pub use polygamy_core::prelude::*;
}
