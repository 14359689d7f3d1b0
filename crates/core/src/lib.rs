//! # polygamy-core — the Data Polygamy framework
//!
//! Rust implementation of *Data Polygamy: The Many-Many Relationships among
//! Urban Spatio-Temporal Data Sets* (SIGMOD 2016). Given a corpus of
//! spatio-temporal data sets, the framework answers **relationship
//! queries** — *find all data sets related to D* — by:
//!
//! 1. transforming every (data set, attribute) pair into time-varying
//!    scalar functions at every viable spatio-temporal resolution
//!    ([`pipeline::scalar`]);
//! 2. indexing each function with merge trees, deriving salient/extreme
//!    feature thresholds from topological persistence, and precomputing
//!    feature sets ([`pipeline::features`]);
//! 3. evaluating candidate relationships by feature intersection — score τ
//!    and strength ρ — and pruning those that fail a restricted Monte Carlo
//!    significance test ([`relationship`], [`significance`], [`operator`]).
//!
//! The [`framework::DataPolygamy`] facade ties the stages together:
//!
//! ```no_run
//! use polygamy_core::prelude::*;
//! # fn geometry() -> CityGeometry { unimplemented!() }
//! # fn datasets() -> Vec<polygamy_stdata::Dataset> { unimplemented!() }
//! let mut dp = DataPolygamy::new(geometry(), Config::default());
//! for d in datasets() {
//!     dp.add_dataset(d);
//! }
//! dp.build_index();
//! let query = RelationshipQuery::all().with_clause(Clause::default().min_score(0.6));
//! for rel in dp.query(&query).unwrap() {
//!     println!("{rel}");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod error;
mod executor;
pub mod framework;
pub mod function;
pub mod index;
pub mod operator;
pub mod pipeline;
pub mod pql;
pub mod query;
pub mod relationship;
pub mod significance;

pub use cache::{Fnv1a, QueryCache, ShardedLruCache};
pub use error::{Error, Result};
pub use executor::{run_plan, run_query, run_query_many, QueryPlan};
pub use framework::{index_dataset, CityGeometry, Config, DataPolygamy};
pub use function::{FunctionRef, FunctionSpec};
pub use index::{DatasetEntry, FunctionEntry, IndexStats, IndexView, PolygamyIndex};
pub use pql::{parse_batch, parse_query, to_pql, PqlError, PqlErrorKind};
pub use query::{Clause, RelationshipQuery};
pub use relationship::{evaluate_features, evaluate_windows, Relationship, RelationshipMeasures};
pub use significance::{significance_test, PermutationScheme};

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::framework::{CityGeometry, Config, DataPolygamy};
    pub use crate::function::{FunctionRef, FunctionSpec};
    pub use crate::pql::{parse_batch, parse_query, to_pql, PqlError};
    pub use crate::query::{Clause, RelationshipQuery};
    pub use crate::relationship::Relationship;
    pub use polygamy_stdata::{
        AggregateKind, AttributeMeta, Dataset, DatasetBuilder, DatasetMeta, FunctionKind, GeoPoint,
        Resolution, SpatialPartition, SpatialResolution, TemporalResolution,
    };
    pub use polygamy_topology::FeatureClass;
}
