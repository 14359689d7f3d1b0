//! # polygamy-stdata — spatio-temporal data substrate
//!
//! This crate provides the data model that the Data Polygamy framework
//! (SIGMOD 2016) operates on:
//!
//! * [`Dataset`] — a columnar collection of spatio-temporal records, each
//!   record carrying a spatial point, a timestamp, an optional identifier key
//!   and any number of numeric attribute values;
//! * [`SpatialResolution`] / [`TemporalResolution`] and the compatibility DAG
//!   of the paper's Figure 6 ([`resolution`]);
//! * [`SpatialPartition`] — a set of polygons partitioning a city, with
//!   adjacency and an accelerated point-in-polygon index ([`spatial`]);
//! * civil-calendar temporal bucketing without external dependencies
//!   ([`temporal`]);
//! * [`ScalarField`] — the discrete representation of a time-varying scalar
//!   function `f : S × T → R` (paper Section 2.1), and the aggregation
//!   machinery that derives *count* and *attribute* functions from raw
//!   records (paper Section 5.1) ([`mod@aggregate`]).
//!
//! The substrate is deliberately self-contained: the topology and framework
//! crates consume only [`ScalarField`]s and partition adjacency, never raw
//! records.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod dataset;
pub mod error;
pub mod field;
pub mod resolution;
pub mod spatial;
pub mod temporal;
pub mod value;

pub use aggregate::{aggregate, AggregateKind, Binning, FunctionKind, RecordRegions};
pub use dataset::{AttributeMeta, Dataset, DatasetBuilder, DatasetMeta, Record};
pub use error::{Error, Result};
pub use field::{MissingPolicy, ScalarField};
pub use resolution::{Resolution, ResolutionDag};
pub use spatial::{GeoPoint, Polygon, SpatialPartition, SpatialResolution};
pub use temporal::{CivilDate, TemporalResolution, Timestamp, SECS_PER_DAY, SECS_PER_HOUR};
pub use value::Value;
