//! # polygamy-mapreduce — parallel execution substrate
//!
//! The paper runs Data Polygamy as three Hadoop map-reduce jobs over a
//! 20-node cluster (Section 5.4, Appendix C). This crate reproduces the
//! programming model in-process so the framework's jobs — scalar-function
//! computation, feature identification, relationship computation — run
//! unchanged on one machine while preserving the semantics that matter:
//!
//! * **map → shuffle → reduce**: mappers emit `(key, value)` pairs that are
//!   hash-partitioned, sorted and grouped per key before reduction;
//! * **combiners**: optional map-side pre-aggregation;
//! * **cluster sizing**: a [`Cluster`] caps worker parallelism to model a
//!   given node × core configuration, which is how the Figure 10 speedup
//!   experiment sweeps "cluster sizes";
//! * **metrics**: per-phase wall times and record counts for the
//!   performance experiments.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod job;
pub mod pool;

pub use cluster::Cluster;
pub use job::{par_map, run_job, JobConfig, JobMetrics};
pub use pool::{run_chunked_tasks, run_indexed_tasks};
