//! # polygamy-mapreduce — parallel execution substrate
//!
//! The paper runs Data Polygamy as three Hadoop jobs over a 20-node
//! cluster (Section 5.4, Appendix C). All three are map-only per unit of
//! work — one (function, resolution) pair, one candidate relationship —
//! so what this crate keeps of that model is the part the framework
//! runs on:
//!
//! * **cluster sizing**: a [`Cluster`] is a worker count, modelled as
//!   nodes × cores, which is how the Figure 10 speedup experiment sweeps
//!   "cluster sizes";
//! * **an ordered task pool**: [`run_weighted_ranges`] (contiguous ranges
//!   cut from a per-task cost estimate and folded one result per range,
//!   small dispatches inline), its per-task form [`run_weighted_tasks`],
//!   and the equal-cost case [`run_chunked_tasks`] (with its single-index
//!   form [`run_indexed_tasks`], and [`par_map`] over owned inputs) run
//!   independent tasks on the calling thread plus that many minus one
//!   scoped helpers and return results in task order, so output never
//!   depends on the worker count.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod pool;

pub use cluster::Cluster;
pub use pool::{
    par_map, run_chunked_tasks, run_indexed_tasks, run_weighted_ranges, run_weighted_tasks,
};
