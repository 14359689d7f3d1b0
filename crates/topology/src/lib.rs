//! # polygamy-topology — computational-topology substrate
//!
//! The Data Polygamy framework (SIGMOD 2016) identifies *salient features* of
//! a time-varying scalar function — spatio-temporal regions behaving unlike
//! their neighbourhood — using computational topology. This crate implements
//! that machinery over arbitrary planar domain graphs:
//!
//! * [`graph`] — the domain graph `G = (V, ES ∪ ET)` of paper
//!   Section 3.1, kept implicit: the spatial region adjacency is stored
//!   once, its replication per time step and the temporal edges between
//!   consecutive steps are derived;
//! * [`union_find`] — the union-find structure behind merge-tree
//!   construction, one payload per set;
//! * [`merge_tree`] — join/split trees computed by the paper's Procedure
//!   *ComputeJoinTree* in `O(N log N + N α(N))`, both from one sorted
//!   order, with creator–destroyer persistence pairing recorded during
//!   the sweep — or, for the index, the pairs alone, with the `+0.0`
//!   plateau of a non-negative field swept without sorting;
//! * [`persistence`] — persistence pairs (paper Figure 5);
//! * [`threshold`] — automatic feature thresholds: exact 1-D 2-means over
//!   persistence values for *salient* features, box-plot outlier fences for
//!   *extreme* features, per seasonal interval (paper Section 3.3);
//! * [`level_set`] — output-sensitive super-/sub-level-set extraction
//!   (paper Section 3.2), and the pointwise scan indexing uses instead;
//! * [`features`] — positive/negative feature sets as packed bit vectors;
//! * [`bitvec`] — the packed bit-set representation (paper Appendix C).

#![forbid(unsafe_code)]

pub mod bitvec;
pub mod error;
pub mod features;
pub mod graph;
pub mod level_set;
pub mod merge_tree;
pub mod persistence;
pub mod threshold;
pub mod union_find;

pub use bitvec::BitVec;
pub use error::Error;
pub use features::{
    FeatureClass, FeatureSet, FeatureSets, FeatureWindow, RowWindows, ShortWindow, SignCounts,
};
pub use graph::DomainGraph;
pub use level_set::{sub_level_set, super_level_set};
pub use merge_tree::{persistence_pairs, Direction, MergeTree, TreeNode, TreePairs};
pub use persistence::{ExtremumPair, PersistencePair};
pub use threshold::{
    compute_thresholds, seasonal_thresholds, seasonal_thresholds_of_pairs, SeasonalThresholds,
    Thresholds,
};
pub use union_find::UnionFind;
