//! The three indexing/query jobs (paper Section 5.4, Appendix C).
//!
//! 1. [`scalar`] — *Scalar Function Computation*: maps raw tuples into
//!    spatio-temporal cells and aggregates all scalar functions per cell;
//! 2. [`features`] — *Feature Identification*: per scalar function, builds
//!    the merge-tree index, derives thresholds and precomputes features;
//! 3. relationship computation lives in [`crate::operator`], evaluating
//!    function pairs over precomputed features.
//!
//! All three are embarrassingly parallel and run on the
//! [`polygamy_mapreduce`] substrate.

pub mod features;
pub mod scalar;

pub use features::{field_features, identify_features};
pub use scalar::compute_scalar_functions;
