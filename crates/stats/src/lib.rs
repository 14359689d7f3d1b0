//! # polygamy-stats — statistics substrate
//!
//! Three pieces serve the Data Polygamy framework (SIGMOD 2016):
//!
//! * [`descriptive`] — means, quantiles, IQR, z-normalisation: the numeric
//!   plumbing behind box-plot outlier thresholds (paper Section 3.3) and the
//!   baseline normalisations (Appendix D);
//! * [`kmeans`] — exact 1-D 2-means used to split persistence values into
//!   low/high clusters when computing feature thresholds (Section 3.3);
//! * [`permutation`] — *restricted* Monte Carlo permutation tests
//!   (Section 4): toroidal time rotations for 1-D functions and BFS-based
//!   graph toroidal shifts for irregular spatial domains, with p-values for
//!   lower/upper/two-sided alternatives;
//! * [`baselines`] — Pearson correlation, normalised mutual information and
//!   normalised dynamic time warping, the comparison techniques of
//!   Section 6.4 / Appendix D.

#![forbid(unsafe_code)]

pub mod baselines;
pub mod descriptive;
pub mod kmeans;
pub mod permutation;

pub use baselines::{
    dtw_distance, dtw_score, mi_score, mi_score_binned, pcc_score, BaselineScores,
};
pub use descriptive::{iqr, mean, quantile, stddev, variance, z_normalize, Summary};
pub use kmeans::{two_means_1d, TwoMeans};
pub use permutation::{graph_toroidal_shift, p_value, GraphShifter, MonteCarlo, Tail, TailCounts};
