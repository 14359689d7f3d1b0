//! Automatic feature-threshold computation (paper Section 3.3).
//!
//! *Salient* thresholds: the persistence values of the extrema split into a
//! low- and a high-persistence cluster (2-means); θ⁺ is the smallest
//! function value over high-persistence maxima (so every one of them
//! becomes a feature), θ⁻ the largest function value over high-persistence
//! minima.
//!
//! *Extreme* thresholds: over the function values of the salient extrema,
//! the standard box-plot outlier fences — `Q1 − 1.5·IQR` for minima,
//! `Q3 + 1.5·IQR` for maxima.
//!
//! *Seasonal adjustment*: the time range is partitioned into intervals
//! (monthly for hourly data, quarterly for daily, …) and thresholds are
//! computed per interval from the extrema that fall inside it.

use crate::merge_tree::MergeTree;
use crate::persistence::ExtremumPair;
use polygamy_stats::descriptive::Summary;
use polygamy_stats::kmeans::two_means_1d;

/// Feature thresholds for one scalar function (or one seasonal interval).
///
/// NaN means "no such features exist" (e.g. an interval with no extrema).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Super-level threshold θ⁺ for salient positive features.
    pub salient_pos: f64,
    /// Sub-level threshold θ⁻ for salient negative features.
    pub salient_neg: f64,
    /// Super-level threshold for extreme positive features (`Q3 + 1.5 IQR`).
    pub extreme_pos: f64,
    /// Sub-level threshold for extreme negative features (`Q1 − 1.5 IQR`).
    pub extreme_neg: f64,
}

impl Thresholds {
    /// Thresholds that produce no features at all.
    pub fn none() -> Self {
        Self {
            salient_pos: f64::NAN,
            salient_neg: f64::NAN,
            extreme_pos: f64::NAN,
            extreme_neg: f64::NAN,
        }
    }
}

/// Computes thresholds from the join tree (maxima) and split tree (minima)
/// of a function. `join.pairs` must come from [`MergeTree::join`] and
/// `split.pairs` from [`MergeTree::split`].
pub fn compute_thresholds(join: &MergeTree, split: &MergeTree) -> Thresholds {
    let (salient_pos, extreme_pos) = side_thresholds(join, true);
    let (salient_neg, extreme_neg) = side_thresholds(split, false);
    Thresholds {
        salient_pos,
        salient_neg,
        extreme_pos,
        extreme_neg,
    }
}

/// Threshold for one side from a filtered set of pairs.
///
/// Returns `(salient, extreme)`. For maxima (`positive = true`): salient =
/// min f over high-persistence maxima; extreme = upper box-plot fence of
/// salient maxima values. For minima: max f and lower fence.
fn side_thresholds(tree: &MergeTree, positive: bool) -> (f64, f64) {
    side_thresholds_from_pairs(
        tree.pairs.iter().map(|p| (p.birth, p.persistence())),
        positive,
    )
}

/// Core of the threshold rule over `(extremum value, persistence)` pairs.
pub(crate) fn side_thresholds_from_pairs<I>(pairs: I, positive: bool) -> (f64, f64)
where
    I: IntoIterator<Item = (f64, f64)>,
{
    let pairs: Vec<(f64, f64)> = pairs.into_iter().collect();
    if pairs.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let persistences: Vec<f64> = pairs.iter().map(|&(_, p)| p).collect();
    // Values of the extrema deemed salient (high-persistence cluster, or
    // all extrema when 2-means has no meaningful split).
    let salient_values: Vec<f64> = match two_means_1d(&persistences) {
        Some(tm) => pairs
            .iter()
            .filter(|&&(_, p)| tm.is_high(p))
            .map(|&(v, _)| v)
            .collect(),
        None => pairs.iter().map(|&(v, _)| v).collect(),
    };
    debug_assert!(!salient_values.is_empty());
    let salient = if positive {
        salient_values.iter().copied().fold(f64::INFINITY, f64::min)
    } else {
        salient_values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let summary = Summary::of(&salient_values);
    let extreme = if positive {
        summary.upper_fence()
    } else {
        summary.lower_fence()
    };
    (salient, extreme)
}

/// Per-seasonal-interval thresholds for one scalar function.
#[derive(Debug, Clone, PartialEq)]
pub struct SeasonalThresholds {
    /// Interval id for each time step (ids need not be contiguous).
    pub interval_of_step: Vec<i64>,
    /// Thresholds per distinct interval, aligned with [`Self::interval_ids`].
    pub interval_ids: Vec<i64>,
    /// Thresholds for each interval id.
    pub per_interval: Vec<Thresholds>,
}

impl SeasonalThresholds {
    /// The thresholds in force at time step `z`: those of its interval, or
    /// [`Thresholds::none`] when the interval has no entry.
    pub fn of_step(&self, z: usize) -> Thresholds {
        let id = self.interval_of_step[z];
        match self.interval_ids.iter().position(|&x| x == id) {
            Some(idx) => self.per_interval[idx],
            None => Thresholds::none(),
        }
    }
}

/// Computes per-interval thresholds from the join tree (maxima) and the
/// split tree (minima) of a function: [`seasonal_thresholds_of_pairs`]
/// over their pairs.
pub fn seasonal_thresholds(
    join: &MergeTree,
    split: &MergeTree,
    n_regions: usize,
    interval_of_step: &[i64],
) -> SeasonalThresholds {
    let pairs = |tree: &MergeTree| -> Vec<ExtremumPair> {
        tree.pairs.iter().map(ExtremumPair::from).collect()
    };
    seasonal_thresholds_of_pairs(&pairs(join), &pairs(split), n_regions, interval_of_step)
}

/// Computes per-interval thresholds from the persistence pairs of a
/// function's maxima and minima. `interval_of_step[z]` assigns each time
/// step to a seasonal interval (e.g. months-since-epoch for monthly
/// intervals); extrema are grouped by the interval of their time step.
/// The order of the pairs does not matter: each interval's thresholds
/// depend only on its multiset of `(birth, persistence)`.
///
/// `n_regions` recovers the time step from a vertex index.
pub fn seasonal_thresholds_of_pairs(
    maxima: &[ExtremumPair],
    minima: &[ExtremumPair],
    n_regions: usize,
    interval_of_step: &[i64],
) -> SeasonalThresholds {
    let mut interval_ids: Vec<i64> = interval_of_step.to_vec();
    interval_ids.sort_unstable();
    interval_ids.dedup();

    let group = |pairs: &[ExtremumPair]| -> Vec<Vec<(f64, f64)>> {
        let mut groups = vec![Vec::new(); interval_ids.len()];
        for p in pairs {
            let step = p.extremum as usize / n_regions;
            let id = interval_of_step[step];
            let idx = interval_ids
                .binary_search(&id)
                .expect("interval id comes from the same array");
            groups[idx].push((p.birth, (p.birth - p.death).abs()));
        }
        groups
    };

    let max_groups = group(maxima);
    let min_groups = group(minima);
    let per_interval: Vec<Thresholds> = max_groups
        .into_iter()
        .zip(min_groups)
        .map(|(maxs, mins)| {
            let (salient_pos, extreme_pos) = side_thresholds_from_pairs(maxs, true);
            let (salient_neg, extreme_neg) = side_thresholds_from_pairs(mins, false);
            Thresholds {
                salient_pos,
                salient_neg,
                extreme_pos,
                extreme_neg,
            }
        })
        .collect();
    SeasonalThresholds {
        interval_of_step: interval_of_step.to_vec(),
        interval_ids,
        per_interval,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DomainGraph;

    /// A noisy series with two prominent peaks and two deep valleys.
    fn bumpy() -> (DomainGraph, Vec<f64>) {
        let mut f = Vec::new();
        for i in 0..200 {
            // Small ripple everywhere.
            let ripple = 0.3 * ((i % 7) as f64 - 3.0) / 3.0;
            let mut v = 10.0 + ripple;
            // Two tall peaks.
            if i == 50 || i == 150 {
                v += 20.0;
            }
            if i == 49 || i == 51 || i == 149 || i == 151 {
                v += 10.0;
            }
            // Two deep valleys.
            if i == 90 || i == 110 {
                v -= 15.0;
            }
            f.push(v);
        }
        (DomainGraph::time_series(200), f)
    }

    #[test]
    fn salient_thresholds_capture_prominent_extrema() {
        let (g, f) = bumpy();
        let join = MergeTree::join(&g, &f);
        let split = MergeTree::split(&g, &f);
        let th = compute_thresholds(&join, &split);
        // Peaks reach ~30; ripple tops out near 10.3. The positive salient
        // threshold must separate the peaks from the ripple.
        assert!(
            th.salient_pos > 11.0 && th.salient_pos <= 30.0,
            "salient_pos = {}",
            th.salient_pos
        );
        // Valleys dip to ~-5. Minima flanking the two tall peaks also get
        // high persistence (the sub-level components they create only merge
        // over the peak tops), so θ⁻ lands at the ripple floor 9.7 — the
        // highest salient-minimum value — and never above it.
        assert!(
            th.salient_neg <= 9.7 && th.salient_neg >= -5.0,
            "salient_neg = {}",
            th.salient_neg
        );
    }

    #[test]
    fn degenerate_single_extremum() {
        let g = DomainGraph::time_series(5);
        let f = vec![0.0, 1.0, 2.0, 1.0, 0.0];
        let join = MergeTree::join(&g, &f);
        let split = MergeTree::split(&g, &f);
        let th = compute_thresholds(&join, &split);
        // Single maximum: it is the only salient feature.
        assert_eq!(th.salient_pos, 2.0);
        // Two minima (both ends at 0.0): both salient.
        assert_eq!(th.salient_neg, 0.0);
    }

    #[test]
    fn empty_tree_gives_nan() {
        let g = DomainGraph::time_series(2);
        let f = vec![f64::NAN, f64::NAN];
        let join = MergeTree::join(&g, &f);
        let split = MergeTree::split(&g, &f);
        let th = compute_thresholds(&join, &split);
        assert!(th.salient_pos.is_nan());
        assert!(th.salient_neg.is_nan());
    }

    #[test]
    fn extreme_fences_bracket_salient_values() {
        let (g, f) = bumpy();
        let join = MergeTree::join(&g, &f);
        let split = MergeTree::split(&g, &f);
        let th = compute_thresholds(&join, &split);
        assert!(th.extreme_pos >= th.salient_pos || th.extreme_pos.is_nan());
        assert!(th.extreme_neg <= th.salient_neg || th.extreme_neg.is_nan());
    }

    #[test]
    fn seasonal_grouping() {
        // Two seasons with very different scales: summer values around 0,
        // winter around 100. A single global threshold would mark all of
        // winter as features; per-interval thresholds must not.
        let mut f = Vec::new();
        for i in 0..100 {
            let ripple = ((i * 13) % 5) as f64 * 0.1;
            f.push(ripple + if i == 50 { 8.0 } else { 0.0 });
        }
        for i in 0..100 {
            let ripple = ((i * 7) % 5) as f64 * 0.1;
            f.push(100.0 + ripple + if i == 50 { 8.0 } else { 0.0 });
        }
        let g = DomainGraph::time_series(200);
        let join = MergeTree::join(&g, &f);
        let split = MergeTree::split(&g, &f);
        let interval_of_step: Vec<i64> = (0..200).map(|z| if z < 100 { 0 } else { 1 }).collect();
        let st = seasonal_thresholds(&join, &split, 1, &interval_of_step);
        assert_eq!(st.interval_ids, vec![0, 1]);
        let pos = |z| st.of_step(z).salient_pos;
        // Season 0 threshold should be near 8; season 1 near 108.
        assert!(pos(0) > 1.0 && pos(0) <= 8.0, "season 0: {}", pos(0));
        assert!(
            pos(150) > 101.0 && pos(150) <= 108.0,
            "season 1: {}",
            pos(150)
        );
    }

    #[test]
    fn per_step_unknown_interval_is_nan() {
        let st = SeasonalThresholds {
            interval_of_step: vec![0, 0, 9],
            interval_ids: vec![0],
            per_interval: vec![Thresholds {
                salient_pos: 1.0,
                salient_neg: 0.0,
                extreme_pos: 2.0,
                extreme_neg: -1.0,
            }],
        };
        assert_eq!(st.of_step(0).salient_pos, 1.0);
        assert!(st.of_step(2).salient_pos.is_nan());
    }
}
