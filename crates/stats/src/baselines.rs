//! Standard correlation baselines (paper Section 6.4 and Appendix D).
//!
//! Three established techniques the paper compares against:
//!
//! * **PCC** — Pearson's correlation coefficient, `cov(X,Y)/(σX σY)`;
//! * **MI** — mutual information normalised by `sqrt(H(X) H(Y))`;
//! * **DTW** — dynamic time warping with the paper's proposed normalisation
//!   `βDTW = 1 − DTW(X,Y) / (DTW(X,0) + DTW(0,Y))` over z-normalised series.
//!
//! All scores operate on paired series; indices where either value is
//! missing (NaN) are dropped first, mirroring how the paper's comparison
//! aggregates city-resolution time series.

use crate::descriptive::{mean, z_normalize};

/// Drops pairs where either side is non-finite.
fn paired(x: &[f64], y: &[f64]) -> (Vec<f64>, Vec<f64>) {
    debug_assert_eq!(x.len(), y.len(), "paired series must align");
    let mut xs = Vec::with_capacity(x.len());
    let mut ys = Vec::with_capacity(y.len());
    for (&a, &b) in x.iter().zip(y) {
        if a.is_finite() && b.is_finite() {
            xs.push(a);
            ys.push(b);
        }
    }
    (xs, ys)
}

/// Pearson's correlation coefficient in `[-1, 1]`; NaN when fewer than two
/// paired observations exist or either side is constant.
pub fn pcc_score(x: &[f64], y: &[f64]) -> f64 {
    let (xs, ys) = paired(x, y);
    if xs.len() < 2 {
        return f64::NAN;
    }
    let mx = mean(&xs);
    let my = mean(&ys);
    let mut num = 0.0;
    let mut dx = 0.0;
    let mut dy = 0.0;
    for (&a, &b) in xs.iter().zip(&ys) {
        num += (a - mx) * (b - my);
        dx += (a - mx) * (a - mx);
        dy += (b - my) * (b - my);
    }
    if dx == 0.0 || dy == 0.0 {
        return f64::NAN;
    }
    num / (dx.sqrt() * dy.sqrt())
}

/// Normalised mutual information in `[0, 1]` using `bins`-way equal-width
/// histograms: `I(X,Y) / sqrt(H(X) H(Y))`. NaN when undefined.
pub fn mi_score_binned(x: &[f64], y: &[f64], bins: usize) -> f64 {
    let (xs, ys) = paired(x, y);
    let n = xs.len();
    if n < 2 || bins < 2 {
        return f64::NAN;
    }
    let bin_index = |v: f64, min: f64, max: f64| -> usize {
        if max <= min {
            return 0;
        }
        (((v - min) / (max - min) * bins as f64) as usize).min(bins - 1)
    };
    let (xmin, xmax) = xs
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let (ymin, ymax) = ys
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let mut joint = vec![0u64; bins * bins];
    let mut px = vec![0u64; bins];
    let mut py = vec![0u64; bins];
    for (&a, &b) in xs.iter().zip(&ys) {
        let i = bin_index(a, xmin, xmax);
        let j = bin_index(b, ymin, ymax);
        joint[i * bins + j] += 1;
        px[i] += 1;
        py[j] += 1;
    }
    let nf = n as f64;
    let entropy = |counts: &[u64]| -> f64 {
        counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / nf;
                -p * p.ln()
            })
            .sum()
    };
    let hx = entropy(&px);
    let hy = entropy(&py);
    if hx <= 0.0 || hy <= 0.0 {
        return f64::NAN;
    }
    let mut mi = 0.0;
    for i in 0..bins {
        for j in 0..bins {
            let c = joint[i * bins + j];
            if c == 0 {
                continue;
            }
            let pxy = c as f64 / nf;
            let pi = px[i] as f64 / nf;
            let pj = py[j] as f64 / nf;
            mi += pxy * (pxy / (pi * pj)).ln();
        }
    }
    (mi / (hx * hy).sqrt()).clamp(0.0, 1.0)
}

/// [`mi_score_binned`] with the Sturges-style default bin count
/// `ceil(log2(n)) + 1`.
pub fn mi_score(x: &[f64], y: &[f64]) -> f64 {
    let n = x
        .iter()
        .zip(y)
        .filter(|(a, b)| a.is_finite() && b.is_finite())
        .count();
    if n < 2 {
        return f64::NAN;
    }
    let bins = ((n as f64).log2().ceil() as usize + 1).max(2);
    mi_score_binned(x, y, bins)
}

/// Raw dynamic time warping distance between two series with squared point
/// cost and an optional Sakoe–Chiba band of half-width `band` (None = full).
pub fn dtw_distance(x: &[f64], y: &[f64], band: Option<usize>) -> f64 {
    let (n, m) = (x.len(), y.len());
    if n == 0 || m == 0 {
        return f64::NAN;
    }
    // Band must cover the diagonal offset.
    let w = band.unwrap_or(n.max(m)).max(n.abs_diff(m));
    // Two-row DP.
    let mut prev = vec![f64::INFINITY; m + 1];
    let mut cur = vec![f64::INFINITY; m + 1];
    prev[0] = 0.0;
    for i in 1..=n {
        cur.fill(f64::INFINITY);
        let lo = i.saturating_sub(w).max(1);
        let hi = (i + w).min(m);
        for j in lo..=hi {
            let cost = (x[i - 1] - y[j - 1]).powi(2);
            let best = prev[j - 1].min(prev[j]).min(cur[j - 1]);
            cur[j] = cost + best;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m].sqrt()
}

/// Normalised DTW score in `[0, 1]` (Appendix D):
/// `βDTW = 1 − DTW(X,Y) / (DTW(X,0) + DTW(0,Y))` over z-normalised series.
pub fn dtw_score(x: &[f64], y: &[f64]) -> f64 {
    let (mut xs, mut ys) = paired(x, y);
    if xs.len() < 2 {
        return f64::NAN;
    }
    z_normalize(&mut xs);
    z_normalize(&mut ys);
    let zeros_x = vec![0.0; xs.len()];
    let zeros_y = vec![0.0; ys.len()];
    let dxy = dtw_distance(&xs, &ys, None);
    let d0 = dtw_distance(&xs, &zeros_x, None) + dtw_distance(&zeros_y, &ys, None);
    if d0 <= 0.0 {
        return f64::NAN;
    }
    (1.0 - dxy / d0).clamp(0.0, 1.0)
}

/// All three baseline scores for one pair of series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineScores {
    /// Pearson correlation coefficient.
    pub pcc: f64,
    /// Normalised mutual information.
    pub mi: f64,
    /// Normalised DTW similarity.
    pub dtw: f64,
}

impl BaselineScores {
    /// Computes all three scores.
    pub fn of(x: &[f64], y: &[f64]) -> Self {
        Self {
            pcc: pcc_score(x, y),
            mi: mi_score(x, y),
            dtw: dtw_score(x, y),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcc_perfect_correlation() {
        let x: Vec<f64> = (0..50).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v + 1.0).collect();
        assert!((pcc_score(&x, &y) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!((pcc_score(&x, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pcc_constant_is_nan() {
        let x = [1.0, 1.0, 1.0];
        let y = [1.0, 2.0, 3.0];
        assert!(pcc_score(&x, &y).is_nan());
    }

    #[test]
    fn pcc_skips_nan_pairs() {
        let x = [1.0, f64::NAN, 3.0, 4.0];
        let y = [2.0, 5.0, 6.0, 8.0];
        let filtered_x = [1.0, 3.0, 4.0];
        let filtered_y = [2.0, 6.0, 8.0];
        assert_eq!(pcc_score(&x, &y), pcc_score(&filtered_x, &filtered_y));
    }

    #[test]
    fn mi_detects_nonlinear_dependence() {
        // y = x^2 has near-zero PCC on symmetric x but high MI.
        let x: Vec<f64> = (-100..=100).map(|i| f64::from(i) / 10.0).collect();
        let y: Vec<f64> = x.iter().map(|v| v * v).collect();
        let pcc = pcc_score(&x, &y).abs();
        let mi = mi_score(&x, &y);
        assert!(pcc < 0.1, "pcc should be near zero: {pcc}");
        assert!(mi > 0.5, "mi should be high: {mi}");
    }

    #[test]
    fn mi_independent_is_low() {
        // Deterministic pseudo-random independent-ish streams.
        let x: Vec<f64> = (0..500)
            .map(|i| ((i * 2_654_435_761u64) % 1000) as f64)
            .collect();
        let y: Vec<f64> = (0..500)
            .map(|i| ((i * 2_246_822_519u64 + 7) % 1000) as f64)
            .collect();
        let mi = mi_score(&x, &y);
        assert!(mi < 0.35, "independent streams should score low: {mi}");
    }

    #[test]
    fn dtw_distance_identical_is_zero() {
        let x = [1.0, 2.0, 3.0, 2.0, 1.0];
        assert_eq!(dtw_distance(&x, &x, None), 0.0);
    }

    #[test]
    fn dtw_alignment_beats_euclidean() {
        // A shifted copy aligns almost perfectly under DTW.
        let x: Vec<f64> = (0..60).map(|i| (f64::from(i) / 6.0).sin()).collect();
        let y: Vec<f64> = (0..60).map(|i| (f64::from(i + 3) / 6.0).sin()).collect();
        let euclid: f64 = x
            .iter()
            .zip(&y)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
            .sqrt();
        let dtw = dtw_distance(&x, &y, None);
        assert!(dtw < euclid / 2.0, "dtw {dtw} vs euclid {euclid}");
    }

    #[test]
    fn dtw_band_matches_full_for_wide_band() {
        let x: Vec<f64> = (0..40).map(|i| (f64::from(i) / 5.0).cos()).collect();
        let y: Vec<f64> = (0..40).map(|i| (f64::from(i) / 4.0).cos()).collect();
        let full = dtw_distance(&x, &y, None);
        let banded = dtw_distance(&x, &y, Some(40));
        assert!((full - banded).abs() < 1e-12);
    }

    #[test]
    fn dtw_score_range_and_similarity() {
        let x: Vec<f64> = (0..100).map(|i| (f64::from(i) / 10.0).sin()).collect();
        let same = dtw_score(&x, &x);
        assert!(same > 0.99, "identical series should score ~1: {same}");
        let anti: Vec<f64> = x.iter().map(|v| -v).collect();
        let s = dtw_score(&x, &anti);
        assert!((0.0..=1.0).contains(&s));
        assert!(s < same);
    }

    #[test]
    fn baseline_scores_struct() {
        let x: Vec<f64> = (0..64).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| v * 3.0).collect();
        let b = BaselineScores::of(&x, &y);
        assert!(b.pcc > 0.99);
        assert!(b.mi > 0.5);
        assert!(b.dtw > 0.9);
    }
}
