//! Exact 1-D 2-means clustering.
//!
//! The paper (Section 3.3) splits persistence values into a low- and a
//! high-persistence cluster with k-means, `k = 2`. In one dimension the
//! optimal 2-means partition is a single split point over the sorted values,
//! so instead of Lloyd's iterations we evaluate every split with prefix sums
//! and return the global optimum — deterministic and O(n log n).

/// Result of an exact 1-D 2-means clustering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoMeans {
    /// Largest value assigned to the low cluster.
    pub low_max: f64,
    /// Smallest value assigned to the high cluster.
    pub high_min: f64,
    /// Mean of the low cluster.
    pub low_mean: f64,
    /// Mean of the high cluster.
    pub high_mean: f64,
    /// Number of values in the low cluster.
    pub low_count: usize,
    /// Number of values in the high cluster.
    pub high_count: usize,
}

impl TwoMeans {
    /// True if a value belongs to the high cluster.
    pub fn is_high(&self, v: f64) -> bool {
        v >= self.high_min
    }
}

/// Clusters `values` into two groups minimising the within-cluster sum of
/// squares. Returns `None` when fewer than two finite values exist or all
/// values are identical (no meaningful split).
pub fn two_means_1d(values: &[f64]) -> Option<TwoMeans> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.len() < 2 {
        return None;
    }
    v.sort_unstable_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if v[0] == v[n - 1] {
        return None;
    }
    // Prefix sums for O(1) cluster cost: cost(range) = sum(x^2) - sum(x)^2/k.
    let mut prefix = vec![0.0f64; n + 1];
    let mut prefix2 = vec![0.0f64; n + 1];
    for (i, &x) in v.iter().enumerate() {
        prefix[i + 1] = prefix[i] + x;
        prefix2[i + 1] = prefix2[i] + x * x;
    }
    let cost = |lo: usize, hi: usize| -> f64 {
        // Cost of cluster covering sorted indices [lo, hi).
        let k = (hi - lo) as f64;
        let s = prefix[hi] - prefix[lo];
        let s2 = prefix2[hi] - prefix2[lo];
        s2 - s * s / k
    };
    let mut best_split = 1;
    let mut best_cost = f64::INFINITY;
    for split in 1..n {
        let c = cost(0, split) + cost(split, n);
        if c < best_cost {
            best_cost = c;
            best_split = split;
        }
    }
    Some(TwoMeans {
        low_max: v[best_split - 1],
        high_min: v[best_split],
        low_mean: (prefix[best_split]) / best_split as f64,
        high_mean: (prefix[n] - prefix[best_split]) / (n - best_split) as f64,
        low_count: best_split,
        high_count: n - best_split,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separates_obvious_clusters() {
        let values = [0.1, 0.2, 0.15, 10.0, 11.0, 9.5];
        let tm = two_means_1d(&values).unwrap();
        assert_eq!(tm.low_count, 3);
        assert_eq!(tm.high_count, 3);
        assert!(tm.low_max < 1.0);
        assert!(tm.high_min > 5.0);
        assert!(tm.is_high(9.5));
        assert!(!tm.is_high(0.2));
    }

    #[test]
    fn single_outlier() {
        let values = [1.0, 1.1, 0.9, 1.05, 100.0];
        let tm = two_means_1d(&values).unwrap();
        assert_eq!(tm.high_count, 1);
        assert_eq!(tm.high_min, 100.0);
    }

    #[test]
    fn degenerate_cases() {
        assert!(two_means_1d(&[]).is_none());
        assert!(two_means_1d(&[1.0]).is_none());
        assert!(two_means_1d(&[2.0, 2.0, 2.0]).is_none());
        assert!(two_means_1d(&[f64::NAN, 1.0]).is_none());
    }

    #[test]
    fn two_points() {
        let tm = two_means_1d(&[1.0, 5.0]).unwrap();
        assert_eq!(tm.low_max, 1.0);
        assert_eq!(tm.high_min, 5.0);
        assert_eq!(tm.low_mean, 1.0);
        assert_eq!(tm.high_mean, 5.0);
    }

    #[test]
    fn optimality_against_brute_force() {
        // Exhaustively compare against brute-force split search on small
        // random-ish inputs.
        let cases: Vec<Vec<f64>> = vec![
            vec![3.0, 1.0, 4.0, 1.5, 9.2, 2.6, 5.3],
            vec![0.0, 0.5, 1.0, 1.5, 2.0, 8.0],
            vec![-5.0, -4.0, 3.0, 3.5, 4.0],
        ];
        for case in cases {
            let tm = two_means_1d(&case).unwrap();
            let mut sorted = case.clone();
            sorted.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
            let wcss = |lo: &[f64], hi: &[f64]| -> f64 {
                let m1 = lo.iter().sum::<f64>() / lo.len() as f64;
                let m2 = hi.iter().sum::<f64>() / hi.len() as f64;
                lo.iter().map(|x| (x - m1).powi(2)).sum::<f64>()
                    + hi.iter().map(|x| (x - m2).powi(2)).sum::<f64>()
            };
            let best = (1..sorted.len())
                .map(|s| wcss(&sorted[..s], &sorted[s..]))
                .fold(f64::INFINITY, f64::min);
            let ours = wcss(&sorted[..tm.low_count], &sorted[tm.low_count..]);
            assert!((ours - best).abs() < 1e-9, "suboptimal split for {case:?}");
        }
    }
}
