//! Descriptive statistics over `f64` slices.
//!
//! NaN values are treated as missing and skipped by every function here;
//! a slice with no finite values yields `NaN` results rather than panicking,
//! so callers can propagate undefined summaries the way scalar fields do.

/// Arithmetic mean over finite values.
pub fn mean(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    let mut n = 0usize;
    for &x in xs {
        if x.is_finite() {
            acc += x;
            n += 1;
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        acc / n as f64
    }
}

/// Population variance over finite values.
pub fn variance(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if m.is_nan() {
        return f64::NAN;
    }
    let mut acc = 0.0;
    let mut n = 0usize;
    for &x in xs {
        if x.is_finite() {
            let d = x - m;
            acc += d * d;
            n += 1;
        }
    }
    acc / n as f64
}

/// Population standard deviation over finite values.
pub fn stddev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Quantile with linear interpolation between order statistics
/// (`q` in `[0, 1]`). NaN values are skipped.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_unstable_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Inter-quartile range `Q3 - Q1`.
pub fn iqr(xs: &[f64]) -> f64 {
    quantile(xs, 0.75) - quantile(xs, 0.25)
}

/// Z-normalises a series in place; NaN entries are left untouched.
/// A constant series becomes all zeros.
pub fn z_normalize(xs: &mut [f64]) {
    let m = mean(xs);
    let s = stddev(xs);
    if m.is_nan() {
        return;
    }
    for x in xs.iter_mut() {
        if x.is_finite() {
            *x = if s > 0.0 { (*x - m) / s } else { 0.0 };
        }
    }
}

/// Five-number-style summary used by the box-plot threshold computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Count of finite values.
    pub n: usize,
    /// Mean.
    pub mean: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Inter-quartile range.
    pub iqr: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes the summary of a slice (NaN-skipping).
    pub fn of(xs: &[f64]) -> Self {
        let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
        if v.is_empty() {
            return Self {
                n: 0,
                mean: f64::NAN,
                q1: f64::NAN,
                median: f64::NAN,
                q3: f64::NAN,
                iqr: f64::NAN,
                min: f64::NAN,
                max: f64::NAN,
            };
        }
        v.sort_unstable_by(|a, b| a.total_cmp(b));
        let q = |q: f64| -> f64 {
            let pos = q * (v.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            if lo == hi {
                v[lo]
            } else {
                let frac = pos - lo as f64;
                v[lo] * (1.0 - frac) + v[hi] * frac
            }
        };
        let (q1, q3) = (q(0.25), q(0.75));
        Self {
            n: v.len(),
            mean: v.iter().sum::<f64>() / v.len() as f64,
            q1,
            median: q(0.5),
            q3,
            iqr: q3 - q1,
            min: v[0],
            max: *v.last().expect("non-empty"),
        }
    }

    /// The standard box-plot lower outlier fence `Q1 - 1.5 * IQR`
    /// (the paper's extreme-feature threshold for minima).
    pub fn lower_fence(&self) -> f64 {
        self.q1 - 1.5 * self.iqr
    }

    /// The standard box-plot upper outlier fence `Q3 + 1.5 * IQR`
    /// (the paper's extreme-feature threshold for maxima).
    pub fn upper_fence(&self) -> f64 {
        self.q3 + 1.5 * self.iqr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_skips_nan() {
        assert_eq!(mean(&[1.0, f64::NAN, 3.0]), 2.0);
        assert!(mean(&[f64::NAN]).is_nan());
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn variance_and_stddev() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((stddev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
        assert!((iqr(&xs) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn z_normalize_basic() {
        let mut xs = [1.0, 2.0, 3.0];
        z_normalize(&mut xs);
        assert!((xs[1]).abs() < 1e-12);
        assert!((xs[0] + xs[2]).abs() < 1e-12);
        let mut flat = [5.0, 5.0, 5.0];
        z_normalize(&mut flat);
        assert_eq!(flat, [0.0, 0.0, 0.0]);
    }

    #[test]
    fn summary_fences() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.n, 11);
        assert_eq!(s.median, 6.0);
        assert_eq!(s.q1, 3.5);
        assert_eq!(s.q3, 8.5);
        assert_eq!(s.iqr, 5.0);
        assert_eq!(s.lower_fence(), 3.5 - 7.5);
        assert_eq!(s.upper_fence(), 8.5 + 7.5);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::of(&[f64::NAN]);
        assert_eq!(s.n, 0);
        assert!(s.mean.is_nan());
    }
}
