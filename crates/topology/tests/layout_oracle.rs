//! The region-major feature layout against its definition.
//!
//! The index stores a feature set region-major (bit `x · n_steps + z` is
//! region `x` at step `z`) and the query path reads a window of steps in
//! every row by stride. This file keeps what that must agree with: a
//! time-major scan (vertex `z · n_regions + x`, the field's own order),
//! one vertex at a time, re-laid one bit at a time; row windows that
//! address the bits the time-major window holds for their region; and the
//! row-sum intersection equal to the naive counts of the time-major
//! window.

use polygamy_topology::{
    FeatureSet, FeatureSets, FeatureWindow, RowWindows, SeasonalThresholds, Thresholds,
};
use proptest::prelude::*;

/// The test's own stream (splitmix64).
struct Draws(u64);

impl Draws {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    /// Small integers (long ties, thresholds hit exactly) and NaN:
    /// independent θ⁺ and θ⁻ are degenerate (θ⁻ ≥ θ⁺) about half the time.
    fn value(&mut self) -> f64 {
        match self.below(10) {
            9 => f64::NAN,
            c => c as f64 - 4.0,
        }
    }
}

/// Vertex `z · n_regions + x` is a feature iff its value passes step `z`'s
/// thresholds: one vertex at a time, time-major.
fn naive_scan(values: &[f64], n_regions: usize, theta: impl Fn(usize) -> (f64, f64)) -> FeatureSet {
    let mut out = FeatureSet::empty(values.len());
    for (v, &f) in values.iter().enumerate() {
        let (theta_pos, theta_neg) = theta(v / n_regions);
        if f >= theta_pos {
            out.pos.set(v);
        }
        if f <= theta_neg {
            out.neg.set(v);
        }
    }
    out
}

/// Bits `at(0)`, `at(1)`, … `at(len − 1)` of `set`, one at a time.
fn naive_gather(set: &FeatureSet, len: usize, at: impl Fn(usize) -> usize) -> FeatureSet {
    let mut out = FeatureSet::empty(len);
    for i in 0..len {
        if set.pos.get(at(i)) {
            out.pos.set(i);
        }
        if set.neg.get(at(i)) {
            out.neg.set(i);
        }
    }
    out
}

/// `(#p, #n, |Σ|)` of two equal-length sets, one point at a time.
fn naive_counts(a: &FeatureSet, b: &FeatureSet) -> (usize, usize, usize) {
    let mut counts = (0, 0, 0);
    for i in 0..a.pos.len() {
        let (p1, n1, p2, n2) = (a.pos.get(i), a.neg.get(i), b.pos.get(i), b.neg.get(i));
        counts.0 += usize::from(p1 && p2) + usize::from(n1 && n2);
        counts.1 += usize::from(p1 && n2) + usize::from(n1 && p2);
        counts.2 += usize::from((p1 || n1) && (p2 || n2));
    }
    counts
}

/// Whether `window` holds exactly `want`'s bits. Equal counts and `|Σ|`
/// make the point sets equal; `#p` against `want` as large as `want`'s
/// own makes every sign of `want` one of the window's, and `#n` as small
/// as `want`'s own leaves the window no sign `want` lacks.
fn same_bits(window: FeatureWindow<'_>, want: &FeatureSet) -> bool {
    let want = FeatureWindow::whole(want);
    let (signs, related) = window.intersect(&want);
    let (own, own_related) = want.intersect(&want);
    window.count() == want.count()
        && (signs.n_pos, signs.n_neg, related) == (own.n_pos, own.n_neg, own_related)
}

/// One field of `n_regions × n_steps` values, its seasonal thresholds
/// (two intervals with thresholds, a third without) and one user pair.
fn field(
    d: &mut Draws,
    n_regions: usize,
    n_steps: usize,
) -> (Vec<f64>, SeasonalThresholds, (f64, f64)) {
    let values = (0..n_regions * n_steps).map(|_| d.value()).collect();
    let mut thresholds = || Thresholds {
        salient_pos: d.value(),
        salient_neg: d.value(),
        extreme_pos: d.value(),
        extreme_neg: d.value(),
    };
    let per_interval = vec![thresholds(), thresholds()];
    let seasonal = SeasonalThresholds {
        interval_of_step: (0..n_steps).map(|_| d.below(3) as i64).collect(),
        interval_ids: vec![0, 1],
        per_interval,
    };
    (values, seasonal, (d.value(), d.value()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn scans_rows_and_row_sums_equal_the_naive_time_major_path(
        regions in 0usize..6,
        steps in 0usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let n_regions = [1, 2, 9, 25, 64, 65][regions];
        let d = &mut Draws(seed);
        let lengths = [1, 63, 64, 65, 200];
        let n1 = lengths[steps];
        // Half the pairs share a length (entries over the same buckets),
        // the others do not.
        let n2 = if d.below(2) == 0 { n1 } else { lengths[d.below(5)] };
        let mut sides = Vec::new();
        for n_steps in [n1, n2] {
            let (values, seasonal, (theta_pos, theta_neg)) = field(d, n_regions, n_steps);
            let scanned = FeatureSets::scan(&values, n_regions, &seasonal);
            let single = FeatureSet::scan(&values, n_regions, theta_pos, theta_neg);
            let time_major = [
                naive_scan(&values, n_regions, |z| {
                    let t = seasonal.of_step(z);
                    (t.salient_pos, t.salient_neg)
                }),
                naive_scan(&values, n_regions, |z| {
                    let t = seasonal.of_step(z);
                    (t.extreme_pos, t.extreme_neg)
                }),
                naive_scan(&values, n_regions, |_| (theta_pos, theta_neg)),
            ];
            let got = [scanned.salient, scanned.extreme, single];
            for (got, want) in got.iter().zip(&time_major) {
                // Region-major: time-major bit `z · R + x` at `x · n_steps + z`.
                let relaid = naive_gather(want, want.pos.len(), |v| {
                    (v % n_steps) * n_regions + v / n_steps
                });
                prop_assert_eq!(got, &relaid);
                prop_assert_eq!(got, &want.region_major(n_regions, n_steps));
            }
            sides.push((n_steps, got, time_major));
        }

        // A window of steps anywhere in each side's rows — or, for two
        // sides of one length, over whole rows.
        let len = if n1 == n2 && d.below(2) == 0 { n1 } else { d.below(n1.min(n2) + 1) };
        let starts = [d.below(n1 - len + 1), d.below(n2 - len + 1)];
        let mut windows = Vec::new();
        let mut crops = Vec::new();
        for ((n_steps, got, time_major), start) in sides.iter().zip(starts) {
            let (mut side_windows, mut side_crops) = (Vec::new(), Vec::new());
            for (set, tm) in got.iter().zip(time_major) {
                let rows = RowWindows::new(set, n_regions, *n_steps, start, len);
                prop_assert_eq!((rows.n_rows(), rows.steps()), (n_regions, len));
                for x in 0..n_regions {
                    let want = naive_gather(tm, len, |z| (start + z) * n_regions + x);
                    prop_assert!(
                        same_bits(rows.row(x), &want),
                        "row {} of {} × {} at step {}", x, n_regions, n_steps, start
                    );
                }
                let crop = naive_gather(tm, len * n_regions, |v| start * n_regions + v);
                prop_assert_eq!(rows.count(), crop.count());
                side_windows.push(rows);
                side_crops.push(crop);
            }
            windows.push(side_windows);
            crops.push(side_crops);
        }
        for k in 0..3 {
            let (signs, related) = windows[0][k].intersect(&windows[1][k]);
            let (a, b) = (&crops[0][k], &crops[1][k]);
            prop_assert_eq!((signs.n_pos, signs.n_neg, related), naive_counts(a, b));
            // …which is what `evaluate_features` counts on the two crops.
            let (whole, whole_related) =
                FeatureWindow::whole(a).intersect(&FeatureWindow::whole(b));
            prop_assert_eq!(
                (signs.n_pos, signs.n_neg, related),
                (whole.n_pos, whole.n_neg, whole_related)
            );
        }
    }
}
