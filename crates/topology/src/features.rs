//! Feature sets: positive/negative, salient/extreme (paper Definitions 6–7).
//!
//! A *positive feature* is a spatio-temporal point in the super-level set at
//! θ⁺; a *negative feature* is a point in the sub-level set at θ⁻. The
//! framework precomputes both the salient and the extreme feature sets per
//! scalar function during indexing and stores them as bit vectors.

use crate::bitvec::{funnel_word, BitVec};
use crate::graph::DomainGraph;
use crate::level_set::threshold_scan;
use crate::merge_tree::MergeTree;
use crate::threshold::SeasonalThresholds;

/// Salient vs extreme features — relationships are evaluated separately for
/// each class (paper Section 5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureClass {
    /// Features beyond the persistence-derived salient thresholds.
    Salient,
    /// Outliers among salient features (box-plot fences).
    Extreme,
}

impl FeatureClass {
    /// Both classes.
    pub const ALL: [FeatureClass; 2] = [FeatureClass::Salient, FeatureClass::Extreme];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            FeatureClass::Salient => "salient",
            FeatureClass::Extreme => "extreme",
        }
    }

    /// The variant's Rust name (`"Salient"`): how every JSON boundary
    /// writes it.
    pub fn name(self) -> &'static str {
        match self {
            FeatureClass::Salient => "Salient",
            FeatureClass::Extreme => "Extreme",
        }
    }
}

/// Positive and negative features of one scalar function at one class.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSet {
    /// Super-level-set membership (Definition 6).
    pub pos: BitVec,
    /// Sub-level-set membership (Definition 7).
    pub neg: BitVec,
}

impl FeatureSet {
    /// An empty feature set over `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            pos: BitVec::zeros(n),
            neg: BitVec::zeros(n),
        }
    }

    /// The features of `values` under one user-given threshold pair:
    /// `pos = f ≥ θ⁺`, `neg = f ≤ θ⁻`, pointwise (undefined values and NaN
    /// thresholds yield no features).
    pub fn scan(values: &[f64], theta_pos: f64, theta_neg: f64) -> Self {
        let [(pos, neg)] = threshold_scan(values, values.len(), |_| [(theta_pos, theta_neg)]);
        Self { pos, neg }
    }

    /// `Σᵢ` — all feature points (positive or negative). Positive and
    /// negative sets are disjoint whenever θ⁻ < θ⁺, which the threshold
    /// construction guarantees for non-degenerate functions.
    pub fn all(&self) -> BitVec {
        let mut u = self.pos.clone();
        u.or_assign(&self.neg);
        u
    }

    /// Number of feature points.
    pub fn count(&self) -> usize {
        self.pos.or_count(&self.neg)
    }

    /// `(#p, #n)` against `other` after rotating this set by `shift` on
    /// the circle of its `len` bits (bit `z` moves to `(z + shift) % len`):
    /// points whose feature signs agree, and points whose signs disagree.
    ///
    /// The restricted Monte Carlo test's inner step. Nothing is moved: the
    /// rotation splits both circles into two arcs that line up again,
    /// `self[0..len-s]` with `other[s..len]` and `self[len-s..len]` with
    /// `other[0..s]`, and each pair of arcs is counted word-wise.
    pub fn rotated_related_counts(&self, other: &FeatureSet, shift: usize) -> (usize, usize) {
        let len = self.pos.len();
        debug_assert_eq!(len, other.pos.len());
        if len == 0 {
            return (0, 0);
        }
        let s = shift % len;
        let (p0, n0) = self.related_counts_range(0, other, s, len - s);
        let (p1, n1) = self.related_counts_range(len - s, other, 0, s);
        (p0 + p1, n0 + n1)
    }

    /// `(#p, #n)` between bits `[l0, l0 + len)` of this set and bits
    /// `[r0, r0 + len)` of `other`.
    fn related_counts_range(
        &self,
        l0: usize,
        other: &FeatureSet,
        r0: usize,
        len: usize,
    ) -> (usize, usize) {
        if len == 0 {
            return (0, 0);
        }
        let (lp, ln) = (self.pos.words(), self.neg.words());
        let (rp, rn) = (other.pos.words(), other.neg.words());
        let counts = |p1: u64, n1: u64, p2: u64, n2: u64| {
            (
                ((p1 & p2).count_ones() + (n1 & n2).count_ones()) as usize,
                ((p1 & n2).count_ones() + (n1 & p2).count_ones()) as usize,
            )
        };
        let (mut same, mut opposite) = (0usize, 0usize);
        // Every 64-bit step but the last has its funnel shift's second word
        // in bounds, so those run over plain slices with no per-word checks.
        let n_words = len.div_ceil(64);
        let bulk = n_words - 1;
        fn steps(words: &[u64], bit: usize, bulk: usize) -> impl Iterator<Item = u64> + '_ {
            let (w, o) = (bit / 64, bit % 64);
            let (lo, hi) = (&words[w..w + bulk], &words[w + 1..w + 1 + bulk]);
            lo.iter()
                .zip(hi)
                .map(move |(&lo, &hi)| (lo >> o) | ((hi << 1) << (63 - o)))
        }
        let lefts = steps(lp, l0, bulk).zip(steps(ln, l0, bulk));
        let rights = steps(rp, r0, bulk).zip(steps(rn, r0, bulk));
        for ((p1, n1), (p2, n2)) in lefts.zip(rights) {
            let (s, o) = counts(p1, n1, p2, n2);
            same += s;
            opposite += o;
        }
        // The last step may end both the range and the vectors.
        let (l, r) = (l0 + 64 * bulk, r0 + 64 * bulk);
        let mask = u64::MAX >> (64 * n_words - len);
        let (s, o) = counts(
            funnel_word(lp, l) & mask,
            funnel_word(ln, l) & mask,
            funnel_word(rp, r),
            funnel_word(rn, r),
        );
        (same + s, opposite + o)
    }

    /// Both sides re-laid as one `n_steps`-bit row per region (see
    /// [`BitVec::region_major`]).
    pub fn region_major(&self, n_regions: usize, n_steps: usize) -> Vec<FeatureSet> {
        let pos = self.pos.region_major(n_regions, n_steps);
        let neg = self.neg.region_major(n_regions, n_steps);
        pos.into_iter()
            .zip(neg)
            .map(|(pos, neg)| FeatureSet { pos, neg })
            .collect()
    }

    /// Crops both sides to the vertex range `[start, end)` — used to align
    /// two functions on their overlapping time window (time-major layout
    /// makes a step range a contiguous vertex range).
    pub fn slice(&self, start: usize, end: usize) -> FeatureSet {
        FeatureSet {
            pos: self.pos.slice(start, end),
            neg: self.neg.slice(start, end),
        }
    }

    /// Serialized size in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.pos.approx_bytes() + self.neg.approx_bytes()
    }
}

/// Salient and extreme feature sets for one scalar function.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSets {
    /// Features beyond the salient thresholds.
    pub salient: FeatureSet,
    /// Outlier features beyond the box-plot fences.
    pub extreme: FeatureSet,
}

impl FeatureSets {
    /// Extracts both feature classes of the time-major field `values`
    /// (`n_regions` values per step) under per-seasonal-interval
    /// thresholds (paper Section 3.3): one pointwise pass, see
    /// [`crate::level_set`] for why that is the level sets' union.
    pub fn scan(values: &[f64], n_regions: usize, thresholds: &SeasonalThresholds) -> Self {
        let [salient, extreme] = threshold_scan(values, n_regions, |z| {
            let t = thresholds.of_step(z);
            [
                (t.salient_pos, t.salient_neg),
                (t.extreme_pos, t.extreme_neg),
            ]
        });
        let set = |(pos, neg)| FeatureSet { pos, neg };
        Self {
            salient: set(salient),
            extreme: set(extreme),
        }
    }

    /// [`FeatureSets::scan`] under the signature the tree-driven extraction
    /// had; `benchmark/`'s topology probe still calls it.
    pub fn compute(
        graph: &DomainGraph,
        f: &[f64],
        _join: &MergeTree,
        _split: &MergeTree,
        thresholds: &SeasonalThresholds,
    ) -> Self {
        Self::scan(f, graph.n_regions, thresholds)
    }

    /// Picks a class.
    pub fn class(&self, class: FeatureClass) -> &FeatureSet {
        match class {
            FeatureClass::Salient => &self.salient,
            FeatureClass::Extreme => &self.extreme,
        }
    }

    /// Serialized size in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.salient.approx_bytes() + self.extreme.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threshold::seasonal_thresholds;

    /// Flat series with two tall peaks and one deep valley.
    fn spiky() -> (DomainGraph, Vec<f64>) {
        let mut f = vec![0.0; 120];
        for (i, v) in f.iter_mut().enumerate() {
            *v = 0.2 * ((i % 5) as f64 - 2.0);
        }
        f[30] = 12.0;
        f[31] = 9.0;
        f[80] = 14.0;
        f[60] = -11.0;
        (DomainGraph::time_series(120), f)
    }

    fn feature_sets(g: &DomainGraph, f: &[f64]) -> FeatureSets {
        let join = MergeTree::join(g, f);
        let split = MergeTree::split(g, f);
        let interval: Vec<i64> = vec![0; g.n_steps];
        let th = seasonal_thresholds(&join, &split, g.n_regions, &interval);
        FeatureSets::compute(g, f, &join, &split, &th)
    }

    #[test]
    fn salient_features_cover_spikes() {
        let (g, f) = spiky();
        let fs = feature_sets(&g, &f);
        assert!(
            fs.salient.pos.get(30),
            "peak at 30 must be a positive feature"
        );
        assert!(
            fs.salient.pos.get(80),
            "peak at 80 must be a positive feature"
        );
        assert!(
            fs.salient.neg.get(60),
            "valley at 60 must be a negative feature"
        );
        // The flat ripple must not be salient.
        assert!(!fs.salient.pos.get(0));
        assert!(!fs.salient.neg.get(1));
    }

    #[test]
    fn pos_neg_disjoint() {
        let (g, f) = spiky();
        let fs = feature_sets(&g, &f);
        assert_eq!(fs.salient.pos.and_count(&fs.salient.neg), 0);
        assert_eq!(fs.extreme.pos.and_count(&fs.extreme.neg), 0);
    }

    #[test]
    fn extreme_subset_of_nothing_looser_than_salient() {
        // Extreme thresholds are at least as strict as salient ones, so the
        // extreme set is a subset of the salient set.
        let (g, f) = spiky();
        let fs = feature_sets(&g, &f);
        for v in fs.extreme.pos.iter_ones() {
            assert!(fs.salient.pos.get(v), "extreme pos {v} not salient");
        }
        for v in fs.extreme.neg.iter_ones() {
            assert!(fs.salient.neg.get(v), "extreme neg {v} not salient");
        }
    }

    #[test]
    fn all_and_count() {
        let (g, f) = spiky();
        let fs = feature_sets(&g, &f);
        let all = fs.salient.all();
        assert_eq!(all.count_ones(), fs.salient.count());
        assert_eq!(
            fs.salient.count(),
            fs.salient.pos.count_ones() + fs.salient.neg.count_ones()
        );
    }

    #[test]
    fn rotated_counts_match_a_moved_copy() {
        // Overlapping pos/neg on purpose: the counts are per sign pair.
        for len in [0usize, 1, 2, 63, 64, 65, 200] {
            let mut a = FeatureSet::empty(len);
            let mut b = FeatureSet::empty(len);
            for i in 0..len {
                if i % 3 == 0 {
                    a.pos.set(i);
                }
                if (i * i) % 5 < 2 {
                    a.neg.set(i);
                }
                if i % 4 < 2 {
                    b.pos.set(i);
                }
                if (i / 3) % 3 == 0 {
                    b.neg.set(i);
                }
            }
            for shift in [
                0,
                1,
                2,
                63,
                64,
                65,
                len / 2,
                len.saturating_sub(1),
                len,
                len + 3,
            ] {
                let mut moved = FeatureSet::empty(len);
                for i in 0..len {
                    if a.pos.get(i) {
                        moved.pos.set((i + shift) % len);
                    }
                    if a.neg.get(i) {
                        moved.neg.set((i + shift) % len);
                    }
                }
                let same = moved.pos.and_count(&b.pos) + moved.neg.and_count(&b.neg);
                let opposite = moved.pos.and_count(&b.neg) + moved.neg.and_count(&b.pos);
                assert_eq!(
                    a.rotated_related_counts(&b, shift),
                    (same, opposite),
                    "len {len}, shift {shift}"
                );
            }
        }
    }

    #[test]
    fn class_accessor() {
        let (g, f) = spiky();
        let fs = feature_sets(&g, &f);
        assert_eq!(fs.class(FeatureClass::Salient), &fs.salient);
        assert_eq!(fs.class(FeatureClass::Extreme), &fs.extreme);
        assert_eq!(FeatureClass::Salient.label(), "salient");
    }
}
