//! Feature sets: positive/negative, salient/extreme (paper Definitions 6–7).
//!
//! A *positive feature* is a spatio-temporal point in the super-level set at
//! θ⁺; a *negative feature* is a point in the sub-level set at θ⁻. The
//! framework precomputes both the salient and the extreme feature sets per
//! scalar function during indexing and stores them as bit vectors.
//!
//! A feature set is laid out *region-major*: bit `x · n_steps + z` is
//! region `x` at step `z`, so each region's steps are one contiguous row
//! (a 1-D function's one row is its whole series). The scan writes that
//! layout directly. A window of steps is then the same run of bits in
//! every row ([`RowWindows`]): the intersection sums the rows, and a
//! spatial shift re-pairs them.
//!
//! A relationship compares two functions on their common window, and a
//! Monte Carlo draw compares them after a rotation or a graph shift: both
//! read a [`FeatureWindow`] — bits `[start, start + len)` of a stored set,
//! where they lie, never copied — and count sign agreement with one kernel
//! of two popcounts per 64 points ([`FeatureWindow::sign_counts`]):
//!
//! ```text
//! same     = (P1 ∧ P2) ∨ (N1 ∧ N2)        #p = |same|
//! opposite = (P1 ∧ N2) ∨ (N1 ∧ P2)        #n = |opposite|
//! ```
//!
//! The intersection adds a third, `|Σ| = |same ∨ opposite|`
//! ([`FeatureWindow::intersect`]).
//!
//! `#p = |P1∧P2| + |N1∧N2|` counts a point twice where it is a positive
//! *and* a negative feature of both functions; `|same|` counts it once
//! (likewise `#n`). Such a point needs θ⁻ ≥ θ⁺ on both sides — degenerate
//! thresholds, which a `thresholds` clause can set and automatic thresholds
//! give sparse count functions whose salient thresholds collapse onto their
//! zeros. The loop ORs `P1∧N1∧P2∧N2` together, branch-free; only if that
//! ends non-zero does a second pass count it and add it to `#p` and `#n`.
//! Every count stays an exact integer.

use crate::bitvec::BitVec;
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

    /// The features of the time-major field `values` (`n_regions` values
    /// per step) under one user-given threshold pair: `pos = f ≥ θ⁺`,
    /// `neg = f ≤ θ⁻`, pointwise (undefined values and NaN thresholds yield
    /// no features), laid out region-major.
    pub fn scan(values: &[f64], n_regions: usize, theta_pos: f64, theta_neg: f64) -> Self {
        let [(pos, neg)] = threshold_scan(values, n_regions, |_| [(theta_pos, theta_neg)]);
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

    /// A time-major set re-laid region-major, both sides (see
    /// [`BitVec::region_major`]).
    pub fn region_major(&self, n_regions: usize, n_steps: usize) -> FeatureSet {
        FeatureSet {
            pos: self.pos.region_major(n_regions, n_steps),
            neg: self.neg.region_major(n_regions, n_steps),
        }
    }

    /// Copies both sides' bits `[start, end)`: a step range of a time-major
    /// set or of one region's row. The query path reads windows in place
    /// instead ([`FeatureWindow`]).
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

/// Sign agreement between two equal-length windows (paper Definitions
/// 9–11), as exact integers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SignCounts {
    /// `#p = |P1∧P2| + |N1∧N2|` — positively related points.
    pub n_pos: usize,
    /// `#n = |P1∧N2| + |N1∧P2|` — negatively related points.
    pub n_neg: usize,
    /// Second passes run because some point was a positive and a negative
    /// feature of both windows (see the module docs).
    pub overlap_passes: usize,
}

impl std::ops::AddAssign for SignCounts {
    fn add_assign(&mut self, other: SignCounts) {
        self.n_pos += other.n_pos;
        self.n_neg += other.n_neg;
        self.overlap_passes += other.overlap_passes;
    }
}

/// Bits `[start, start + len)` of a feature set, read where they lie: a
/// run of steps of one region's row, or any other run of bits.
#[derive(Debug, Clone, Copy)]
pub struct FeatureWindow<'a> {
    set: &'a FeatureSet,
    start: usize,
    len: usize,
}

impl<'a> FeatureWindow<'a> {
    /// Bits `[start, start + len)` of `set`.
    ///
    /// # Panics
    ///
    /// If the window reaches past the set's last bit.
    pub fn new(set: &'a FeatureSet, start: usize, len: usize) -> Self {
        assert!(
            start
                .checked_add(len)
                .is_some_and(|end| end <= set.pos.len()),
            "a {len}-bit window at bit {start} overruns a {}-bit feature set",
            set.pos.len()
        );
        Self { set, start, len }
    }

    /// The whole of `set`.
    pub fn whole(set: &'a FeatureSet) -> Self {
        Self::new(set, 0, set.pos.len())
    }

    /// Feature points (positive or negative) in the window.
    pub fn count(&self) -> usize {
        if self.len == 0 {
            return 0;
        }
        let end = self.start + self.len;
        let (first, last) = (self.start / 64, (end - 1) / 64);
        let pos = &self.set.pos.words()[first..=last];
        let neg = &self.set.neg.words()[first..=last];
        let words: usize = pos
            .iter()
            .zip(neg)
            .map(|(p, n)| (p | n).count_ones() as usize)
            .sum();
        // Take back the bits before the window in its first word and those
        // past it in its last.
        let before = (pos[0] | neg[0]) & ((1u64 << (self.start % 64)) - 1);
        let after = (pos[last - first] | neg[last - first]) & (u64::MAX << 1 << ((end - 1) % 64));
        words - before.count_ones() as usize - after.count_ones() as usize
    }

    /// Sign agreement of bit `i` of this window with bit `i` of `other`,
    /// for every `i`.
    ///
    /// # Panics
    ///
    /// If the windows differ in length.
    pub fn sign_counts(&self, other: &FeatureWindow<'_>) -> SignCounts {
        self.assert_aligned_with(other);
        let (l, r) = (self.start, other.start);
        range_sign_counts::<false>(self.set, l, other.set, r, self.len).0
    }

    /// [`FeatureWindow::sign_counts`] and `|Σ|`, the points that are a
    /// feature of both windows: the relationship's intersection.
    ///
    /// # Panics
    ///
    /// If the windows differ in length.
    pub fn intersect(&self, other: &FeatureWindow<'_>) -> (SignCounts, usize) {
        self.assert_aligned_with(other);
        // The counts are symmetric in the two sides: read the window that
        // starts lower in its word as it lies, so the pass spans as few of
        // its words as it can (a short window saves a whole step).
        let (a, b) = if self.start % 64 <= other.start % 64 {
            (self, other)
        } else {
            (other, self)
        };
        range_sign_counts::<true>(a.set, a.start, b.set, b.start, self.len)
    }

    /// [`FeatureWindow::sign_counts`] after rotating this window by `shift`
    /// on the circle of its bits (bit `z` moves to `(z + shift) % len`):
    /// the restricted Monte Carlo test's inner step.
    ///
    /// Nothing is moved: the rotation splits both circles into two arcs
    /// that line up again, `self[0..len-s]` with `other[s..len]` and
    /// `self[len-s..len]` with `other[0..s]`, and each pair of arcs is one
    /// kernel call.
    ///
    /// # Panics
    ///
    /// If the windows differ in length.
    pub fn rotated_sign_counts(&self, other: &FeatureWindow<'_>, shift: usize) -> SignCounts {
        self.assert_aligned_with(other);
        let len = self.len;
        if len == 0 {
            return SignCounts::default();
        }
        let s = shift % len;
        let (l, r) = (self.start, other.start);
        let (mut counts, _) = range_sign_counts::<false>(self.set, l, other.set, r + s, len - s);
        counts += range_sign_counts::<false>(self.set, l + len - s, other.set, r, s).0;
        counts
    }

    fn assert_aligned_with(&self, other: &FeatureWindow<'_>) {
        assert_eq!(
            self.len, other.len,
            "sign counts of a {}-bit and a {}-bit window",
            self.len, other.len
        );
    }
}

/// The same run of steps in every row of a region-major feature set (row
/// `x` is bits `[x · stride, (x + 1) · stride)`; a 1-D domain's one row is
/// its field): what the intersection sums and a Monte Carlo draw
/// re-pairs, read in place.
#[derive(Debug, Clone, Copy)]
pub struct RowWindows<'a> {
    set: &'a FeatureSet,
    n_rows: usize,
    stride: usize,
    start: usize,
    steps: usize,
}

impl<'a> RowWindows<'a> {
    /// Steps `[start, start + steps)` of each of the `n_rows` rows of
    /// `stride` steps that `set` holds.
    ///
    /// # Panics
    ///
    /// Unless `set` is exactly `n_rows` rows of `stride` bits and the
    /// window ends inside a row.
    pub fn new(
        set: &'a FeatureSet,
        n_rows: usize,
        stride: usize,
        start: usize,
        steps: usize,
    ) -> Self {
        assert_eq!(
            n_rows.checked_mul(stride),
            Some(set.pos.len()),
            "{n_rows} rows of {stride} steps in a {}-bit feature set",
            set.pos.len()
        );
        assert!(
            start.checked_add(steps).is_some_and(|end| end <= stride),
            "a {steps}-step window at step {start} overruns a {stride}-step row"
        );
        Self {
            set,
            n_rows,
            stride,
            start,
            steps,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Steps per row.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Row `x`'s window.
    pub fn row(&self, x: usize) -> FeatureWindow<'a> {
        debug_assert!(x < self.n_rows, "row {x} of {}", self.n_rows);
        FeatureWindow {
            set: self.set,
            start: x * self.stride + self.start,
            len: self.steps,
        }
    }

    /// The whole set, if the window covers whole rows: they lie end to end
    /// as one run of bits.
    fn whole_rows(&self) -> Option<FeatureWindow<'a>> {
        (self.start == 0 && self.steps == self.stride).then(|| FeatureWindow::whole(self.set))
    }

    /// Feature points (positive or negative) in the window, over all rows.
    pub fn count(&self) -> usize {
        (0..self.n_rows).map(|x| self.row(x).count()).sum()
    }

    /// [`FeatureWindow::intersect`] of each row's window with the same row
    /// of `other`, summed over the rows: the relationship's intersection.
    /// Where both windows cover whole rows, that is one pass over the sets.
    ///
    /// # Panics
    ///
    /// If the two differ in rows or in steps.
    pub fn intersect(&self, other: &RowWindows<'_>) -> (SignCounts, usize) {
        assert_eq!(
            self.n_rows, other.n_rows,
            "intersection of {} and {} rows",
            self.n_rows, other.n_rows
        );
        if let (Some(a), Some(b)) = (self.whole_rows(), other.whole_rows()) {
            return a.intersect(&b);
        }
        let (mut signs, mut related) = (SignCounts::default(), 0);
        for x in 0..self.n_rows {
            let (s, r) = self.row(x).intersect(&other.row(x));
            signs += s;
            related += r;
        }
        (signs, related)
    }
}

/// A window of at most [`ShortWindow::MAX_LEN`] bits held in registers:
/// its positive and negative bits as two `u128`s, bit `z` of each the
/// window's bit `z`. A 1-D operand of a short window (a day, week or month
/// series) is extracted once and then intersected and rotated with a few
/// word operations, where [`FeatureWindow`] re-reads and re-aligns its
/// words on every call. Every count equals [`FeatureWindow`]'s on the same
/// bits, [`SignCounts::overlap_passes`] included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShortWindow {
    pos: u128,
    neg: u128,
    len: usize,
}

impl ShortWindow {
    /// The longest window held in registers.
    pub const MAX_LEN: usize = 128;

    /// `window`'s bits, if it is at most [`ShortWindow::MAX_LEN`] long.
    pub fn new(window: &FeatureWindow<'_>) -> Option<Self> {
        let (start, len) = (window.start, window.len);
        (len <= Self::MAX_LEN).then(|| Self {
            pos: window_bits(window.set.pos.words(), start, len),
            neg: window_bits(window.set.neg.words(), start, len),
            len,
        })
    }

    /// Bits in the window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window holds no bit.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Feature points (positive or negative) in the window.
    pub fn count(&self) -> usize {
        (self.pos | self.neg).count_ones() as usize
    }

    /// [`FeatureWindow::intersect`] on the windows' bits.
    ///
    /// # Panics
    ///
    /// If the windows differ in length.
    pub fn intersect(&self, other: &ShortWindow) -> (SignCounts, usize) {
        self.assert_aligned_with(other);
        let (counts, quad) = sign_quad(self, other.pos, other.neg);
        // `|same ∨ opposite| = |(P1∨N1) ∧ (P2∨N2)|`.
        let related = ((self.pos | self.neg) & (other.pos | other.neg)).count_ones() as usize;
        let passes = usize::from(quad != 0);
        (
            SignCounts {
                overlap_passes: passes,
                ..counts
            },
            related,
        )
    }

    /// [`FeatureWindow::rotated_sign_counts`] on the windows' bits: this
    /// window rotated by `shift` against `other`, which is `other` rotated
    /// back by `shift` against this one — two shifts and a mask. The
    /// kernel's second pass runs once per arc that holds a point both
    /// positive and negative on both sides, and so is counted here.
    ///
    /// # Panics
    ///
    /// If the windows differ in length.
    pub fn rotated_sign_counts(&self, other: &ShortWindow, shift: usize) -> SignCounts {
        self.assert_aligned_with(other);
        let len = self.len;
        if len == 0 {
            return SignCounts::default();
        }
        let s = shift % len;
        // Bit `z` of `other` rotated back is bit `(z + s) % len` of `other`:
        // the first arc, `z < len − s`, from its top, the second from its
        // bottom.
        let mask = low_bits(len);
        let back = |w: u128| ((w >> s) | w.checked_shl((len - s) as u32).unwrap_or(0)) & mask;
        let (counts, quad) = sign_quad(self, back(other.pos), back(other.neg));
        let first = low_bits(len - s);
        let passes = usize::from(quad & first != 0) + usize::from(quad & !first != 0);
        SignCounts {
            overlap_passes: passes,
            ..counts
        }
    }

    fn assert_aligned_with(&self, other: &ShortWindow) {
        assert_eq!(
            self.len, other.len,
            "sign counts of a {}-bit and a {}-bit window",
            self.len, other.len
        );
    }
}

/// `#p` and `#n` of `w` against the bits `(p2, n2)` lined up with it, with
/// the points positive and negative on both sides (`P1∧N1∧P2∧N2`), which
/// both counts take twice.
#[inline(always)]
fn sign_quad(w: &ShortWindow, p2: u128, n2: u128) -> (SignCounts, u128) {
    let (p1, n1) = (w.pos, w.neg);
    let same = (p1 & p2) | (n1 & n2);
    let opposite = (p1 & n2) | (n1 & p2);
    let quad = p1 & n1 & p2 & n2;
    let twice = quad.count_ones() as usize;
    let counts = SignCounts {
        n_pos: same.count_ones() as usize + twice,
        n_neg: opposite.count_ones() as usize + twice,
        overlap_passes: 0,
    };
    (counts, quad)
}

/// The lowest `n ≤ 128` bits set.
fn low_bits(n: usize) -> u128 {
    u128::MAX.checked_shr((128 - n) as u32).unwrap_or(0)
}

/// Bits `[start, start + len)` of `words` (`len ≤ 128`), bit `start` at
/// bit 0: at most three words, those past the end read as zeros.
fn window_bits(words: &[u64], start: usize, len: usize) -> u128 {
    let (first, offset) = (start / 64, (start % 64) as u32);
    let word = |k: usize| u128::from(words.get(first + k).copied().unwrap_or(0));
    let low = (word(0) | (word(1) << 64)) >> offset;
    let high = word(2).checked_shl(128 - offset).unwrap_or(0);
    (low | high) & low_bits(len)
}

/// What one pass of the kernel adds up over a range, 64 points at a time
/// (`p1`, `n1` of one side and `p2`, `n2` of the other). Every pass is
/// symmetric in the two sides.
trait Pass: Default {
    fn add(&mut self, p1: u64, n1: u64, p2: u64, n2: u64);
}

/// The first pass: two popcounts per word, and with `RELATED` a third.
#[derive(Default)]
struct Tally<const RELATED: bool> {
    same: usize,
    opposite: usize,
    /// `|same ∨ opposite| = |(P1∨N1) ∧ (P2∨N2)|`, if `RELATED`.
    related: usize,
    /// OR of every `P1∧N1∧P2∧N2`.
    quad: u64,
}

impl<const RELATED: bool> Pass for Tally<RELATED> {
    #[inline(always)]
    fn add(&mut self, p1: u64, n1: u64, p2: u64, n2: u64) {
        let same = (p1 & p2) | (n1 & n2);
        let opposite = (p1 & n2) | (n1 & p2);
        self.same += same.count_ones() as usize;
        self.opposite += opposite.count_ones() as usize;
        if RELATED {
            self.related += (same | opposite).count_ones() as usize;
        }
        self.quad |= p1 & n1 & p2 & n2;
    }
}

/// The second pass: `|P1∧N1∧P2∧N2|`, the points `|same|` and `|opposite|`
/// count once but `#p` and `#n` twice.
#[derive(Default)]
struct Quads(usize);

impl Pass for Quads {
    #[inline(always)]
    fn add(&mut self, p1: u64, n1: u64, p2: u64, n2: u64) {
        self.0 += (p1 & n1 & p2 & n2).count_ones() as usize;
    }
}

/// [`SignCounts`] of bits `[l0, l0 + len)` of `left` against bits
/// `[r0, r0 + len)` of `right` (both in range), and with `RELATED` the
/// points that are a feature of both (0 without).
fn range_sign_counts<const RELATED: bool>(
    left: &FeatureSet,
    l0: usize,
    right: &FeatureSet,
    r0: usize,
    len: usize,
) -> (SignCounts, usize) {
    let tally: Tally<RELATED> = sweep(left, l0, right, r0, len);
    let mut counts = SignCounts {
        n_pos: tally.same,
        n_neg: tally.opposite,
        overlap_passes: 0,
    };
    if tally.quad != 0 {
        let Quads(quad) = sweep(left, l0, right, r0, len);
        counts.n_pos += quad;
        counts.n_neg += quad;
        counts.overlap_passes = 1;
    }
    (counts, tally.related)
}

/// One pass over bits `[a0, a0 + len)` of `a` and `[b0, b0 + len)` of `b`
/// (the pass is symmetric, so either side may be `a`). `a`'s words are
/// read as they lie, and each is paired with the 64 bits of `b` that line
/// up with it: two neighbouring words of `b`, funnel-shifted. The first
/// and last words of `a` hold bits outside the range; masking the `b` word
/// paired with each clears them from every product. Nothing branches on
/// the offsets, so random rotations cost no mispredictions.
fn sweep<P: Pass>(a: &FeatureSet, a0: usize, b: &FeatureSet, b0: usize, len: usize) -> P {
    let mut pass = P::default();
    if len == 0 {
        return pass;
    }
    let (first, ao) = (a0 / 64, a0 % 64);
    let n = (a0 + len - 1) / 64 + 1 - first;
    let (ap, an) = (
        &a.pos.words()[first..first + n],
        &a.neg.words()[first..first + n],
    );
    let (bp, bn) = (b.pos.words(), b.neg.words());
    let head = u64::MAX << ao;
    let tail = u64::MAX >> (63 - (a0 + len - 1) % 64);
    // The bits of `b` under `a`'s word `k` start at bit `64 (q + k − 1) +
    // shift`: the top of `b[q + k − 1]` and the bottom of `b[q + k]`.
    let bit = b0 + 64 - ao;
    let (q, shift) = (bit / 64, bit % 64);
    let join = |lo: u64, hi: u64| (lo >> shift) | ((hi << 1) << (63 - shift));
    // At the two ends either word may lie outside `b`: one before `b[0]`
    // reads as zeros, one past its last word as that word again. Either way
    // the bits they give lie outside the range, under the masks.
    let top = bp.len() - 1;
    let before_b = 0u64.wrapping_sub(u64::from(q > 0));
    let ends = |w: &[u64], k: usize| {
        let (lo, hi) = (w[(q + k).wrapping_sub(1).min(top)], w[(q + k).min(top)]);
        join(if k == 0 { lo & before_b } else { lo }, hi)
    };
    if n == 1 {
        let mask = head & tail;
        pass.add(ap[0], an[0], ends(bp, 0) & mask, ends(bn, 0) & mask);
        return pass;
    }
    pass.add(ap[0], an[0], ends(bp, 0) & head, ends(bn, 0) & head);
    // The words in between: equal-length re-sliced runs with no per-word
    // checks, which vectorize. `b`'s run is one word longer, for the funnel
    // shift's second word.
    let m = n - 2;
    let (ap_mid, an_mid) = (&ap[1..=m], &an[1..=m]);
    let (bp_mid, bn_mid) = (&bp[q..=q + m], &bn[q..=q + m]);
    for k in 0..m {
        let (p2, n2) = (
            join(bp_mid[k], bp_mid[k + 1]),
            join(bn_mid[k], bn_mid[k + 1]),
        );
        pass.add(ap_mid[k], an_mid[k], p2, n2);
    }
    let (p2, n2) = (ends(bp, n - 1) & tail, ends(bn, n - 1) & tail);
    pass.add(ap[n - 1], an[n - 1], p2, n2);
    pass
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
    /// thresholds (paper Section 3.3), laid out region-major: one pointwise
    /// pass, see [`crate::level_set`] for why that is the level sets'
    /// union.
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

    /// `a` at bit `at` of a longer set whose other bits are all set, so a
    /// window that reads one bit too many shows it.
    fn embedded(a: &FeatureSet, at: usize, after: usize) -> FeatureSet {
        let len = a.pos.len();
        let mut long = FeatureSet::empty(at + len + after);
        for i in (0..at).chain(at + len..at + len + after) {
            long.pos.set(i);
            long.neg.set(i);
        }
        for i in 0..len {
            if a.pos.get(i) {
                long.pos.set(at + i);
            }
            if a.neg.get(i) {
                long.neg.set(at + i);
            }
        }
        long
    }

    #[test]
    fn rotated_counts_match_a_moved_copy() {
        // Overlapping pos/neg on purpose: the counts are per sign pair.
        for len in [0usize, 1, 2, 63, 64, 65, 200, 256, 257, 700] {
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
                let n_pos = moved.pos.and_count(&b.pos) + moved.neg.and_count(&b.neg);
                let n_neg = moved.pos.and_count(&b.neg) + moved.neg.and_count(&b.pos);
                let related = moved.all().and_count(&b.all());
                // Aligned, at bit offsets on one side or both, and with a
                // window ending in the last word of its set or before it.
                for (l0, r0, after) in
                    [(0, 0, 0), (3, 0, 1), (0, 70, 64), (64, 128, 5), (127, 1, 0)]
                {
                    let (long_a, long_b) = (embedded(&a, l0, after), embedded(&b, r0, 2 * after));
                    let (wa, wb) = (
                        FeatureWindow::new(&long_a, l0, len),
                        FeatureWindow::new(&long_b, r0, len),
                    );
                    assert_eq!((wa.count(), wb.count()), (a.count(), b.count()));
                    let got = wa.rotated_sign_counts(&wb, shift);
                    assert_eq!(
                        (got.n_pos, got.n_neg),
                        (n_pos, n_neg),
                        "len {len}, shift {shift}, windows at {l0} and {r0}"
                    );
                    if shift % len.max(1) == 0 {
                        assert_eq!(got, wa.sign_counts(&wb));
                        assert_eq!(wa.intersect(&wb), (got, related));
                    }
                }
            }
        }
    }

    #[test]
    fn only_points_both_signed_on_both_sides_take_a_second_pass() {
        let mut a = FeatureSet::empty(300);
        let mut b = FeatureSet::empty(300);
        for i in 0..300 {
            match i % 7 {
                0 | 1 => a.pos.set(i),
                2 => a.neg.set(i),
                _ => {}
            }
            match i % 5 {
                0 => b.pos.set(i),
                1 | 2 => b.neg.set(i),
                _ => {}
            }
        }
        let counts = |a: &FeatureSet, b: &FeatureSet| {
            FeatureWindow::whole(a).intersect(&FeatureWindow::whole(b))
        };
        let (signs, related) = counts(&a, &b);
        assert_eq!(signs.overlap_passes, 0);
        assert_eq!(related, signs.n_pos + signs.n_neg);
        assert_eq!(related, a.all().and_count(&b.all()));
        // Point 0 both positive and negative on one side only: `#p` and
        // `#n` each count it once, `|Σ|` once.
        a.neg.set(0);
        let (signs, related) = counts(&a, &b);
        assert_eq!(signs.overlap_passes, 0);
        assert_eq!(related + 1, signs.n_pos + signs.n_neg);
        // On both sides: twice each, in the second pass.
        b.neg.set(0);
        let (signs, related) = counts(&a, &b);
        assert_eq!(signs.overlap_passes, 1);
        assert_eq!(related + 3, signs.n_pos + signs.n_neg);
    }

    #[test]
    #[should_panic(expected = "overruns a 100-bit feature set")]
    fn a_window_past_the_set_is_refused() {
        FeatureWindow::new(&FeatureSet::empty(100), 40, 61);
    }

    #[test]
    #[should_panic(expected = "a 9-step window at step 2 overruns a 10-step row")]
    fn a_row_window_past_a_row_is_refused() {
        RowWindows::new(&FeatureSet::empty(20), 2, 10, 2, 9);
    }

    #[test]
    #[should_panic(expected = "3 rows of 7 steps in a 20-bit feature set")]
    fn rows_that_do_not_tile_the_set_are_refused() {
        RowWindows::new(&FeatureSet::empty(20), 3, 7, 0, 7);
    }

    #[test]
    #[should_panic(expected = "sign counts of a 64-bit and a 63-bit window")]
    fn sign_counts_of_unequal_windows_are_refused() {
        let set = FeatureSet::empty(200);
        FeatureWindow::new(&set, 0, 64).sign_counts(&FeatureWindow::new(&set, 1, 63));
    }

    #[test]
    #[should_panic(expected = "sign counts of a 5-bit and a 6-bit window")]
    fn rotated_counts_of_unequal_windows_are_refused() {
        let set = FeatureSet::empty(20);
        let (five, six) = (
            FeatureWindow::new(&set, 0, 5),
            FeatureWindow::new(&set, 0, 6),
        );
        five.rotated_sign_counts(&six, 1);
    }

    #[test]
    fn class_accessor() {
        let (g, f) = spiky();
        let fs = feature_sets(&g, &f);
        assert_eq!(fs.class(FeatureClass::Salient), &fs.salient);
        assert_eq!(fs.class(FeatureClass::Extreme), &fs.extreme);
        assert_eq!(FeatureClass::Salient.label(), "salient");
    }

    mod short_windows_are_the_kernel {
        use super::*;
        use proptest::prelude::*;

        /// Five words of random bits, thinned by ANDing rotated copies in
        /// `thin` times: from half the points down to one in sixteen.
        fn side(bits: &[u64], thin: u32) -> BitVec {
            let words = bits
                .iter()
                .map(|&w| (0..thin).fold(w, |acc, k| acc & w.rotate_left(13 + 7 * k)))
                .collect();
            BitVec::from_words(64 * bits.len(), words).expect("whole words")
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Register-held windows of every length up to 128, starting
            /// anywhere in a word so that they span one, two or three
            /// words, against [`FeatureWindow`] at every shift: the counts,
            /// the overlap passes per arc, the intersection and `|Σ|`.
            #[test]
            fn at_every_shift(
                len in 0usize..=ShortWindow::MAX_LEN,
                starts in prop::collection::vec(0usize..128, 2),
                bits in prop::collection::vec(0u64..u64::MAX, 20),
                thin in prop::collection::vec(0u32..4, 4),
            ) {
                let a = FeatureSet { pos: side(&bits[0..5], thin[0]), neg: side(&bits[5..10], thin[1]) };
                let b = FeatureSet { pos: side(&bits[10..15], thin[2]), neg: side(&bits[15..20], thin[3]) };
                let (wa, wb) = (FeatureWindow::new(&a, starts[0], len), FeatureWindow::new(&b, starts[1], len));
                let (sa, sb) = (ShortWindow::new(&wa).unwrap(), ShortWindow::new(&wb).unwrap());
                prop_assert_eq!((sa.len(), sa.count(), sb.count()), (len, wa.count(), wb.count()));
                prop_assert_eq!(sa.intersect(&sb), wa.intersect(&wb));
                for shift in 0..len.max(1) {
                    // The shift rides along, so a failure names it.
                    prop_assert_eq!(
                        (shift, sa.rotated_sign_counts(&sb, shift)),
                        (shift, wa.rotated_sign_counts(&wb, shift))
                    );
                }
            }
        }

        #[test]
        fn the_cases_reach_every_word_span_and_both_overlap_arcs() {
            // What the proptest's draws must cover for it to mean anything:
            // windows over one, two and three words, and rotations whose
            // overlap passes are 0, 1 and 2.
            let mut set = FeatureSet::empty(320);
            for i in 0..320 {
                set.pos.set(i);
                set.neg.set(i);
            }
            let span = |start: usize, len: usize| (start + len - 1) / 64 - start / 64 + 1;
            assert_eq!([span(0, 64), span(1, 64), span(63, 128)], [1, 2, 3]);
            let w = ShortWindow::new(&FeatureWindow::new(&set, 63, 128)).unwrap();
            assert_eq!(w.rotated_sign_counts(&w, 5).overlap_passes, 2);
            assert_eq!(w.rotated_sign_counts(&w, 0).overlap_passes, 1);
            let empty =
                ShortWindow::new(&FeatureWindow::new(&FeatureSet::empty(64), 0, 64)).unwrap();
            assert_eq!(w.count(), 128);
            let half = ShortWindow::new(&FeatureWindow::new(&set, 0, 64)).unwrap();
            assert_eq!(half.rotated_sign_counts(&empty, 3).overlap_passes, 0);
            assert!(ShortWindow::new(&FeatureWindow::new(&set, 0, 129)).is_none());
        }
    }
}
