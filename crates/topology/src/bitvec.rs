//! Packed bit vectors for feature sets.
//!
//! The paper's relationship-computation job represents each set of features
//! as a bit vector so that intersections reduce to word-level ANDs
//! (Appendix C). This implementation provides exactly the operations the
//! relationship evaluator needs: set/get, population count, intersection
//! counts, window slicing, and the time-major → region-major re-layout for
//! callers that hold time-major sets (the index stores its feature sets
//! region-major from the start). Everything that runs per query works a
//! word at a time, and reads windows in place ([`crate::FeatureWindow`])
//! rather than slicing them.

/// A fixed-length packed bit vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero bit vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            len,
            words: vec![0u64; len.div_ceil(64)],
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i` to 1.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `|self ∧ other|` without materialising the intersection. Panics if
    /// the vectors differ in length, as do `or_count` and `or_assign`.
    pub fn and_count(&self, other: &BitVec) -> usize {
        self.assert_same_len(other, "and_count");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// `|self ∨ other|` without materialising the union.
    pub fn or_count(&self, other: &BitVec) -> usize {
        self.assert_same_len(other, "or_count");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a | b).count_ones() as usize)
            .sum()
    }

    /// In-place union.
    pub fn or_assign(&mut self, other: &BitVec) {
        self.assert_same_len(other, "or_assign");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    fn assert_same_len(&self, other: &BitVec, op: &str) {
        assert_eq!(
            self.len, other.len,
            "{op} of a {}-bit and a {}-bit vector",
            self.len, other.len
        );
    }

    /// Extracts bits `[start, end)` as a new vector (bit `start` becomes
    /// bit 0): a copy of a window, for callers that want one. The query
    /// path reads windows in place ([`crate::FeatureWindow`]).
    ///
    /// # Panics
    ///
    /// Unless `start <= end <= len`.
    pub fn slice(&self, start: usize, end: usize) -> BitVec {
        assert!(
            start <= end && end <= self.len,
            "bits [{start}, {end}) of a {}-bit vector",
            self.len
        );
        let mut out = BitVec::zeros(end - start);
        if start % 64 == 0 {
            let w0 = start / 64;
            let n_words = out.words.len();
            out.words.copy_from_slice(&self.words[w0..w0 + n_words]);
        } else {
            for (k, w) in out.words.iter_mut().enumerate() {
                *w = funnel_word(&self.words, start + 64 * k);
            }
        }
        // Either path copies whole words: drop the source bits past `end`.
        let tail = out.len % 64;
        if tail != 0 {
            if let Some(last) = out.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        out
    }

    /// Re-lays a time-major `n_regions × n_steps` vector (bit
    /// `z * n_regions + x` is region `x` at step `z`) region-major: bit
    /// `x * n_steps + z`, so each region's steps are one contiguous
    /// `n_steps`-bit row, with no padding between rows, and a spatial shift
    /// σ pairs whole rows: `Σ_x |row_l[x] ∧ row_r[σ(x)]|`.
    ///
    /// Works in 64 × 64 blocks: 64 steps of up to 64 regions are gathered
    /// with one funnel shift per step, bit-transposed in registers, and
    /// stored as one word of each region's row. Fewer than 33 regions leave
    /// room in the block, so it takes several runs of 64 steps side by side
    /// (two for 17–32 regions, four for 9–16, …) and one transpose yields
    /// that many words per row.
    pub fn region_major(&self, n_regions: usize, n_steps: usize) -> BitVec {
        assert_eq!(
            Some(self.len),
            n_regions.checked_mul(n_steps),
            "not an n_regions × n_steps vector"
        );
        let mut out = BitVec::zeros(self.len);
        let width = n_regions.clamp(1, 64).next_power_of_two();
        let runs = 64 / width;
        let row_words = n_steps.div_ceil(64);
        for x0 in (0..n_regions).step_by(64) {
            let xn = (n_regions - x0).min(64);
            let mask = u64::MAX >> (64 - xn);
            for z0 in (0..n_steps).step_by(64 * runs) {
                let mut block = [0u64; 64];
                let mut any = 0;
                for (run, zs) in (z0..n_steps).step_by(64).take(runs).enumerate() {
                    let zn = (n_steps - zs).min(64);
                    for (dz, slot) in block[..zn].iter_mut().enumerate() {
                        let bits = funnel_word(&self.words, (zs + dz) * n_regions + x0) & mask;
                        *slot |= bits << (run * width);
                        any |= bits;
                    }
                }
                if any == 0 {
                    continue; // the output starts out zero
                }
                transpose64(&mut block);
                let w0 = z0 / 64;
                for (run, words) in block.chunks(width).take(row_words - w0).enumerate() {
                    for (dx, &word) in words[..xn].iter().enumerate() {
                        // OR the word in at its row's bit offset. Steps past
                        // the row's end were never gathered, so no bit of it
                        // lands in the next row or past the last word.
                        let bit = (x0 + dx) * n_steps + 64 * (w0 + run);
                        let (w, o) = (bit / 64, bit % 64);
                        out.words[w] |= word << o;
                        if o != 0 && word >> (64 - o) != 0 {
                            out.words[w + 1] |= word >> (64 - o);
                        }
                    }
                }
            }
        }
        out
    }

    /// Iterates indices of set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// Serialized size in bytes (for the space-overhead experiment).
    pub fn approx_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// The packed word representation (little-endian bit order within each
    /// word) — the serialization surface for on-disk persistence.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reconstructs a vector from its packed words. Returns `None` when
    /// `words` is not exactly `len.div_ceil(64)` words long or a bit beyond
    /// `len` is set (the representation invariant decoders must enforce).
    pub fn from_words(len: usize, words: Vec<u64>) -> Option<Self> {
        if words.len() != len.div_ceil(64) {
            return None;
        }
        let tail = len % 64;
        if tail != 0 {
            if let Some(&last) = words.last() {
                if last & !((1u64 << tail) - 1) != 0 {
                    return None;
                }
            }
        }
        Some(Self { len, words })
    }
}

impl FromIterator<usize> for BitVec {
    /// Collects set-bit indices; the length becomes `max + 1` (or 0).
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let indices: Vec<usize> = iter.into_iter().collect();
        let len = indices.iter().max().map_or(0, |m| m + 1);
        let mut bv = BitVec::zeros(len);
        for i in indices {
            bv.set(i);
        }
        bv
    }
}

/// The 64 bits of `words` starting at bit offset `bit` (bit `bit` lands in
/// bit 0), zero-padded past the last word: a two-word funnel shift.
#[inline]
pub(crate) fn funnel_word(words: &[u64], bit: usize) -> u64 {
    let (w, o) = (bit / 64, bit % 64);
    // `(x << 1) << (63 - o)` is `x << (64 - o)` that also holds at `o == 0`.
    let hi = words.get(w + 1).map_or(0, |&x| (x << 1) << (63 - o));
    (words[w] >> o) | hi
}

/// Transposes a 64 × 64 bit matrix in place (row `i` is `a[i]`, column `j`
/// is bit `j`): recursive block swaps, 6 rounds of 32 masked exchanges.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            // Swap the high `j` columns of row `k` with the low `j`
            // columns of row `k + j`, within every 2j-wide column group.
            let t = ((a[k] >> j) ^ a[k + j]) & mask;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut bv = BitVec::zeros(130);
        assert_eq!(bv.len(), 130);
        bv.set(0);
        bv.set(64);
        bv.set(129);
        assert!(bv.get(0) && bv.get(64) && bv.get(129));
        assert!(!bv.get(1));
        assert_eq!(bv.count_ones(), 3);
        bv.clear(64);
        assert!(!bv.get(64));
        assert_eq!(bv.count_ones(), 2);
    }

    #[test]
    fn and_or_counts() {
        let mut a = BitVec::zeros(100);
        let mut b = BitVec::zeros(100);
        for i in (0..100).step_by(2) {
            a.set(i);
        }
        for i in (0..100).step_by(3) {
            b.set(i);
        }
        // multiples of 6 in [0, 100): 17 values
        assert_eq!(a.and_count(&b), 17);
        assert_eq!(a.or_count(&b), 50 + 34 - 17);
    }

    #[test]
    fn assign_ops() {
        let mut a = BitVec::zeros(10);
        let mut b = BitVec::zeros(10);
        a.set(1);
        b.set(2);
        a.or_assign(&b);
        assert!(a.get(1) && a.get(2));
    }

    #[test]
    fn iter_ones_order() {
        let mut bv = BitVec::zeros(200);
        for i in [5usize, 63, 64, 65, 199] {
            bv.set(i);
        }
        let ones: Vec<usize> = bv.iter_ones().collect();
        assert_eq!(ones, vec![5, 63, 64, 65, 199]);
    }

    #[test]
    fn from_iter_collects() {
        let bv: BitVec = [3usize, 7, 1].into_iter().collect();
        assert_eq!(bv.len(), 8);
        assert_eq!(bv.count_ones(), 3);
        assert!(bv.get(1) && bv.get(3) && bv.get(7));
    }

    #[test]
    fn slice_aligned_and_unaligned() {
        let mut bv = BitVec::zeros(200);
        for i in [0usize, 63, 64, 100, 130, 199] {
            bv.set(i);
        }
        // Aligned slice.
        let s = bv.slice(64, 192);
        assert_eq!(s.len(), 128);
        let ones: Vec<usize> = s.iter_ones().collect();
        assert_eq!(ones, vec![0, 36, 66]);
        // Unaligned slice.
        let s2 = bv.slice(63, 131);
        let ones2: Vec<usize> = s2.iter_ones().collect();
        assert_eq!(ones2, vec![0, 1, 37, 67]);
        // Full slice is identity.
        assert_eq!(bv.slice(0, 200), bv);
        // Empty slice.
        assert_eq!(bv.slice(50, 50).len(), 0);
    }

    #[test]
    fn slice_aligned_masks_tail() {
        let mut bv = BitVec::zeros(128);
        bv.set(64);
        bv.set(100);
        let s = bv.slice(64, 96); // aligned start, tail within word
        assert_eq!(s.count_ones(), 1);
        assert!(s.get(0));
    }

    /// A dense-ish deterministic pattern with no 64-bit period.
    fn pattern(len: usize) -> BitVec {
        let mut bv = BitVec::zeros(len);
        for i in (0..len).filter(|i| (i * i + i / 7) % 3 == 0) {
            bv.set(i);
        }
        bv
    }

    /// `slice` against a per-bit copy, plus the tail-mask invariant: the
    /// words must survive `from_words`, which rejects stray bits past `len`.
    fn assert_slice_matches_per_bit(bv: &BitVec, start: usize, end: usize) {
        let s = bv.slice(start, end);
        assert_eq!(s.len(), end - start);
        for i in start..end {
            assert_eq!(s.get(i - start), bv.get(i), "bit {i} of [{start}, {end})");
        }
        let back = BitVec::from_words(s.len(), s.words().to_vec());
        assert_eq!(
            back.as_ref(),
            Some(&s),
            "stray bits past len in [{start}, {end})"
        );
    }

    #[test]
    fn slice_unaligned_edges() {
        let bv = pattern(200); // last word holds 8 bits
        for (start, end) in [
            (1, 200),   // unaligned, ends exactly at len, in the partial word
            (63, 200),  // crosses every word boundary
            (130, 199), // starts and ends inside the last (partial) word
            (65, 129),  // 64 bits, none aligned
            (5, 6),     // 1-bit window
            (199, 200), // the last bit alone
            (77, 77),   // 0-bit window, unaligned
            (200, 200), // 0-bit window at len
            (64, 200),  // aligned start, partial last word
        ] {
            assert_slice_matches_per_bit(&bv, start, end);
        }
        // A source that is a whole number of words, read to its end.
        let full = pattern(256);
        assert_slice_matches_per_bit(&full, 3, 256);
        assert_slice_matches_per_bit(&full, 193, 256);
    }

    #[test]
    fn transpose64_matches_per_bit() {
        let mut a = [0u64; 64];
        for (i, w) in a.iter_mut().enumerate() {
            *w = (i as u64 + 1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(i as u32);
        }
        let mut t = a;
        transpose64(&mut t);
        for (i, &row) in a.iter().enumerate() {
            for (j, &col) in t.iter().enumerate() {
                assert_eq!((row >> j) & 1, (col >> i) & 1, "({i}, {j})");
            }
        }
    }

    #[test]
    fn region_major_matches_per_bit() {
        for (n_regions, n_steps) in [
            (1, 1),
            (1, 130),
            (3, 64),
            (25, 200),
            (2, 5_000),
            (9, 700),
            (16, 1_025),
            (64, 65),
            (65, 63),
            (130, 70),
            (7, 0),
            (0, 9),
            (5, 1),
        ] {
            let bv = pattern(n_regions * n_steps);
            let rm = bv.region_major(n_regions, n_steps);
            assert_eq!(rm.len(), n_regions * n_steps);
            for x in 0..n_regions {
                for z in 0..n_steps {
                    assert_eq!(
                        rm.get(x * n_steps + z),
                        bv.get(z * n_regions + x),
                        "({x}, {z})"
                    );
                }
            }
            assert!(BitVec::from_words(rm.len(), rm.words().to_vec()).is_some());
        }
    }

    #[test]
    #[should_panic(expected = "and_count of a 100-bit and a 99-bit vector")]
    fn and_count_of_unequal_lengths_is_refused() {
        BitVec::zeros(100).and_count(&BitVec::zeros(99));
    }

    #[test]
    #[should_panic(expected = "or_count of a 64-bit and a 65-bit vector")]
    fn or_count_of_unequal_lengths_is_refused() {
        BitVec::zeros(64).or_count(&BitVec::zeros(65));
    }

    #[test]
    #[should_panic(expected = "or_assign of a 10-bit and a 200-bit vector")]
    fn or_assign_of_unequal_lengths_is_refused() {
        BitVec::zeros(10).or_assign(&BitVec::zeros(200));
    }

    #[test]
    #[should_panic(expected = "bits [50, 40) of a 100-bit vector")]
    fn a_slice_that_ends_before_it_starts_is_refused() {
        BitVec::zeros(100).slice(50, 40);
    }

    #[test]
    #[should_panic(expected = "bits [90, 101) of a 100-bit vector")]
    fn a_slice_past_the_end_is_refused() {
        BitVec::zeros(100).slice(90, 101);
    }

    #[test]
    fn words_roundtrip() {
        let mut bv = BitVec::zeros(130);
        bv.set(0);
        bv.set(64);
        bv.set(129);
        let back = BitVec::from_words(130, bv.words().to_vec()).unwrap();
        assert_eq!(back, bv);
        // Wrong word count rejected.
        assert!(BitVec::from_words(130, vec![0u64; 2]).is_none());
        // Stray bit beyond len rejected.
        assert!(BitVec::from_words(130, vec![0, 0, 1u64 << 2]).is_none());
        // Tail bit exactly at len - 1 accepted.
        assert!(BitVec::from_words(130, vec![0, 0, 1u64 << 1]).is_some());
    }

    #[test]
    fn empty() {
        let bv = BitVec::zeros(0);
        assert!(bv.is_empty());
        assert_eq!(bv.count_ones(), 0);
        assert_eq!(bv.iter_ones().count(), 0);
    }
}
