//! The blob checksum: one word-wise 64-bit sum over every checksummed
//! byte range of a store file and of a shard catalog.
//!
//! Byte-serial FNV-1a verifies ~0.7 GB/s — one dependent multiply per
//! byte — which made the checksum the largest single cost of a cold segment
//! fault and of an eager open. This sum consumes eight bytes per multiply
//! on four independent lanes (the multiplies of one 32-byte block overlap
//! in the pipeline), so verification runs near memory speed. It is *not*
//! what seeds, cache keys and clause fingerprints use: those stay
//! [`polygamy_core::Fnv1a`], whose outputs are pinned by their own tests.
//!
//! Definition, over the payload's bytes `b[0..n]`:
//!
//! ```text
//! step(l, x)  = rotl64((l XOR x) * M, 29)                (mod 2^64)
//! lanes       = SEEDS                                    (four u64)
//! word i      = b[8i .. 8i+8] read little-endian,  i < floor(n / 8)
//! lane[i % 4] = step(lane[i % 4], word i)                for every word
//! t           = floor(n / 8) % 4
//! lane[t]     = step(lane[t], byte)                      for each of the n % 8 tail bytes
//! h           = n
//! h           = step(h, lane[j])                         for j = 0, 1, 2, 3
//! checksum    = h XOR (h >> 32)
//! ```
//!
//! `M` is odd, so every `step` is a bijection of its lane for a fixed input
//! *and* of its input for a fixed lane; the final fold is the same step and
//! `h XOR (h >> 32)` is invertible. A change confined to one word (hence
//! any single-byte change) therefore always changes the sum — the
//! guarantee FNV-1a gives per byte — and the length is folded in so
//! truncating or extending a payload by zero bytes changes it too.

/// The odd multiplier of every step (2^64 / φ).
const M: u64 = 0x9E37_79B9_7F4A_7C15;

/// Initial lane values (the first fractional digits of π).
const SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

#[inline(always)]
fn step(lane: u64, x: u64) -> u64 {
    (lane ^ x).wrapping_mul(M).rotate_left(29)
}

fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte chunk"))
}

/// The checksum of one blob (see the module docs for the definition).
pub fn blob_checksum(bytes: &[u8]) -> u64 {
    let mut lanes = SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, le_word(word));
        }
    }
    // At most three whole words and seven bytes remain; the words continue
    // the round-robin at lane 0 (the blocks consumed a multiple of four).
    let mut words = blocks.remainder().chunks_exact(8);
    let mut t = 0;
    for word in &mut words {
        lanes[t] = step(lanes[t], le_word(word));
        t += 1;
    }
    for &byte in words.remainder() {
        lanes[t] = step(lanes[t], u64::from(byte));
    }
    let h = lanes
        .iter()
        .fold(bytes.len() as u64, |h, &lane| step(h, lane));
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition, transcribed word by word with no blocking — what
    /// the unrolled loop above must agree with at every length.
    fn reference(bytes: &[u8]) -> u64 {
        let mut lanes = SEEDS;
        let n_words = bytes.len() / 8;
        for i in 0..n_words {
            lanes[i % 4] = step(lanes[i % 4], le_word(&bytes[8 * i..8 * i + 8]));
        }
        for &byte in &bytes[8 * n_words..] {
            lanes[n_words % 4] = step(lanes[n_words % 4], u64::from(byte));
        }
        let mut h = bytes.len() as u64;
        for lane in lanes {
            h = step(h, lane);
        }
        h ^ (h >> 32)
    }

    /// Known answers, also listed in docs/store-format.md (computed there
    /// by an independent implementation of the definition).
    #[test]
    fn known_answer_vectors() {
        let counting: Vec<u8> = (0..=255u8).collect();
        for (input, expect) in [
            (&b""[..], 0x593e_1cf8_373a_d503_u64),
            (&b"a"[..], 0xf268_670c_09e5_2b56),
            (&b"polygamy"[..], 0xea7e_b502_b0e4_cd98),
            (
                &b"Data Polygamy: the many-many relationships"[..],
                0xc262_1407_de8b_4a30,
            ),
            (&counting[..], 0x433e_1020_021d_40a8),
        ] {
            assert_eq!(
                blob_checksum(input),
                expect,
                "{:?}: got {:#018x}",
                String::from_utf8_lossy(input),
                blob_checksum(input)
            );
        }
    }

    /// Every length 0..=40 crosses each combination of whole blocks, spare
    /// words and tail bytes; all sums are distinct and match the reference.
    #[test]
    fn tail_handling_matches_the_definition_at_every_length() {
        let data: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        let sums: Vec<u64> = (0..=40).map(|n| blob_checksum(&data[..n])).collect();
        for (n, &sum) in sums.iter().enumerate() {
            assert_eq!(sum, reference(&data[..n]), "length {n}");
            assert!(!sums[..n].contains(&sum), "length {n} collides");
        }
        // All-zero payloads differ by length alone.
        let zeros = [0u8; 41];
        let zero_sums: Vec<u64> = (0..=40).map(|n| blob_checksum(&zeros[..n])).collect();
        for (n, sum) in zero_sums.iter().enumerate() {
            assert!(!zero_sums[..n].contains(sum), "zero length {n} collides");
        }
    }

    proptest! {
        /// Any single-byte change, truncation or extension changes the sum.
        #[test]
        fn any_small_damage_changes_the_sum(
            data in proptest::collection::vec(0u8..=u8::MAX, 1..300),
            at in 0usize..usize::MAX,
            mask in 1u8..=u8::MAX,
            extra in proptest::collection::vec(0u8..=u8::MAX, 1..20),
        ) {
            let sum = blob_checksum(&data);
            prop_assert_eq!(sum, reference(&data));
            let mut flipped = data.clone();
            flipped[at % data.len()] ^= mask;
            prop_assert_ne!(blob_checksum(&flipped), sum);
            prop_assert_ne!(blob_checksum(&data[..at % data.len()]), sum);
            let mut extended = data.clone();
            extended.extend_from_slice(&extra);
            prop_assert_ne!(blob_checksum(&extended), sum);
            extended.truncate(data.len() + 1);
            extended[data.len()] = 0;
            prop_assert_ne!(blob_checksum(&extended), sum);
        }
    }
}
