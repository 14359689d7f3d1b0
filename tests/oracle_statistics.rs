//! A deliberately naive oracle for the statistics.
//!
//! Production counts shifted intersections word-wise and never builds a
//! permutation (`polygamy_core::significance`). This file keeps the
//! *definition* it must agree with: a dense vertex permutation over the
//! whole space × time domain, applied to one function's features one bit at
//! a time, re-scored one bit at a time, and a p-value from two passes over
//! the kept scores. The two paths draw from the generator in the same order,
//! so their p-values must be equal **bit for bit** — on every domain shape,
//! scheme, tail and density, and on windows cropped at any bit offset or,
//! as the executor reads them, left in place at that offset.

use polygamy_core::significance::permutation_p_value;
use polygamy_core::{evaluate_features, evaluate_windows, significance_test, PermutationScheme};
use polygamy_stats::permutation::{
    graph_toroidal_shift, spatiotemporal_shift, temporal_rotation, MonteCarlo, Tail,
};
use polygamy_topology::{BitVec, FeatureSet, FeatureWindow, RowWindows};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

// ---- The oracle: no words, no tricks. ----

/// Output bit `perm[i]` equals input bit `i`.
fn naive_permuted(bits: &BitVec, perm: &[u32]) -> BitVec {
    assert_eq!(perm.len(), bits.len());
    let mut out = BitVec::zeros(bits.len());
    for (i, &image) in perm.iter().enumerate() {
        if bits.get(i) {
            out.set(image as usize);
        }
    }
    out
}

/// Bits `[start, end)`, one at a time.
fn naive_crop(bits: &BitVec, start: usize, end: usize) -> BitVec {
    let mut out = BitVec::zeros(end - start);
    for i in start..end {
        if bits.get(i) {
            out.set(i - start);
        }
    }
    out
}

/// `(#p, #n, |Σ1|, |Σ2|, |Σ|)` by visiting every point.
fn naive_counts(left: &FeatureSet, right: &FeatureSet) -> [usize; 5] {
    let [mut n_pos, mut n_neg, mut n_left, mut n_right, mut sigma] = [0usize; 5];
    for i in 0..left.pos.len() {
        let (p1, n1) = (left.pos.get(i), left.neg.get(i));
        let (p2, n2) = (right.pos.get(i), right.neg.get(i));
        n_pos += usize::from(p1 && p2) + usize::from(n1 && n2);
        n_neg += usize::from(p1 && n2) + usize::from(n1 && p2);
        n_left += usize::from(p1 || n1);
        n_right += usize::from(p2 || n2);
        sigma += usize::from((p1 || n1) && (p2 || n2));
    }
    [n_pos, n_neg, n_left, n_right, sigma]
}

fn naive_score(left: &FeatureSet, right: &FeatureSet) -> f64 {
    let [n_pos, n_neg, ..] = naive_counts(left, right);
    if n_pos + n_neg == 0 {
        0.0
    } else {
        (n_pos as f64 - n_neg as f64) / (n_pos + n_neg) as f64
    }
}

/// The materialising significance test: one dense permutation, one moved
/// copy of `left` and one full re-score per permutation.
#[allow(clippy::too_many_arguments)]
fn naive_significance_test(
    left: &FeatureSet,
    right: &FeatureSet,
    spatial_adjacency: &[Vec<u32>],
    n_steps: usize,
    observed_score: f64,
    mc: &MonteCarlo,
    scheme: PermutationScheme,
    seed: u64,
) -> f64 {
    let n_regions = spatial_adjacency.len().max(1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut permuted_scores = Vec::new();
    for _ in 0..mc.permutations {
        let perm = match (n_regions, scheme) {
            (1, _) => {
                let shift = rng.gen_range(1..n_steps.max(2));
                temporal_rotation(1, n_steps, shift)
            }
            (_, PermutationScheme::Paper) => {
                let spatial = graph_toroidal_shift(spatial_adjacency, &mut rng);
                spatiotemporal_shift(&spatial, n_steps, 0)
            }
            (_, PermutationScheme::SpatioTemporal) => {
                let spatial = graph_toroidal_shift(spatial_adjacency, &mut rng);
                let shift = rng.gen_range(0..n_steps.max(1));
                spatiotemporal_shift(&spatial, n_steps, shift)
            }
        };
        let shifted = FeatureSet {
            pos: naive_permuted(&left.pos, &perm),
            neg: naive_permuted(&left.neg, &perm),
        };
        permuted_scores.push(naive_score(&shifted, right));
    }
    if permuted_scores.is_empty() {
        return 1.0;
    }
    let m = permuted_scores.len() as f64;
    let at_most = |x: &&f64| **x <= observed_score;
    let at_least = |x: &&f64| **x >= observed_score;
    let lower = permuted_scores.iter().filter(at_most).count() as f64 / m;
    let upper = permuted_scores.iter().filter(at_least).count() as f64 / m;
    match mc.tail {
        Tail::Lower => lower,
        Tail::Upper => upper,
        Tail::TwoSided => (2.0 * lower.min(upper)).min(1.0),
    }
}

// ---- Case generation, all from one seed so a failure names its case. ----

fn pick<T: Copy>(rng: &mut SmallRng, options: &[T]) -> T {
    options[rng.gen_range(0..options.len())]
}

/// A 4-neighbour grid of width `w` over `n` cells (last row may be short).
fn grid_adjacency(n: usize, w: usize) -> Vec<Vec<u32>> {
    let mut adj = vec![Vec::new(); n];
    for i in 0..n {
        if (i + 1) % w != 0 && i + 1 < n {
            adj[i].push((i + 1) as u32);
            adj[i + 1].push(i as u32);
        }
        if i + w < n {
            adj[i].push((i + w) as u32);
            adj[i + w].push(i as u32);
        }
    }
    for a in &mut adj {
        a.sort_unstable();
    }
    adj
}

/// Random symmetric edges; sparse draws leave isolated vertices and several
/// components.
fn irregular_adjacency(n: usize, rng: &mut SmallRng) -> Vec<Vec<u32>> {
    let mut adj = vec![Vec::new(); n];
    let n_edges = rng.gen_range(0..=2 * n);
    for _ in 0..n_edges {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b && !adj[a].contains(&(b as u32)) {
            adj[a].push(b as u32);
            adj[b].push(a as u32);
        }
    }
    for a in &mut adj {
        a.sort_unstable();
    }
    adj
}

/// Independent pos/neg draws (they may overlap, as degenerate thresholds
/// allow), each at a density from empty to full.
fn random_features(len: usize, rng: &mut SmallRng) -> FeatureSet {
    let side = |rng: &mut SmallRng| {
        let density = pick(rng, &[0.0, 0.002, 0.05, 0.3, 0.9, 1.0]);
        let mut bits = BitVec::zeros(len);
        for i in 0..len {
            if rng.gen_range(0.0..1.0) < density {
                bits.set(i);
            }
        }
        bits
    };
    FeatureSet {
        pos: side(rng),
        neg: side(rng),
    }
}

struct Case {
    adjacency: Vec<Vec<u32>>,
    n_steps: usize,
    /// Longer fields the windows are cut from, and where each window starts.
    fields: [FeatureSet; 2],
    offsets: [usize; 2],
    scheme: PermutationScheme,
    mc: MonteCarlo,
}

impl Case {
    fn generate(seed: u64) -> Case {
        let rng = &mut SmallRng::seed_from_u64(seed);
        let n_regions: usize = match rng.gen_range(0..4u32) {
            0 => 1,
            1 | 2 => rng.gen_range(2..=40),
            _ => rng.gen_range(65..=130),
        };
        // Bit-at-a-time work is regions × steps × permutations: keep the
        // widest domains to a few word rows.
        let max_steps = if n_regions > 40 { 130 } else { 400 };
        let n_steps: usize = match rng.gen_range(0..8u32) {
            0 => 1,
            1 => 2,
            2 => 63,
            3 => 64,
            4 => 65,
            _ => rng.gen_range(1..=max_steps),
        };
        // `&[vec![]]` and `&[]` both mean "one region".
        let adjacency = match (n_regions, rng.gen_range(0..2u32)) {
            (1, 0) => Vec::new(),
            (1, _) => vec![Vec::new()],
            (n, 0) => grid_adjacency(n, rng.gen_range(1..=n)),
            (n, _) => irregular_adjacency(n, rng),
        };
        let n = n_regions * n_steps;
        let field = |rng: &mut SmallRng| {
            // Whole steps before and after the window: its first vertex
            // sits at any bit offset, its last anywhere in a word.
            let (before, after): (usize, usize) = (rng.gen_range(0..=70), rng.gen_range(0..=3));
            let long = random_features(n + (before + after) * n_regions, rng);
            (long, before * n_regions)
        };
        let ((f1, o1), (f2, o2)) = (field(rng), field(rng));
        Case {
            adjacency,
            n_steps,
            fields: [f1, f2],
            offsets: [o1, o2],
            scheme: pick(
                rng,
                &[PermutationScheme::Paper, PermutationScheme::SpatioTemporal],
            ),
            mc: MonteCarlo {
                permutations: rng.gen_range(0..=12),
                tail: pick(rng, &[Tail::Lower, Tail::Upper, Tail::TwoSided]),
                ..MonteCarlo::default()
            },
        }
    }

    fn n_vertices(&self) -> usize {
        self.adjacency.len().max(1) * self.n_steps
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// `BitVec::slice`, `evaluate_features` and `significance_test` against
    /// the oracle, end to end as a unit task chains them.
    #[test]
    fn production_statistics_equal_the_naive_oracle(seed in 0u64..u64::MAX) {
        let case = Case::generate(seed);
        let n = case.n_vertices();
        let window = |i: usize| {
            let (field, lo) = (&case.fields[i], case.offsets[i]);
            let cropped = field.slice(lo, lo + n);
            let oracle = FeatureSet {
                pos: naive_crop(&field.pos, lo, lo + n),
                neg: naive_crop(&field.neg, lo, lo + n),
            };
            (cropped, oracle)
        };
        let ((left, naive_left), (right, naive_right)) = (window(0), window(1));
        prop_assert_eq!(&left, &naive_left);
        prop_assert_eq!(&right, &naive_right);

        let measures = evaluate_features(&left, &right);
        let [n_pos, n_neg, n_left, n_right, sigma] = naive_counts(&left, &right);
        prop_assert_eq!(
            [measures.n_pos, measures.n_neg, measures.n_left, measures.n_right],
            [n_pos, n_neg, n_left, n_right]
        );
        prop_assert_eq!(measures.score.to_bits(), naive_score(&left, &right).to_bits());
        let strength = if sigma == 0 {
            0.0
        } else {
            let (precision, recall) = (sigma as f64 / n_left as f64, sigma as f64 / n_right as f64);
            2.0 * precision * recall / (precision + recall)
        };
        prop_assert_eq!(measures.strength.to_bits(), strength.to_bits());

        let (adjacency, n_steps, mc, scheme) = (&case.adjacency[..], case.n_steps, &case.mc, case.scheme);
        let observed = measures.score;
        let p = significance_test(&left, &right, adjacency, n_steps, observed, mc, scheme, seed);
        let naive_p =
            naive_significance_test(&left, &right, adjacency, n_steps, observed, mc, scheme, seed);
        prop_assert!(
            p.to_bits() == naive_p.to_bits(),
            "p = {p} but the oracle says {naive_p}: {} regions × {} steps, {:?}, {:?}",
            case.adjacency.len(), case.n_steps, case.scheme, case.mc
        );
    }
}

/// The oracle's ρ from its counts.
fn naive_strength([_, _, n_left, n_right, sigma]: [usize; 5]) -> f64 {
    if sigma == 0 {
        0.0
    } else {
        let (precision, recall) = (sigma as f64 / n_left as f64, sigma as f64 / n_right as f64);
        2.0 * precision * recall / (precision + recall)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The executor's path — the intersection and the Monte Carlo loop on
    /// windows of the un-cropped fields, read in place at their offsets,
    /// the loop over each region's row of the whole field — against the
    /// oracle on crops made one bit at a time.
    #[test]
    fn windowed_statistics_equal_the_naive_oracle(seed in 0u64..u64::MAX) {
        let case = Case::generate(seed);
        let (n, n_regions, n_steps) = (case.n_vertices(), case.adjacency.len().max(1), case.n_steps);
        let [left_field, right_field] = &case.fields;
        let [lo1, lo2] = case.offsets;
        let crop = |field: &FeatureSet, lo: usize| FeatureSet {
            pos: naive_crop(&field.pos, lo, lo + n),
            neg: naive_crop(&field.neg, lo, lo + n),
        };
        let (naive_left, naive_right) = (crop(left_field, lo1), crop(right_field, lo2));

        let (left, right) = (
            FeatureWindow::new(left_field, lo1, n),
            FeatureWindow::new(right_field, lo2, n),
        );
        let measures = evaluate_windows(&left, &right);
        let counts = naive_counts(&naive_left, &naive_right);
        prop_assert_eq!(
            [measures.n_pos, measures.n_neg, measures.n_left, measures.n_right],
            [counts[0], counts[1], counts[2], counts[3]]
        );
        prop_assert_eq!(measures.score.to_bits(), naive_score(&naive_left, &naive_right).to_bits());
        prop_assert_eq!(measures.strength.to_bits(), naive_strength(counts).to_bits());
        prop_assert_eq!(left.intersect(&right).1, counts[4]);

        // Each field re-laid region-major, as the index stores it: its rows
        // span its whole length, and the window starts `offset / n_regions`
        // steps in.
        let stride = |field: &FeatureSet| field.pos.len() / n_regions;
        let rows = |field: &FeatureSet| field.region_major(n_regions, stride(field));
        let (left_rows, right_rows) = (rows(left_field), rows(right_field));
        let (adjacency, mc, scheme) = (&case.adjacency[..], &case.mc, case.scheme);
        let observed = measures.score;
        let tested = permutation_p_value(
            RowWindows::new(&left_rows, n_regions, stride(left_field), lo1 / n_regions, n_steps),
            RowWindows::new(&right_rows, n_regions, stride(right_field), lo2 / n_regions, n_steps),
            adjacency,
            observed,
            mc,
            scheme,
            seed,
            false,
        );
        let p = tested.p.expect("the full loop yields a p-value");
        let naive_p = naive_significance_test(
            &naive_left, &naive_right, adjacency, n_steps, observed, mc, scheme, seed,
        );
        prop_assert!(
            p.to_bits() == naive_p.to_bits(),
            "p = {p} but the oracle says {naive_p}: {} regions × {} steps, {:?}, {:?}",
            case.adjacency.len(), case.n_steps, case.scheme, case.mc
        );
    }
}

#[test]
fn a_single_step_has_only_the_identity_rotation() {
    // 1-D rotations are drawn from 1..n_steps so the identity never dilutes
    // the null distribution — except when there is one step: its only
    // rotation is the identity, every permuted score equals the observed
    // one, and the test can never reject.
    let mut one = FeatureSet::empty(1);
    one.pos.set(0);
    for adjacency in [&[][..], &[vec![]][..]] {
        for tail in [Tail::Lower, Tail::Upper, Tail::TwoSided] {
            let mc = MonteCarlo {
                permutations: 25,
                tail,
                ..MonteCarlo::default()
            };
            for scheme in [PermutationScheme::Paper, PermutationScheme::SpatioTemporal] {
                assert_eq!(
                    significance_test(&one, &one, adjacency, 1, 1.0, &mc, scheme, 3),
                    1.0
                );
            }
        }
    }
}

#[test]
fn empty_domains_never_panic() {
    let mc = MonteCarlo {
        permutations: 5,
        ..MonteCarlo::default()
    };
    let none = FeatureSet::empty(0);
    let three_regions = [vec![1], vec![0], vec![]];
    for scheme in [PermutationScheme::Paper, PermutationScheme::SpatioTemporal] {
        for adjacency in [&[][..], &[vec![]][..], &three_regions[..]] {
            // No steps: every permuted score is 0, like the observed one.
            let p = significance_test(&none, &none, adjacency, 0, 0.0, &mc, scheme, 1);
            assert_eq!(p, 1.0);
            let naive = naive_significance_test(&none, &none, adjacency, 0, 0.0, &mc, scheme, 1);
            assert_eq!(naive, 1.0);
        }
    }
}
