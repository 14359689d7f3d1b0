//! Restricted Monte Carlo significance testing (paper Section 4).
//!
//! The null hypothesis H0 is that two functions are independent in their
//! features. The observed score τ* is compared against the distribution of
//! scores over restricted randomisations of one function's features:
//!
//! * purely temporal domains (`n_regions == 1`) use toroidal *time
//!   rotations*;
//! * spatial domains use BFS *graph toroidal shifts* of the region
//!   adjacency (the same region mapping applied at every time step),
//!   exactly as the paper prescribes;
//! * [`PermutationScheme::SpatioTemporal`] additionally rotates time — the
//!   3-torus extension the paper lists as future work, kept here as an
//!   ablation option.
//!
//! No permutation is ever materialised. A rotation by `s` re-pairs two
//! arcs of each bit vector, a graph shift σ re-pairs whole *region rows*
//! (`Σ_x |row_l[x] ∧ row_r[σ(x)]|`, each row a run of the region-major
//! feature set), and either way the shifted counts
//! `#p`/`#n` come from the two-popcount kernel the intersection uses
//! ([`FeatureWindow::rotated_sign_counts`]), on each row's window read in
//! place — or, for a 1-D window of at most 128 steps, from the same counts
//! on the window held in registers ([`ShortWindow`], extracted once per
//! operand; `rotation_p_value`). The random draws — one `gen_range` per
//! rotation, one [`GraphShifter::draw`] per graph shift — are the ones the
//! definition (a dense vertex permutation applied bit by bit; the oracle
//! in `tests/oracle_statistics.rs`) makes, in the same order, so every
//! p-value is bit-identical to it.
//!
//! # Stopping a test whose verdict is decided
//!
//! A relationship is reported only if its p-value is ≤ α (paper
//! Definition 14), so under a `significant_only` clause — the default — a
//! pair that fails the test is dropped and its p-value never shown. The
//! loop then stops as soon as the failure is certain: after each draw it
//! evaluates the tallies so far over the *final* |m|
//! ([`TailCounts::p_value_over`], the expression the p-value itself uses)
//! and gives up once that bound is not significant under the same
//! [`MonteCarlo::is_significant`] predicate as the verdict (Besag &
//! Clifford, "Sequential Monte Carlo p-values", Biometrika 1991). The rule
//! is exact, not approximate: the tallies only grow and the p-value never
//! falls as they do, so the final p-value is at least the bound and fails
//! too, for every α. A pair that ends significant never crosses the bound,
//! so it runs every draw, from the same stream, and reports the same p
//! bit for bit. `include insignificant` prints p and so always runs all
//! |m| draws, as does the public [`significance_test`].
//!
//! [`FeatureWindow::rotated_sign_counts`]: polygamy_topology::FeatureWindow::rotated_sign_counts

use crate::relationship::score;
use polygamy_stats::permutation::{GraphShifter, MonteCarlo, TailCounts};
use polygamy_topology::{FeatureSet, RowWindows, ShortWindow, SignCounts};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which restricted randomisation family to draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PermutationScheme {
    /// Paper defaults: time rotations for 1-D functions, spatial graph
    /// shifts for spatial functions.
    #[default]
    Paper,
    /// Spatial graph shifts composed with time rotations (3-torus
    /// extension; paper Section 8).
    SpatioTemporal,
}

/// Runs the restricted Monte Carlo test for one candidate relationship.
///
/// `left`/`right` are feature sets aligned on a common window with
/// `n_regions × n_steps` vertices in time-major order; `spatial_adjacency`
/// is the region adjacency of their (shared) spatial resolution. Returns the
/// p-value of the observed score under `mc.tail`.
///
/// This re-lays both operands region-major, the layout the index stores
/// its features in, and runs the loop; the executor reads the stored rows
/// in place and runs the same loop.
// The argument list mirrors the paper's test definition (two feature sets,
// the domain, the observed statistic, the MC setup); a params struct would
// only re-name it.
#[allow(clippy::too_many_arguments)]
pub fn significance_test(
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
    for side in [left, right] {
        assert_eq!(
            side.pos.len(),
            n_regions * n_steps,
            "a significance test over {n_regions} regions × {n_steps} steps given a {}-bit feature set",
            side.pos.len()
        );
    }
    let (left, right) = (
        left.region_major(n_regions, n_steps),
        right.region_major(n_regions, n_steps),
    );
    let tested = permutation_p_value(
        RowWindows::new(&left, n_regions, n_steps, 0, n_steps),
        RowWindows::new(&right, n_regions, n_steps, 0, n_steps),
        spatial_adjacency,
        observed_score,
        mc,
        scheme,
        seed,
        false,
    );
    tested.p.expect("the full loop always yields a p-value")
}

/// What one pair's Monte Carlo loop did.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tested {
    /// The p-value, or `None` when the loop stopped before its last draw
    /// because no remaining draw could make the pair significant.
    pub p: Option<f64>,
    /// Permutations drawn.
    pub draws: usize,
    /// Second passes the kernel ran over points that are both a positive
    /// and a negative feature ([`SignCounts::overlap_passes`]).
    pub overlap_passes: usize,
}

/// The Monte Carlo loop on prepared operands: row `x` of `left`/`right`
/// holds region `x`'s window, one bit per time step (a 1-D domain's single
/// row is the window of the field itself), read in place. Everything a
/// permutation needs is set up before the loop, which allocates nothing.
/// With `significant_only`, the loop stops once the pair cannot be
/// significant (see the module docs).
///
/// Public only for the `significance_stop` benchmark and the statistics
/// oracle; the executor is its one caller.
///
/// # Panics
///
/// Unless both sides have one row per region and windows of one length.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn permutation_p_value(
    left: RowWindows<'_>,
    right: RowWindows<'_>,
    spatial_adjacency: &[Vec<u32>],
    observed_score: f64,
    mc: &MonteCarlo,
    scheme: PermutationScheme,
    seed: u64,
    significant_only: bool,
) -> Tested {
    let n_regions = spatial_adjacency.len().max(1);
    assert_eq!(left.n_rows(), n_regions, "one left row per region");
    assert_eq!(right.n_rows(), n_regions, "one right row per region");
    assert_eq!(
        left.steps(),
        right.steps(),
        "Monte Carlo loop over windows of {} and {} steps",
        left.steps(),
        right.steps()
    );
    let (n_steps, observed) = (left.steps(), observed_score);
    if n_regions == 1 {
        if let (Some(l), Some(r)) = (
            ShortWindow::new(&left.row(0)),
            ShortWindow::new(&right.row(0)),
        ) {
            return rotation_p_value(l, r, observed, mc, seed, significant_only);
        }
        // 1-D: rotate time by 1..n_steps, never by 0 — except on a single
        // step, whose only rotation is the identity (p = 1).
        let (l, r) = (left.row(0), right.row(0));
        return monte_carlo(mc, seed, significant_only, observed, |rng| {
            l.rotated_sign_counts(&r, rng.gen_range(1..n_steps.max(2)))
        });
    }
    let mut shifter = GraphShifter::default();
    monte_carlo(mc, seed, significant_only, observed, |rng| {
        let sigma = shifter.draw(spatial_adjacency, rng);
        let shift = match scheme {
            PermutationScheme::Paper => 0,
            PermutationScheme::SpatioTemporal => rng.gen_range(0..n_steps.max(1)),
        };
        let mut counts = SignCounts::default();
        for (x, &image) in sigma.iter().enumerate() {
            counts += left
                .row(x)
                .rotated_sign_counts(&right.row(image as usize), shift);
        }
        counts
    })
}

/// [`permutation_p_value`] on a 1-D domain whose windows are held in
/// registers ([`ShortWindow`]): the same rotations drawn from the same
/// stream, each two shifts and three popcounts, so the same [`Tested`] bit
/// for bit. The executor extracts an operand's window once and calls this
/// for every pair that reads it.
///
/// # Panics
///
/// If the windows differ in length.
pub(crate) fn rotation_p_value(
    left: ShortWindow,
    right: ShortWindow,
    observed_score: f64,
    mc: &MonteCarlo,
    seed: u64,
    significant_only: bool,
) -> Tested {
    let n_steps = left.len();
    monte_carlo(mc, seed, significant_only, observed_score, |rng| {
        left.rotated_sign_counts(&right, rng.gen_range(1..n_steps.max(2)))
    })
}

/// The Monte Carlo loop around one kind of draw: up to |m| permuted sign
/// counts from `permuted`, drawn from one stream seeded by `seed`, their
/// scores tallied against `observed_score`, stopped early where the module
/// docs say.
fn monte_carlo(
    mc: &MonteCarlo,
    seed: u64,
    significant_only: bool,
    observed_score: f64,
    mut permuted: impl FnMut(&mut SmallRng) -> SignCounts,
) -> Tested {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tally = TailCounts::new(observed_score);
    let mut overlap_passes = 0;
    for draws in 1..=mc.permutations {
        let counts = permuted(&mut rng);
        overlap_passes += counts.overlap_passes;
        tally.push(score(counts.n_pos, counts.n_neg));
        if significant_only
            && draws < mc.permutations
            && !mc.is_significant(tally.p_value_over(mc.permutations, mc.tail))
        {
            return Tested {
                p: None,
                draws,
                overlap_passes,
            };
        }
    }
    Tested {
        p: Some(tally.p_value(mc.tail)),
        draws: mc.permutations,
        overlap_passes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relationship::evaluate_features;
    use polygamy_stats::permutation::Tail;
    use polygamy_topology::BitVec;
    use proptest::{prop_assert, prop_assert_eq};

    fn fs(n: usize, pos: &[usize], neg: &[usize]) -> FeatureSet {
        let mut p = BitVec::zeros(n);
        let mut g = BitVec::zeros(n);
        for &i in pos {
            p.set(i);
        }
        for &i in neg {
            g.set(i);
        }
        FeatureSet { pos: p, neg: g }
    }

    fn mc(n: usize) -> MonteCarlo {
        MonteCarlo {
            permutations: n,
            ..MonteCarlo::default()
        }
    }

    #[test]
    fn coincident_sparse_features_are_significant() {
        // 500 time steps, features at the same 5 isolated instants: under
        // rotation the overlap collapses, so the observed τ=1 is extreme.
        let n = 500;
        let points = [10usize, 100, 200, 300, 450];
        let a = fs(n, &points, &[]);
        let b = fs(n, &points, &[]);
        let obs = evaluate_features(&a, &b).score;
        assert_eq!(obs, 1.0);
        let p = significance_test(
            &a,
            &b,
            &[vec![]],
            n,
            obs,
            &mc(200),
            PermutationScheme::Paper,
            7,
        );
        assert!(p <= 0.05, "expected significance, got p = {p}");
    }

    #[test]
    fn dense_everywhere_features_are_not_significant() {
        // Features covering almost every step relate under any rotation:
        // the observed score is not extreme.
        let n = 200;
        let most: Vec<usize> = (0..n).filter(|i| i % 10 != 0).collect();
        let a = fs(n, &most, &[]);
        let b = fs(n, &most, &[]);
        let obs = evaluate_features(&a, &b).score;
        let p = significance_test(
            &a,
            &b,
            &[vec![]],
            n,
            obs,
            &mc(200),
            PermutationScheme::Paper,
            3,
        );
        assert!(p > 0.05, "dense overlap should not be significant: p = {p}");
    }

    #[test]
    fn spatial_scheme_uses_graph_shift() {
        // 3x3 spatial grid over 4 steps; features concentrated in one
        // corner region of both functions.
        let mut adj = vec![Vec::new(); 9];
        for y in 0..3usize {
            for x in 0..3usize {
                let i = y * 3 + x;
                if x + 1 < 3 {
                    adj[i].push((i + 1) as u32);
                    adj[i + 1].push(i as u32);
                }
                if y + 1 < 3 {
                    adj[i].push((i + 3) as u32);
                    adj[i + 3].push(i as u32);
                }
            }
        }
        for a in &mut adj {
            a.sort_unstable();
        }
        let n = 9 * 4;
        let corner: Vec<usize> = (0..4).map(|z| z * 9).collect();
        let a = fs(n, &corner, &[]);
        let b = fs(n, &corner, &[]);
        let obs = evaluate_features(&a, &b).score;
        // Small domain: we only check the test runs and returns a valid p.
        for scheme in [PermutationScheme::Paper, PermutationScheme::SpatioTemporal] {
            let p = significance_test(&a, &b, &adj, 4, obs, &mc(100), scheme, 11);
            assert!((0.0..=1.0).contains(&p), "p out of range: {p}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let n = 300;
        let pts = [5usize, 50, 150, 250];
        let a = fs(n, &pts, &[]);
        let b = fs(n, &pts, &[]);
        let obs = 1.0;
        let p1 = significance_test(
            &a,
            &b,
            &[vec![]],
            n,
            obs,
            &mc(100),
            PermutationScheme::Paper,
            42,
        );
        let p2 = significance_test(
            &a,
            &b,
            &[vec![]],
            n,
            obs,
            &mc(100),
            PermutationScheme::Paper,
            42,
        );
        assert_eq!(p1, p2);
    }

    /// A time-major `n_regions × n_steps` feature set, each side at one of
    /// a few densities from empty to full.
    fn random_features(n: usize, rng: &mut SmallRng) -> FeatureSet {
        let mut side = || {
            let density = [0.0, 0.002, 0.05, 0.3, 0.9, 1.0][rng.gen_range(0..6usize)];
            let mut bits = BitVec::zeros(n);
            for i in 0..n {
                if rng.gen_range(0.0..1.0) < density {
                    bits.set(i);
                }
            }
            bits
        };
        FeatureSet {
            pos: side(),
            neg: side(),
        }
    }

    /// An `nx × ny` grid with some cells cut out: a hole keeps its region
    /// number but has no neighbours, and none of its neighbours keep it.
    fn grid_with_holes(nx: usize, ny: usize, rng: &mut SmallRng) -> Vec<Vec<u32>> {
        let hole: Vec<bool> = (0..nx * ny).map(|_| rng.gen_range(0..5u32) == 0).collect();
        let mut adj = vec![Vec::new(); nx * ny];
        for y in 0..ny {
            for x in 0..nx {
                let i = y * nx + x;
                for j in [
                    (x + 1 < nx).then_some(i + 1),
                    (y + 1 < ny).then_some(i + nx),
                ] {
                    match j {
                        Some(j) if !hole[i] && !hole[j] => {
                            adj[i].push(j as u32);
                            adj[j].push(i as u32);
                        }
                        _ => {}
                    }
                }
            }
        }
        for a in &mut adj {
            a.sort_unstable();
        }
        adj
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(300))]

        /// The stopped loop reaches the full loop's verdict, and every
        /// p-value it returns is the full loop's bit for bit — on 1-D and
        /// spatial domains, for every α the parser accepts, |m| from 0 to
        /// 1,000, all three tails and both schemes.
        #[test]
        fn stopped_loop_reaches_the_full_loops_verdict(seed in 0u64..u64::MAX) {
            let rng = &mut SmallRng::seed_from_u64(seed);
            let adjacency = match rng.gen_range(0..4u32) {
                0 => Vec::new(),
                1 => vec![Vec::new()],
                _ => grid_with_holes(rng.gen_range(1..=6), rng.gen_range(1..=5), rng),
            };
            let n_regions = adjacency.len().max(1);
            let n_steps = [1, 2, 64, 65, rng.gen_range(1..=130)][rng.gen_range(0..5usize)];
            let left = random_features(n_regions * n_steps, rng);
            // Planted pairs (one function against itself) end significant.
            let right = match rng.gen_range(0..3u32) {
                0 => left.clone(),
                _ => random_features(n_regions * n_steps, rng),
            };
            let mc = MonteCarlo {
                permutations: [0, 1, 2, 10, 100, 1_000][rng.gen_range(0..6usize)],
                alpha: [-1.0, 0.0, 0.01, 0.05, 0.5, 1.0, 2.0][rng.gen_range(0..7usize)],
                tail: [Tail::Lower, Tail::Upper, Tail::TwoSided][rng.gen_range(0..3usize)],
            };
            let scheme = match rng.gen_range(0..2u32) {
                0 => PermutationScheme::Paper,
                _ => PermutationScheme::SpatioTemporal,
            };
            let observed = evaluate_features(&left, &right).score;
            let (left_rows, right_rows) = (
                left.region_major(n_regions, n_steps),
                right.region_major(n_regions, n_steps),
            );
            let run = |significant_only| {
                permutation_p_value(
                    RowWindows::new(&left_rows, n_regions, n_steps, 0, n_steps),
                    RowWindows::new(&right_rows, n_regions, n_steps, 0, n_steps),
                    &adjacency, observed, &mc, scheme, seed, significant_only,
                )
            };
            let (full, stopped) = (run(false), run(true));
            let p = full.p.expect("the full loop yields a p-value");
            prop_assert_eq!(full.draws, mc.permutations);
            prop_assert_eq!(
                p.to_bits(),
                significance_test(&left, &right, &adjacency, n_steps, observed, &mc, scheme, seed)
                    .to_bits()
            );
            prop_assert!(
                stopped.p.is_some_and(|p| mc.is_significant(p)) == mc.is_significant(p),
                "verdicts differ: {:?} vs {:?}, {:?}", stopped, full, mc
            );
            match stopped.p {
                Some(stopped_p) => {
                    prop_assert_eq!(stopped_p.to_bits(), p.to_bits());
                    prop_assert_eq!(stopped.draws, mc.permutations);
                }
                None => prop_assert!(stopped.draws < mc.permutations),
            }
        }
    }

    #[test]
    #[should_panic(expected = "over 3 regions × 4 steps given a 13-bit feature set")]
    fn a_feature_set_off_the_domain_is_refused() {
        let adjacency = [vec![1], vec![0], vec![]];
        let (a, b) = (fs(12, &[1], &[]), fs(13, &[1], &[]));
        significance_test(
            &a,
            &b,
            &adjacency,
            4,
            1.0,
            &mc(5),
            PermutationScheme::Paper,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "Monte Carlo loop over windows of 6 and 5 steps")]
    fn windows_of_unequal_length_are_refused() {
        let a = fs(10, &[1], &[]);
        permutation_p_value(
            RowWindows::new(&a, 1, 10, 0, 6),
            RowWindows::new(&a, 1, 10, 4, 5),
            &[],
            1.0,
            &mc(5),
            PermutationScheme::Paper,
            0,
            false,
        );
    }

    #[test]
    fn zero_permutations_never_significant() {
        let a = fs(10, &[1], &[]);
        let b = fs(10, &[1], &[]);
        let p = significance_test(
            &a,
            &b,
            &[vec![]],
            10,
            1.0,
            &mc(0),
            PermutationScheme::Paper,
            0,
        );
        assert_eq!(p, 1.0);
    }
}
