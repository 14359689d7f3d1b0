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
//! (`Σ_x |row_l[x] ∧ row_r[σ(x)]|`), and either way the shifted counts
//! `#p`/`#n` are word-level AND-popcounts
//! ([`FeatureSet::rotated_related_counts`]). The random draws — one
//! `gen_range` per rotation, one [`GraphShifter::draw`] per graph shift —
//! are the ones the definition (a dense vertex permutation applied bit by
//! bit; the oracle in `tests/oracle_statistics.rs`) makes, in the same
//! order, so every p-value is bit-identical to it.

use crate::relationship::score;
use polygamy_stats::permutation::{GraphShifter, MonteCarlo, TailCounts};
use polygamy_topology::FeatureSet;
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
/// This prepares both operands (region-major rows on a spatial domain) and
/// runs the loop; the executor prepares each operand once per dispatch and
/// runs the same loop.
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
    let n_regions = spatial_adjacency.len();
    let (left_rows, right_rows);
    let (left_rows, right_rows) = if n_regions <= 1 {
        debug_assert_eq!(left.pos.len(), n_steps);
        (std::slice::from_ref(left), std::slice::from_ref(right))
    } else {
        left_rows = left.region_major(n_regions, n_steps);
        right_rows = right.region_major(n_regions, n_steps);
        (&left_rows[..], &right_rows[..])
    };
    permutation_p_value(
        left_rows,
        right_rows,
        spatial_adjacency,
        observed_score,
        mc,
        scheme,
        seed,
    )
}

/// The Monte Carlo loop on prepared operands: `left_rows[x]`/`right_rows[x]`
/// hold region `x`'s bits, one per time step (a 1-D domain's single row is
/// the window itself). Everything a permutation needs is set up before the
/// loop, which allocates nothing.
pub(crate) fn permutation_p_value(
    left_rows: &[FeatureSet],
    right_rows: &[FeatureSet],
    spatial_adjacency: &[Vec<u32>],
    observed_score: f64,
    mc: &MonteCarlo,
    scheme: PermutationScheme,
    seed: u64,
) -> f64 {
    let n_regions = spatial_adjacency.len().max(1);
    assert_eq!(left_rows.len(), n_regions, "one left row per region");
    assert_eq!(right_rows.len(), n_regions, "one right row per region");
    let n_steps = left_rows[0].pos.len();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut shifter = GraphShifter::default();
    let mut tally = TailCounts::new(observed_score);
    for _ in 0..mc.permutations {
        let (n_pos, n_neg) = if n_regions == 1 {
            // 1-D: rotate time by 1..n_steps, never by 0 — except on a
            // single step, whose only rotation is the identity (p = 1).
            let shift = rng.gen_range(1..n_steps.max(2));
            left_rows[0].rotated_related_counts(&right_rows[0], shift)
        } else {
            let sigma = shifter.draw(spatial_adjacency, &mut rng);
            let shift = match scheme {
                PermutationScheme::Paper => 0,
                PermutationScheme::SpatioTemporal => rng.gen_range(0..n_steps.max(1)),
            };
            let (mut n_pos, mut n_neg) = (0, 0);
            for (row, &image) in left_rows.iter().zip(sigma) {
                let (p, n) = row.rotated_related_counts(&right_rows[image as usize], shift);
                n_pos += p;
                n_neg += n;
            }
            (n_pos, n_neg)
        };
        tally.push(score(n_pos, n_neg));
    }
    tally.p_value(mc.tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relationship::evaluate_features;
    use polygamy_topology::BitVec;

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
