//! Restricted Monte Carlo permutation tests (paper Section 4).
//!
//! Urban data carries spatial and temporal dependencies; naive permutations
//! destroy them and inflate significance. The paper's remedy is *restricted*
//! randomisation:
//!
//! * purely temporal (1-D) functions are wrapped onto a circle and rotated —
//!   [`temporal_rotation`];
//! * spatial functions are re-mapped by a *toroidal shift generalised to
//!   arbitrary graphs*: a random seed pair `m(u) = v` is extended in
//!   breadth-first order, assigning neighbours of `u` to neighbours of `v`
//!   "where applicable", so graph distances are mostly preserved —
//!   [`graph_toroidal_shift`];
//! * space and time compose via [`spatiotemporal_shift`].
//!
//! The relationship evaluator draws only the *region* permutation
//! ([`GraphShifter`]) and the rotation amount, and counts the shifted
//! intersections word-wise without moving a bit. The dense vertex
//! permutations `perm[v] = image` over the whole space × time domain
//! ([`temporal_rotation`], [`spatiotemporal_shift`]) are the definition
//! those counts are tested against; no query path builds one.

use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::VecDeque;

/// Which tail of the permutation distribution defines the p-value.
///
/// The paper's Eq. 4 is `Lower` (`I(τ_k ≤ τ*)`); the framework defaults to
/// `TwoSided` because the relationship operator must flag both strongly
/// positive and strongly negative scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// `p = #(x_k <= x*) / m` — extreme means unusually small.
    Lower,
    /// `p = #(x_k >= x*) / m` — extreme means unusually large.
    Upper,
    /// `p = 2 * min(lower, upper)`, capped at 1.
    TwoSided,
}

/// Running tail tallies of a permutation distribution against one observed
/// value — the paper's estimator (Eq. 4) without keeping the scores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailCounts {
    observed: f64,
    lower: usize,
    upper: usize,
    total: usize,
}

impl TailCounts {
    /// No permutations seen yet.
    pub fn new(observed: f64) -> Self {
        Self {
            observed,
            lower: 0,
            upper: 0,
            total: 0,
        }
    }

    /// Tallies one permuted score.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.lower += usize::from(x <= self.observed);
        self.upper += usize::from(x >= self.observed);
        self.total += 1;
    }

    /// The p-value under `tail`; no continuity correction, and an empty
    /// permutation set yields `p = 1` (never significant).
    pub fn p_value(&self, tail: Tail) -> f64 {
        self.p_value_over(self.total, tail)
    }

    /// The tallies so far over `total` permutations, with the expression
    /// [`Self::p_value`] uses. Over the final total of a run still in
    /// progress it is a lower bound of that run's p-value: the tallies
    /// only grow, and the expression never falls as they do.
    pub fn p_value_over(&self, total: usize, tail: Tail) -> f64 {
        if total == 0 {
            return 1.0;
        }
        let m = total as f64;
        let lower = self.lower as f64 / m;
        let upper = self.upper as f64 / m;
        match tail {
            Tail::Lower => lower,
            Tail::Upper => upper,
            Tail::TwoSided => (2.0 * lower.min(upper)).min(1.0),
        }
    }
}

/// Monte Carlo p-value of `observed` against the permutation distribution
/// `permuted` (see [`TailCounts`]).
pub fn p_value(observed: f64, permuted: &[f64], tail: Tail) -> f64 {
    let mut counts = TailCounts::new(observed);
    for &x in permuted {
        counts.push(x);
    }
    counts.p_value(tail)
}

/// Configuration for a Monte Carlo significance test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarlo {
    /// Number of permutations `|m|` (the paper uses 1,000).
    pub permutations: usize,
    /// Significance level α (the paper uses 0.05).
    pub alpha: f64,
    /// Which tail defines the p-value.
    pub tail: Tail,
}

impl Default for MonteCarlo {
    fn default() -> Self {
        Self {
            permutations: 1_000,
            alpha: 0.05,
            tail: Tail::TwoSided,
        }
    }
}

impl MonteCarlo {
    /// Computes the p-value under this configuration.
    pub fn p_value(&self, observed: f64, permuted: &[f64]) -> f64 {
        p_value(observed, permuted, self.tail)
    }

    /// True when `p <= alpha` (paper Definition 14).
    pub fn is_significant(&self, p: f64) -> bool {
        p <= self.alpha
    }
}

/// Permutation that rotates the time axis by `shift` steps while leaving
/// space fixed: vertex `(x, z)` maps to `(x, (z + shift) mod n_steps)`.
///
/// This is the 1-D toroidal wrap of Section 4 ("Restricted Monte Carlo
/// Tests for Temporal Correlation") extended to any number of regions — the
/// definition the evaluator's rotation counts are tested against, not
/// something a query builds.
pub fn temporal_rotation(n_regions: usize, n_steps: usize, shift: usize) -> Vec<u32> {
    let mut perm = vec![0u32; n_regions * n_steps];
    for z in 0..n_steps {
        let zz = (z + shift) % n_steps.max(1);
        for x in 0..n_regions {
            perm[z * n_regions + x] = (zz * n_regions + x) as u32;
        }
    }
    perm
}

/// BFS-based toroidal shift over an arbitrary region adjacency graph
/// (Section 4, "Restricted Monte Carlo Tests for Spatial Correlation").
///
/// Starts from a random mapping `m(u0) = v0` and extends it breadth-first:
/// unassigned neighbours of `u` receive unused neighbours of `m(u)` where
/// possible. Vertices that cannot be matched this way (graph irregularity)
/// are paired with the remaining unused images at random. The result is a
/// bijection on `0..n` that preserves adjacency for most pairs.
pub fn graph_toroidal_shift<R: Rng + ?Sized>(adjacency: &[Vec<u32>], rng: &mut R) -> Vec<u32> {
    GraphShifter::default().draw(adjacency, rng).to_vec()
}

/// [`graph_toroidal_shift`] with its buffers kept between draws: after the
/// first draw on a graph, further draws on it allocate nothing. The random
/// draws are the same, in the same order, whether or not buffers are reused.
#[derive(Debug, Default)]
pub struct GraphShifter {
    /// `perm[u]` is the image of `u`, [`Self::UNASSIGNED`] while open.
    perm: Vec<u32>,
    used: Vec<bool>,
    queue: VecDeque<u32>,
    order: Vec<u32>,
    targets: Vec<u32>,
    free: Vec<u32>,
}

impl GraphShifter {
    const UNASSIGNED: u32 = u32::MAX;

    /// Draws one shift of `adjacency`; the slice is valid until the next
    /// draw.
    pub fn draw<R: Rng + ?Sized>(&mut self, adjacency: &[Vec<u32>], rng: &mut R) -> &[u32] {
        let n = adjacency.len();
        self.perm.clear();
        if n <= 1 {
            self.perm.resize(n, 0);
            return &self.perm;
        }
        self.perm.resize(n, Self::UNASSIGNED);
        self.used.clear();
        self.used.resize(n, false);
        self.queue.reserve(n);
        self.targets.reserve(n);
        let Self {
            perm,
            used,
            queue,
            order,
            targets,
            free,
        } = self;

        // Seed every connected component (BFS restart) so disconnected graphs
        // are fully covered.
        order.clear();
        order.extend(0..n as u32);
        order.shuffle(rng);
        for &start in order.iter() {
            if perm[start as usize] != Self::UNASSIGNED {
                continue;
            }
            // Random unused image for the component seed.
            let v0 = loop {
                let cand = rng.gen_range(0..n);
                if !used[cand] {
                    break cand as u32;
                }
            };
            perm[start as usize] = v0;
            used[v0 as usize] = true;
            queue.push_back(start);
            while let Some(u) = queue.pop_front() {
                let v = perm[u as usize];
                // Unused neighbours of the image, consumed in order.
                targets.clear();
                targets.extend(
                    adjacency[v as usize]
                        .iter()
                        .copied()
                        .filter(|&b| !used[b as usize]),
                );
                let mut targets = targets.iter().copied();
                for &a in &adjacency[u as usize] {
                    if perm[a as usize] != Self::UNASSIGNED {
                        continue;
                    }
                    if let Some(b) = targets.next() {
                        perm[a as usize] = b;
                        used[b as usize] = true;
                        queue.push_back(a);
                    }
                    // "Where applicable": if the image has no free neighbours
                    // left, `a` stays unassigned and is fixed up below.
                }
            }
        }

        // Randomly pair leftovers with leftover images.
        free.clear();
        free.extend((0..n as u32).filter(|&i| !used[i as usize]));
        free.shuffle(rng);
        let mut free = free.iter().copied();
        for image in perm.iter_mut().filter(|p| **p == Self::UNASSIGNED) {
            *image = free.next().expect("as many free images as open vertices");
        }
        debug_assert!(free.next().is_none());
        perm
    }
}

/// Composes a spatial region permutation with a temporal rotation into a
/// vertex permutation over the full space × time domain (like
/// [`temporal_rotation`], the tested-against definition only).
pub fn spatiotemporal_shift(spatial_perm: &[u32], n_steps: usize, time_shift: usize) -> Vec<u32> {
    let n_regions = spatial_perm.len();
    let mut perm = vec![0u32; n_regions * n_steps];
    for z in 0..n_steps {
        let zz = (z + time_shift) % n_steps.max(1);
        for x in 0..n_regions {
            perm[z * n_regions + x] = (zz * n_regions) as u32 + spatial_perm[x];
        }
    }
    perm
}

/// Checks that `perm` is a bijection (test/diagnostic helper).
pub fn is_permutation(perm: &[u32]) -> bool {
    let mut seen = vec![false; perm.len()];
    for &p in perm {
        let Some(slot) = seen.get_mut(p as usize) else {
            return false;
        };
        if *slot {
            return false;
        }
        *slot = true;
    }
    true
}

/// Fraction of edges whose endpoints remain adjacent after applying `perm`
/// (diagnostic for how well a toroidal shift respects the graph structure).
pub fn adjacency_preservation(adjacency: &[Vec<u32>], perm: &[u32]) -> f64 {
    let mut total = 0usize;
    let mut kept = 0usize;
    for (u, nbrs) in adjacency.iter().enumerate() {
        for &w in nbrs {
            if (w as usize) < u {
                continue;
            }
            total += 1;
            let (pu, pw) = (perm[u], perm[w as usize]);
            if adjacency[pu as usize].binary_search(&pw).is_ok() {
                kept += 1;
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        kept as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn p_value_tails() {
        let permuted: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        // observed far below all permutations
        assert_eq!(p_value(-1.0, &permuted, Tail::Lower), 0.0);
        assert_eq!(p_value(-1.0, &permuted, Tail::Upper), 1.0);
        assert_eq!(p_value(-1.0, &permuted, Tail::TwoSided), 0.0);
        // observed in the middle
        let p = p_value(0.5, &permuted, Tail::TwoSided);
        assert!(p > 0.9, "middle observation should not be significant: {p}");
        // empty permutations: never significant
        assert_eq!(p_value(0.0, &[], Tail::Lower), 1.0);
    }

    #[test]
    fn tallies_over_the_final_total_bound_the_final_p_value() {
        let permuted = [0.3, 0.9, 0.5, 0.5, 0.1, 0.7, 0.5];
        for tail in [Tail::Lower, Tail::Upper, Tail::TwoSided] {
            let last = p_value(0.5, &permuted, tail);
            let mut counts = TailCounts::new(0.5);
            assert_eq!(counts.p_value_over(permuted.len(), tail), 0.0);
            for &x in &permuted {
                counts.push(x);
                assert!(counts.p_value_over(permuted.len(), tail) <= last);
            }
            let over = counts.p_value_over(permuted.len(), tail);
            assert_eq!(over.to_bits(), last.to_bits());
        }
    }

    #[test]
    fn monte_carlo_config() {
        let mc = MonteCarlo::default();
        assert_eq!(mc.permutations, 1_000);
        assert!(mc.is_significant(0.05));
        assert!(!mc.is_significant(0.051));
    }

    #[test]
    fn temporal_rotation_is_permutation() {
        let perm = temporal_rotation(3, 5, 2);
        assert!(is_permutation(&perm));
        // (x=1, z=0) -> (x=1, z=2)
        assert_eq!(perm[1], (2 * 3 + 1) as u32);
        // wraps: z=4 -> z=1
        assert_eq!(perm[4 * 3], 3);
    }

    #[test]
    fn temporal_rotation_zero_shift_is_identity() {
        let perm = temporal_rotation(2, 4, 0);
        assert!(perm.iter().enumerate().all(|(i, &p)| i as u32 == p));
    }

    fn grid_adjacency(nx: usize, ny: usize) -> Vec<Vec<u32>> {
        let mut adj = vec![Vec::new(); nx * ny];
        for y in 0..ny {
            for x in 0..nx {
                let i = y * nx + x;
                if x + 1 < nx {
                    adj[i].push((i + 1) as u32);
                    adj[i + 1].push(i as u32);
                }
                if y + 1 < ny {
                    adj[i].push((i + nx) as u32);
                    adj[i + nx].push(i as u32);
                }
            }
        }
        for a in &mut adj {
            a.sort_unstable();
        }
        adj
    }

    #[test]
    fn graph_shift_is_bijection() {
        let adj = grid_adjacency(6, 6);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..20 {
            let perm = graph_toroidal_shift(&adj, &mut rng);
            assert!(is_permutation(&perm));
        }
    }

    #[test]
    fn graph_shift_preserves_most_adjacency() {
        let adj = grid_adjacency(8, 8);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut total = 0.0;
        for _ in 0..50 {
            let perm = graph_toroidal_shift(&adj, &mut rng);
            total += adjacency_preservation(&adj, &perm);
        }
        let avg = total / 50.0;
        // A uniformly random permutation keeps ~ |E| * (avg_deg/n) ≈ 6% of
        // edges on an 8x8 grid; the BFS shift should keep far more.
        assert!(avg > 0.5, "average adjacency preservation too low: {avg}");
    }

    #[test]
    fn graph_shift_handles_disconnected_graphs() {
        // Two disjoint triangles.
        let mut adj = vec![Vec::new(); 6];
        for (a, b) in [(0u32, 1u32), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
        for a in &mut adj {
            a.sort_unstable();
        }
        let mut rng = SmallRng::seed_from_u64(3);
        let perm = graph_toroidal_shift(&adj, &mut rng);
        assert!(is_permutation(&perm));
    }

    /// The allocating formulation [`GraphShifter`] replaced, kept as the
    /// reference for its draw order: a fresh buffer for everything, images
    /// as `Option`s, leftovers collected before pairing.
    fn reference_graph_shift(adjacency: &[Vec<u32>], rng: &mut SmallRng) -> Vec<u32> {
        let n = adjacency.len();
        if n <= 1 {
            return vec![0; n];
        }
        let mut image: Vec<Option<u32>> = vec![None; n];
        let mut used = vec![false; n];
        let mut queue = VecDeque::new();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(rng);
        for &start in &order {
            if image[start as usize].is_some() {
                continue;
            }
            let v0 = loop {
                let cand = rng.gen_range(0..n);
                if !used[cand] {
                    break cand as u32;
                }
            };
            image[start as usize] = Some(v0);
            used[v0 as usize] = true;
            queue.push_back(start);
            while let Some(u) = queue.pop_front() {
                let v = image[u as usize].expect("assigned before enqueue");
                let targets: Vec<u32> = adjacency[v as usize]
                    .iter()
                    .copied()
                    .filter(|&b| !used[b as usize])
                    .collect();
                let mut targets = targets.into_iter();
                for &a in &adjacency[u as usize] {
                    if image[a as usize].is_some() {
                        continue;
                    }
                    if let Some(b) = targets.next() {
                        image[a as usize] = Some(b);
                        used[b as usize] = true;
                        queue.push_back(a);
                    }
                }
            }
        }
        let unassigned: Vec<usize> = (0..n).filter(|&i| image[i].is_none()).collect();
        let mut free: Vec<u32> = (0..n as u32).filter(|&i| !used[i as usize]).collect();
        free.shuffle(rng);
        for (i, b) in unassigned.into_iter().zip(free) {
            image[i] = Some(b);
        }
        image
            .into_iter()
            .map(|v| v.expect("all assigned"))
            .collect()
    }

    #[test]
    fn reused_shifter_draws_what_the_allocating_reference_draws() {
        // Grids, isolated vertices, a grid with a hole and disjoint
        // components; one shifter reused across all of them, both
        // generators advanced in lock step.
        let mut graphs = vec![
            grid_adjacency(1, 1),
            grid_adjacency(5, 5),
            grid_adjacency(9, 3),
            vec![Vec::new(); 7],
        ];
        let mut lumpy = grid_adjacency(4, 4);
        for nbrs in &mut lumpy {
            nbrs.retain(|&b| b != 5);
        }
        lumpy[5].clear();
        lumpy.extend(vec![Vec::new(); 3]);
        graphs.push(lumpy);
        let mut shifter = GraphShifter::default();
        let mut ours = SmallRng::seed_from_u64(99);
        let mut theirs = SmallRng::seed_from_u64(99);
        for round in 0..40 {
            for adj in &graphs {
                let expected = reference_graph_shift(adj, &mut theirs);
                assert_eq!(shifter.draw(adj, &mut ours), &expected[..], "round {round}");
            }
        }
        assert_eq!(ours.gen_range(0..u64::MAX), theirs.gen_range(0..u64::MAX));
    }

    #[test]
    fn graph_shift_trivial_sizes() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(graph_toroidal_shift(&[], &mut rng).is_empty());
        assert_eq!(graph_toroidal_shift(&[vec![]], &mut rng), vec![0]);
    }

    #[test]
    fn spatiotemporal_composition() {
        // 2 regions swapped, 3 steps rotated by 1.
        let perm = spatiotemporal_shift(&[1, 0], 3, 1);
        assert!(is_permutation(&perm));
        // (x=0, z=0) -> (x=1, z=1) = index 3
        assert_eq!(perm[0], 3);
        // (x=1, z=2) -> (x=0, z=0) = index 0
        assert_eq!(perm[2 * 2 + 1], 0);
    }

    #[test]
    fn naive_vs_restricted_on_autocorrelated_data() {
        // Two independent smooth (autocorrelated) series: a naive
        // element-wise permutation test finds spurious significance much
        // more often than the restricted rotation test. We verify the
        // restricted test's permutation distribution has heavier tails
        // (higher variance) than the naive one, which is the mechanism.
        let n = 200;
        let mut rng = SmallRng::seed_from_u64(11);
        let smooth = |rng: &mut SmallRng| -> Vec<f64> {
            let mut v = vec![0.0f64; n];
            for i in 1..n {
                v[i] = 0.97 * v[i - 1] + rng.gen_range(-1.0..1.0);
            }
            v
        };
        let a = smooth(&mut rng);
        let b = smooth(&mut rng);
        let corr = |x: &[f64], y: &[f64]| -> f64 {
            let mx = crate::descriptive::mean(x);
            let my = crate::descriptive::mean(y);
            let mut num = 0.0;
            let mut dx = 0.0;
            let mut dy = 0.0;
            for i in 0..x.len() {
                num += (x[i] - mx) * (y[i] - my);
                dx += (x[i] - mx).powi(2);
                dy += (y[i] - my).powi(2);
            }
            num / (dx.sqrt() * dy.sqrt())
        };
        let mut restricted = Vec::new();
        for s in 1..n {
            let rotated: Vec<f64> = (0..n).map(|i| a[(i + s) % n]).collect();
            restricted.push(corr(&rotated, &b));
        }
        let mut naive = Vec::new();
        let mut shuffled = a.clone();
        for _ in 0..199 {
            shuffled.shuffle(&mut rng);
            naive.push(corr(&shuffled, &b));
        }
        let var_restricted = crate::descriptive::variance(&restricted);
        let var_naive = crate::descriptive::variance(&naive);
        assert!(
            var_restricted > 2.0 * var_naive,
            "restricted null should be wider: {var_restricted} vs {var_naive}"
        );
    }
}
